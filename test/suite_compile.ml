(* Compile-ahead execution (Tsim.Compile), locked down four ways:

   - the step-path rule: a machine compiles exactly when its programs are
     declared pure and it records no trace (Config.compiled_steps), a
     program the compiler rejects still runs interpreted, and nothing
     compiled under one spin fuel reaches a search under another;

   - a lockstep single-step oracle: qcheck random walks drive one
     interpretive machine and one compiled machine through the SAME move
     sequence, comparing enabled-move lists, observable state,
     footprints and both fingerprints after every event — the compiled
     analogue of suite_journal's step;undo law;

   - the step;undo law itself on compiled machines: journal rollback
     must restore an interned continuation (the pc >= 0 representative)
     exactly, Machine.equal included;

   - typed compile-time failures: a section root that unrolls past the
     instruction budget reports Program_too_large, a root whose register
     frame cannot be interned structurally reports Opaque_continuation —
     errors, never crashes or wrong answers — while runtime-only limits
     (value-edge fanout) degrade to the interpreter path silently. *)

open Tsim
open Tsim.Prog
module E = Mcheck.Explore

(* --- lockstep oracle --------------------------------------------------- *)

(* Everything the explorer can observe of a machine state, compared
   field by field. Continuations are compared through the fingerprint
   (which hashes them structurally) rather than [==]: the interpretive
   machine rebuilds closures the compiled machine interns. *)
let check_observables ~tag cfg mi mc =
  Alcotest.(check int) (tag ^ ": full fingerprint") (Machine.fingerprint mi)
    (Machine.fingerprint mc);
  Alcotest.(check int)
    (tag ^ ": incremental fingerprint")
    (Machine.fingerprint_fast mi)
    (Machine.fingerprint_fast mc);
  for v = 0 to Layout.size cfg.Config.layout - 1 do
    Alcotest.(check int)
      (Printf.sprintf "%s: mem v%d" tag v)
      (Machine.mem_value mi v) (Machine.mem_value mc v)
  done;
  for p = 0 to cfg.Config.n - 1 do
    let pi = Machine.proc mi p and pc = Machine.proc mc p in
    Alcotest.(check string)
      (Printf.sprintf "%s: section p%d" tag p)
      (Machine.section_name pi.Machine.sec)
      (Machine.section_name pc.Machine.sec);
    Alcotest.(check string)
      (Printf.sprintf "%s: pending p%d" tag p)
      (Machine.pending_to_string (Machine.pending mi p))
      (Machine.pending_to_string (Machine.pending mc p));
    Alcotest.(check int)
      (Printf.sprintf "%s: packed footprint p%d" tag p)
      (Machine.step_footprint_packed mi p)
      (Machine.step_footprint_packed mc p);
    Alcotest.(check bool)
      (Printf.sprintf "%s: may_enable_cs p%d" tag p)
      (Machine.step_may_enable_cs mi p)
      (Machine.step_may_enable_cs mc p);
    Alcotest.(check int)
      (Printf.sprintf "%s: buffered writes p%d" tag p)
      (Wbuf.size pi.Machine.buf) (Wbuf.size pc.Machine.buf)
  done

let exn_class = function
  | Machine.Exclusion_violation _ -> "exclusion"
  | Prog.Spin_exhausted _ -> "spin"
  | e -> Printexc.to_string e

(* Drive both machines through the same randomly chosen enabled moves,
   checking the full observable projection after every event. An
   exception must surface from both paths with the same class; it may
   leave partial mutations behind, so it ends the walk. *)
let lockstep_walk ?(max_crashes = 0) cfg seed =
  let rng = Random.State.make [| seed |] in
  let mi = Machine.create (Tutil.with_path `Interpreted cfg) in
  let mc = Machine.create (Tutil.with_path `Compiled cfg) in
  Machine.Journal.enable mi;
  Machine.Journal.enable mc;
  let steps = ref 0 and continue = ref true in
  while !continue && !steps < 80 do
    incr steps;
    let tag = Printf.sprintf "step %d" !steps in
    check_observables ~tag cfg mi mc;
    let movesi = E.enabled_moves ~max_crashes mi in
    let movesc = E.enabled_moves ~max_crashes mc in
    if
      List.map E.move_to_string movesi <> List.map E.move_to_string movesc
    then
      Alcotest.failf "%s: enabled moves disagree: [%s] vs [%s]" tag
        (String.concat "; " (List.map E.move_to_string movesi))
        (String.concat "; " (List.map E.move_to_string movesc));
    match movesi with
    | [] -> continue := false
    | moves -> (
        let mv = List.nth moves (Random.State.int rng (List.length moves)) in
        let go m = try Ok (E.apply m mv) with e -> Error (exn_class e) in
        match (go mi, go mc) with
        | Ok (), Ok () -> ()
        | Error a, Error b ->
            Alcotest.(check string)
              (tag ^ ": same exception from " ^ E.move_to_string mv)
              a b;
            continue := false
        | Ok (), Error e | Error e, Ok () ->
            Alcotest.failf "%s: paths disagree on raising %s from %s" tag e
              (E.move_to_string mv))
  done;
  true

let prop_lockstep name ?max_crashes mk_cfg arb =
  QCheck.Test.make ~count:60 ~name
    QCheck.(pair arb small_nat)
    (fun (x, seed) -> lockstep_walk ?max_crashes (mk_cfg x) seed)

(* --- step;undo on compiled machines ------------------------------------ *)

(* suite_journal's walk_restores law, on a machine whose continuations
   are interned pcs: undo must re-derive the canonical representative,
   so even the physical-identity comparison in Machine.equal holds. *)
let compiled_walk_restores ?(max_crashes = 0) cfg seed =
  let rng = Random.State.make [| seed |] in
  let m = Machine.create (Tutil.with_path `Compiled cfg) in
  Alcotest.(check bool) "the walk runs compiled" true
    ((Machine.proc m 0).Machine.pc >= 0);
  Machine.Journal.enable m;
  let steps = ref 0 and continue = ref true in
  while !continue && !steps < 60 do
    incr steps;
    match E.enabled_moves ~max_crashes m with
    | [] -> continue := false
    | moves ->
        let mv = List.nth moves (Random.State.int rng (List.length moves)) in
        let snap = Machine.clone m in
        let fp_before = Machine.fingerprint m in
        let mark = Machine.Journal.mark m in
        let raised =
          try
            E.apply m mv;
            false
          with Machine.Exclusion_violation _ | Prog.Spin_exhausted _ -> true
        in
        Machine.Journal.undo_to m mark;
        if not (Machine.equal m snap) then
          Alcotest.failf "undo after %s did not restore the compiled state"
            (E.move_to_string mv);
        Alcotest.(check int) "full fingerprint restored" fp_before
          (Machine.fingerprint m);
        Alcotest.(check int) "incremental fingerprint restored" fp_before
          (Machine.fingerprint_fast m);
        if raised then continue := false else E.apply m mv
  done;
  true

(* --- typed compile-time errors ----------------------------------------- *)

let one_proc entry =
  let layout = Layout.create () in
  let v = Layout.var layout ~init:0 "v" in
  ( v,
    fun () ->
      Config.make ~pure_programs:true ~n:1 ~layout ~entry:(fun _ -> entry v)
        ~exit_section:(fun _ -> Prog.unit)
        () )

(* Searching a declared-pure configuration whose programs the compiler
   rejects gives the interpreter's verdict and node count: Machine.create
   falls back instead of raising. *)
let check_interpreted_fallback mk_cfg =
  let run cfg = E.explore ~max_nodes:100_000 cfg in
  let r = run (mk_cfg ()) in
  let ri = run (Tutil.with_path `Interpreted (mk_cfg ())) in
  Alcotest.(check bool) "search runs: verified as interpreted"
    ri.E.verified r.E.verified;
  Alcotest.(check int) "search runs: nodes as interpreted" ri.E.nodes
    r.E.nodes

let test_program_too_large () =
  let _, mk_cfg =
    one_proc (fun v ->
        (* 64 distinct straight-line continuations: eager unit-edge
           closing must overflow a 16-instruction budget *)
        let rec chain n =
          if n = 0 then unit
          else
            let* () = write v n in
            chain (n - 1)
        in
        chain 64)
  in
  (match Compile.make ~max_instrs:16 (mk_cfg ()) with
  | _ -> Alcotest.fail "expected Program_too_large"
  | exception Compile.Error (Compile.Program_too_large { limit; _ }) ->
      Alcotest.(check int) "reports the budget it overflowed" 16 limit
  | exception Compile.Error e ->
      Alcotest.failf "wrong error: %s" (Compile.error_to_string e));
  (* past the default budget: a CAS tree of depth 17 has 2^17 distinct
     continuations (eager bool-edge closing interns them all), while an
     execution follows a single 17-CAS path *)
  let _, mk_cfg =
    one_proc (fun v ->
        let rec tree d k =
          if d = 0 then write v k
          else
            let* ok = cas v ~expected:0 ~desired:0 in
            tree (d - 1) ((2 * k) + if ok then 0 else 1)
        in
        tree 17 0)
  in
  (match Compile.make (mk_cfg ()) with
  | _ -> Alcotest.fail "expected Program_too_large at the default budget"
  | exception Compile.Error (Compile.Program_too_large _) -> ());
  check_interpreted_fallback mk_cfg

let test_opaque_continuation () =
  let ch = stdin in
  let _, mk_cfg =
    one_proc (fun v ->
        let* x = read v in
        (* the continuation's register frame captures a channel, which
           structural interning cannot serialize *)
        if x = 12345 then (
          ignore (input_char ch);
          unit)
        else unit)
  in
  (match Compile.make (mk_cfg ()) with
  | _ -> Alcotest.fail "expected Opaque_continuation"
  | exception Compile.Error (Compile.Opaque_continuation { reason; _ }) ->
      Alcotest.(check bool) "reason is non-empty" true
        (String.length reason > 0)
  | exception Compile.Error e ->
      Alcotest.failf "wrong error: %s" (Compile.error_to_string e));
  check_interpreted_fallback mk_cfg

(* Run-time limits are budgets, not errors: new read results intern new
   instructions on demand (memoized up to [max_fanout]); once the code
   store fills, further value edges return -1 — the caller parks that
   process on the interpreter path — and execution stays correct. *)
let test_fanout_degrades () =
  let _, mk_cfg =
    one_proc (fun v ->
        let* x = read v in
        write v (x + 1))
  in
  (* distinct continuation per read result: each new value interns one *)
  let c = Compile.make (mk_cfg ()) in
  let base = Compile.size c in
  let pc = Compile.entry_pc c 0 in
  Alcotest.(check bool) "entry section compiled" true (pc >= 0);
  (match Compile.rep c pc with
  | Prog.Bind (Prog.Read _, k) ->
      let a = Compile.advance_val c pc k 0 in
      Alcotest.(check bool) "first value edge compiles" true (a >= 0);
      Alcotest.(check int) "it interned a new instruction" (base + 1)
        (Compile.size c);
      let b = Compile.advance_val c pc k 1 in
      Alcotest.(check bool) "distinct value, distinct edge" true
        (b >= 0 && b <> a);
      Alcotest.(check int) "memoized edge is stable" a
        (Compile.advance_val c pc k 0)
  | _ -> Alcotest.fail "entry root should be a read");
  (* a full code store degrades new value edges to the interpreter *)
  let c' = Compile.make ~max_instrs:base (mk_cfg ()) in
  let pc' = Compile.entry_pc c' 0 in
  Alcotest.(check bool) "roots still fit exactly" true (pc' >= 0);
  match Compile.rep c' pc' with
  | Prog.Bind (Prog.Read _, k) ->
      Alcotest.(check int) "value edge past the budget degrades" (-1)
        (Compile.advance_val c' pc' k 7)
  | _ -> Alcotest.fail "entry root should be a read"

(* --- the step-path rule ------------------------------------------------ *)

let pcs m =
  List.init (Machine.n_procs m) (fun p -> (Machine.proc m p).Machine.pc)

(* Drive a machine along its first enabled move for a few events
   (stopping at the first exception) and collect every process pc seen
   on the way. *)
let pcs_along m =
  let seen = ref (pcs m) in
  (try
     for _ = 1 to 40 do
       match E.enabled_moves m with
       | [] -> raise Exit
       | mv :: _ ->
           E.apply m mv;
           seen := pcs m @ !seen
     done
   with _ -> ());
  !seen

(* A pure untraced machine steps compiled; a pure traced machine and an
   impure untraced one interpret everywhere, and Config.compiled_steps
   (rendered in the summary) says so. *)
let test_selection_rule () =
  let tas ~pure ~record_trace =
    {
      (Locks.Harness.config_of_lock ~model:Config.Cc_wb
         (Locks.Tas.make ~n:2) ~n:2)
      with
      Config.pure_programs = pure;
      record_trace;
    }
  in
  let ticket =
    {
      (Locks.Harness.config_of_lock ~model:Config.Cc_wb
         (Locks.Ticket.make ~n:2) ~n:2)
      with
      Config.record_trace = false;
    }
  in
  let has s sub =
    let n = String.length sub in
    let rec go i =
      i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
    in
    go 0
  in
  let cfg = tas ~pure:true ~record_trace:false in
  Alcotest.(check bool) "pure untraced: compiled_steps" true
    (Config.compiled_steps cfg);
  Alcotest.(check bool) "pure untraced: summary" true
    (has (Config.summary cfg) "steps=compiled");
  Alcotest.(check bool) "pure untraced: a process pc >= 0" true
    (List.exists (fun pc -> pc >= 0) (pcs (Machine.create cfg)));
  List.iter
    (fun (name, cfg) ->
      Alcotest.(check bool) (name ^ ": compiled_steps") false
        (Config.compiled_steps cfg);
      Alcotest.(check bool) (name ^ ": summary") true
        (has (Config.summary cfg) "steps=interpreted");
      Alcotest.(check bool) (name ^ ": pc = -1 everywhere") true
        (List.for_all (fun pc -> pc = -1) (pcs_along (Machine.create cfg))))
    [ ("pure traced", tas ~pure:true ~record_trace:true);
      ("impure tas", tas ~pure:false ~record_trace:false);
      ("ticket (declared impure)", ticket) ]

(* Each machine compiles its own code: code built while the explorer ran
   at spin fuel 2 must not serve a later fuel-6 search of the very same
   configuration value. *)
let test_no_fuel_leak () =
  let cfg () =
    Locks.Harness.config_of_lock ~model:Config.Cc_wb (Locks.Tas.make ~n:3)
      ~n:3
  in
  let alone = E.explore ~spin_fuel:6 (cfg ()) in
  let shared = cfg () in
  let low = E.explore ~spin_fuel:2 shared in
  let after = E.explore ~spin_fuel:6 shared in
  Alcotest.(check bool) "fuel changes the space (the check can fail)" true
    (low.E.nodes <> alone.E.nodes);
  Alcotest.(check int) "nodes as a fuel-6 run alone" alone.E.nodes
    after.E.nodes;
  Alcotest.(check int) "seen entries as a fuel-6 run alone"
    alone.E.stats.E.seen_entries after.E.stats.E.seen_entries

(* Impure configurations never compile (no lying cache): the ticket lock
   searched as declared and with its programs explicitly undeclared
   agrees on verdict, node count and fingerprint multiset, and its
   search machine interprets. *)
let test_impure_degrades () =
  let mk_cfg () =
    Locks.Harness.config_of_lock ~model:Config.Cc_wb (Locks.Ticket.make ~n:2)
      ~n:2
  in
  let run path =
    let tbl = Hashtbl.create 256 in
    let r =
      E.explore ~max_nodes:500_000
        ~on_fingerprint:(fun fp ->
          Hashtbl.replace tbl fp
            (1 + Option.value ~default:0 (Hashtbl.find_opt tbl fp)))
        (Tutil.with_path path (mk_cfg ()))
    in
    (r, tbl)
  in
  Alcotest.(check bool) "ticket lock is declared impure" false
    (mk_cfg ()).Config.pure_programs;
  Alcotest.(check bool) "its search machine interprets" true
    (List.for_all
       (fun pc -> pc = -1)
       (pcs (Machine.create (Tutil.with_path `Compiled (mk_cfg ())))));
  let rj, tj = run `Interpreted and rc, tc = run `Compiled in
  Alcotest.(check bool) "verified agrees" rj.E.verified rc.E.verified;
  Alcotest.(check int) "nodes agree" rj.E.nodes rc.E.nodes;
  Alcotest.(check int) "distinct fingerprints agree" (Hashtbl.length tj)
    (Hashtbl.length tc);
  Hashtbl.iter
    (fun fp n ->
      Alcotest.(check int)
        (Printf.sprintf "multiplicity of %x" fp)
        n
        (Option.value ~default:0 (Hashtbl.find_opt tc fp)))
    tj

(* --- workloads for the walks ------------------------------------------- *)

let rtas () =
  Locks.Harness.config_of_lock ~model:Config.Cc_wb
    ~crash_semantics:Config.Atomic_prefix
    (Locks.Recoverable_tas.make ~n:2) ~n:2

let suite =
  [
    QCheck_alcotest.to_alcotest
      (prop_lockstep "lockstep: compiled = interpreter on random programs"
         (fun progs -> Suite_mcheck_equiv.config_of_rops progs)
         Suite_mcheck_equiv.arb_prog2);
    QCheck_alcotest.to_alcotest
      (prop_lockstep
         "lockstep: compiled = interpreter on random crash/recovery programs"
         ~max_crashes:2
         (fun c -> Suite_mcheck_equiv.config_of_crashy c)
         Suite_mcheck_equiv.arb_crashy);
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:60 ~name:"step;undo law on compiled machines"
         QCheck.small_nat
         (fun seed ->
           compiled_walk_restores ~max_crashes:1 (rtas ()) seed));
    Alcotest.test_case "instruction-budget overflow is a typed error" `Quick
      test_program_too_large;
    Alcotest.test_case "unserializable register frame is a typed error"
      `Quick test_opaque_continuation;
    Alcotest.test_case "value-edge fanout degrades, never errors" `Quick
      test_fanout_degrades;
    Alcotest.test_case "impure configuration degrades to the interpreter"
      `Quick test_impure_degrades;
    Alcotest.test_case "step path follows Config.compiled_steps" `Quick
      test_selection_rule;
    Alcotest.test_case "no compiled code leaks across spin fuels" `Quick
      test_no_fuel_leak;
  ]
