(* The mutation journal (Machine.Journal) and the in-place DFS.

   Four layers of evidence that the in-place search is exact:

   - a random-walk property: from any reachable state, apply one enabled
     move (including crash/recover and PSO out-of-order commits) and roll
     it back through the journal — the machine must be structurally
     [Machine.equal] to a clone taken before the move, with the same
     fingerprint, and the incrementally-maintained fingerprint must agree
     with the full recompute at every visited state;

   - an independent reachability oracle: a plain clone-per-child BFS
     over every enabled move, deduplicated on the full fingerprint, that
     shares none of the explorer's reduction logic. Without the reduction
     the explorer must reach exactly the oracle's state set; with it, the
     oracle's verdict;

   - a differential check over the golden workloads (at 1 and 4 domains,
     with and without the reduction) and every zoo lock that declares
     pure programs: the interpreted and compiled step paths produce
     identical verdicts (node counts, depths and, via [~on_fingerprint],
     fingerprint multisets too at one domain; at 4 the shared store makes
     those timing-dependent);

   - byte-level invisibility: replaying the corpus fixture with trace
     recording (and the journal) on produces the byte-identical Chrome
     export pinned by test/corpus/peterson_unfenced_tso.trace.json. *)

open Tsim
open Tsim.Prog
module E = Mcheck.Explore

(* --- workloads (duplicated on purpose, like suite_corpus) --------------- *)

let peterson_unfenced () =
  let layout = Layout.create () in
  let flag = Layout.array layout ~init:0 "flag" 2 in
  let turn = Layout.var layout ~init:0 "turn" in
  Config.make ~model:Config.Cc_wb ~check_exclusion:true ~pure_programs:true
    ~n:2 ~layout
    ~entry:(fun p ->
      let* () = write flag.(p) 1 in
      let* () = write turn p in
      let rec await fuel =
        if fuel <= 0 then raise (Prog.Spin_exhausted turn)
        else
          let* f = read flag.(1 - p) in
          if f = 0 then unit
          else
            let* t = read turn in
            if t <> p then unit else await (fuel - 1)
      in
      await 4)
    ~exit_section:(fun p ->
      let* () = write flag.(p) 0 in
      fence)
    ()

let mp_pso () =
  let layout = Layout.create () in
  let data = Layout.var layout "data" in
  let flag = Layout.var layout "flag" in
  let blocked = Layout.var layout "blocked" in
  Config.make ~model:Config.Cc_wb ~ordering:Config.Pso ~check_exclusion:true
    ~pure_programs:true ~n:2 ~layout
    ~entry:(fun p ->
      if p = 0 then
        let* () = write data 1 in
        let* () = write flag 1 in
        unit
      else
        let* f = read flag in
        let* d = read data in
        if f = 1 && d = 0 then unit
        else
          let* _ = spin_until ~fuel:1 blocked (fun x -> x = 1) in
          unit)
    ~exit_section:(fun _ -> Prog.unit)
    ()

let rtas ~crash_semantics () =
  Locks.Harness.config_of_lock ~model:Config.Cc_wb ~crash_semantics
    (Locks.Recoverable_tas.make ~n:2) ~n:2

(* --- random walk: step; undo_to restores the state exactly ------------- *)

(* One walk: journal on, repeatedly pick a random enabled move; before
   applying it, snapshot (clone + full fingerprint + mark); apply (the
   move may raise Exclusion_violation / Spin_exhausted mid-mutation —
   exactly the exception paths the DFS engine must roll back from); undo;
   check the machine is structurally identical to the snapshot with both
   fingerprints agreeing; then re-apply the move to advance. *)
let walk_restores cfg seed =
  let rng = Random.State.make [| seed |] in
  let m = Machine.create cfg in
  Machine.Journal.enable m;
  let steps = ref 0 in
  let continue = ref true in
  while !continue && !steps < 60 do
    incr steps;
    match E.enabled_moves ~max_crashes:2 m with
    | [] -> continue := false
    | moves ->
        let mv = List.nth moves (Random.State.int rng (List.length moves)) in
        let snap = Machine.clone m in
        let fp_before = Machine.fingerprint m in
        if Machine.fingerprint_fast m <> fp_before then
          Alcotest.failf "incremental fingerprint drifted before %s"
            (E.move_to_string mv);
        let mark = Machine.Journal.mark m in
        let raised =
          try
            E.apply m mv;
            false
          with Machine.Exclusion_violation _ | Prog.Spin_exhausted _ -> true
        in
        Machine.Journal.undo_to m mark;
        if not (Machine.equal m snap) then
          Alcotest.failf "undo after %s did not restore the state (step %d)"
            (E.move_to_string mv) !steps;
        Alcotest.(check int) "full fingerprint restored" fp_before
          (Machine.fingerprint m);
        Alcotest.(check int) "incremental fingerprint restored" fp_before
          (Machine.fingerprint_fast m);
        (* advance: exception-raising moves end the walk (the machine was
           rolled back, so the exploration frontier ends here too) *)
        if raised then continue := false else E.apply m mv
  done;
  true

let prop_walk name cfg =
  QCheck.Test.make ~count:60 ~name QCheck.small_nat (fun seed ->
      walk_restores cfg seed)

let walk_props =
  [
    prop_walk "walk/undo: peterson unfenced TSO" (peterson_unfenced ());
    prop_walk "walk/undo: mp PSO" (mp_pso ());
    prop_walk "walk/undo: rtas drop-buffer"
      (rtas ~crash_semantics:Config.Drop_buffer ());
    prop_walk "walk/undo: rtas flush-buffer"
      (rtas ~crash_semantics:Config.Flush_buffer ());
    prop_walk "walk/undo: rtas atomic-prefix"
      (rtas ~crash_semantics:Config.Atomic_prefix ());
    prop_walk "walk/undo: peterson with trace recording"
      { (peterson_unfenced ()) with Config.record_trace = true };
    prop_walk "walk/undo: rtas atomic-prefix with trace recording"
      {
        (rtas ~crash_semantics:Config.Atomic_prefix ()) with
        Config.record_trace = true;
      };
  ]

(* --- independent reachability oracle -------------------------------------- *)

(* Breadth-first over every enabled move, one clone per child, dedup on
   the full fingerprint: no sleep sets, no ample sets, no journal. A child
   that runs out of spin fuel is dropped (the explorer's default
   [`Prune]); one that raises an exclusion is recorded and not entered.
   Spin fuel is pinned to the explorer's default of 6. Returns the
   reachable fingerprint set and whether any violation (exclusion or
   deadlock) is reachable. *)
let oracle ?(max_crashes = 0) cfg =
  let saved = !Prog.default_spin_fuel in
  Prog.default_spin_fuel := 6;
  Fun.protect ~finally:(fun () -> Prog.default_spin_fuel := saved)
  @@ fun () ->
  let seen = Hashtbl.create 4096 and violation = ref false in
  let queue = Queue.create () in
  let admit m =
    let fp = Machine.fingerprint m in
    if not (Hashtbl.mem seen fp) then begin
      Hashtbl.replace seen fp ();
      Queue.add m queue
    end
  in
  admit (Machine.create cfg);
  while not (Queue.is_empty queue) do
    let m = Queue.pop queue in
    match E.enabled_moves ~max_crashes m with
    | [] ->
        for p = 0 to Machine.n_procs m - 1 do
          if Machine.pending_class m p <> Machine.K_done then violation := true
        done
    | moves ->
        List.iter
          (fun mv ->
            let m' = Machine.clone m in
            match E.apply m' mv with
            | () -> admit m'
            | exception Prog.Spin_exhausted _ -> ()
            | exception Machine.Exclusion_violation _ -> violation := true)
          moves
  done;
  (seen, !violation)

let check_oracle name ?(max_crashes = 0) cfg =
  let states, violation = oracle ~max_crashes cfg in
  List.iter
    (fun path ->
      let cfg = Tutil.with_path path cfg in
      let tag = Printf.sprintf "%s (%s)" name (Tutil.path_name path) in
      let root = Machine.fingerprint (Machine.create cfg) in
      let fps = Hashtbl.create 4096 in
      Hashtbl.replace fps root ();
      let r =
        E.explore ~max_nodes:200_000 ~max_violations:max_int ~por:false
          ~max_crashes
          ~on_fingerprint:(fun fp -> Hashtbl.replace fps fp ())
          cfg
      in
      Alcotest.(check bool) (tag ^ ": exhausted") true r.E.exhausted;
      Alcotest.(check int)
        (tag ^ ": nodes = reachable states")
        (Hashtbl.length states) r.E.nodes;
      Alcotest.(check int)
        (tag ^ ": fingerprint set size")
        (Hashtbl.length states) (Hashtbl.length fps);
      Hashtbl.iter
        (fun fp () ->
          if not (Hashtbl.mem states fp) then
            Alcotest.failf "%s: fingerprint %#x unknown to the oracle" tag fp)
        fps;
      let rp = E.explore ~max_nodes:200_000 ~max_crashes cfg in
      Alcotest.(check bool)
        (tag ^ ": por verdict = oracle verdict")
        (not violation) rp.E.verified)
    [ `Interpreted; `Compiled ]

let test_oracle_peterson () =
  check_oracle "peterson unfenced" (peterson_unfenced ())

let test_oracle_mp_pso () = check_oracle "mp PSO" (mp_pso ())

let test_oracle_rtas () =
  check_oracle "rtas drop-buffer" ~max_crashes:1
    (rtas ~crash_semantics:Config.Drop_buffer ());
  check_oracle "rtas atomic-prefix" ~max_crashes:1
    (rtas ~crash_semantics:Config.Atomic_prefix ())

(* --- step-path differential --------------------------------------------- *)

let kind_name = function
  | `Exclusion (a, b) -> Printf.sprintf "exclusion(%d,%d)" a b
  | `Deadlock -> "deadlock"
  | `Spin_exhausted -> "spin"

let explore_with ?(max_nodes = 200_000) ~path ~domains ~por ?on_fingerprint
    ?max_crashes ?max_aborts cfg =
  E.explore ~max_nodes ~domains ~por ?on_fingerprint ?max_crashes
    ?max_aborts (Tutil.with_path path cfg)

let count_into tbl fp =
  Hashtbl.replace tbl fp
    (1 + Option.value ~default:0 (Hashtbl.find_opt tbl fp))

let check_multisets name ti tc =
  Alcotest.(check int)
    (name ^ ": distinct fingerprints")
    (Hashtbl.length ti) (Hashtbl.length tc);
  Hashtbl.iter
    (fun fp n ->
      match Hashtbl.find_opt tc fp with
      | Some n' when n = n' -> ()
      | Some n' ->
          Alcotest.failf "%s: fingerprint %#x visited %d (interpreted) vs %d \
                          (compiled) times"
            name fp n n'
      | None ->
          Alcotest.failf "%s: fingerprint %#x visited by the interpreter only"
            name fp)
    ti

(* Interpreted vs compiled at the same (domains, por): same verdict, same
   violation kinds, same exhaustion. Node counts, max depth and the
   fingerprint multiset are only compared sequentially: with the shared
   fingerprint store, which
   domain claims a state first decides the depth it is recorded at (and,
   under nontrivial sleep masks, how much mask-aware re-exploration
   happens), so those tallies are timing-dependent at domains > 1 —
   deliberately outside the determinism contract (explore.mli). *)
let check_engines name ?max_nodes
    ?(settings = [ (1, true); (1, false); (4, true); (4, false) ])
    ?max_crashes ?max_aborts cfg =
  if not cfg.Config.pure_programs then
    Alcotest.failf "%s: the differential needs declared-pure programs" name;
  List.iter
    (fun (domains, por) ->
      let ti = Hashtbl.create 1024 and tc = Hashtbl.create 1024 in
      let run path tbl =
        let on_fingerprint =
          if domains = 1 then Some (count_into tbl) else None
        in
        explore_with ?max_nodes ~path ~domains ~por ?on_fingerprint
          ?max_crashes ?max_aborts cfg
      in
      let rj = run `Interpreted ti and rc = run `Compiled tc in
      let tag =
        Printf.sprintf "%s domains=%d por=%b" name domains por
      in
      Alcotest.(check bool) (tag ^ ": verified") rj.E.verified rc.E.verified;
      Alcotest.(check bool)
        (tag ^ ": exhausted") rj.E.exhausted rc.E.exhausted;
      if domains = 1 then begin
        Alcotest.(check int) (tag ^ ": nodes") rj.E.nodes rc.E.nodes;
        Alcotest.(check int)
          (tag ^ ": max depth") rj.E.max_depth rc.E.max_depth;
        check_multisets tag ti tc
      end;
      Alcotest.(check (list string))
        (tag ^ ": violation kinds")
        (List.map (fun v -> kind_name v.E.kind) rj.E.violations)
        (List.map (fun v -> kind_name v.E.kind) rc.E.violations))
    settings

let test_engines_peterson () = check_engines "peterson" (peterson_unfenced ())
let test_engines_mp_pso () = check_engines "mp_pso" (mp_pso ())

let test_engines_rtas () =
  check_engines "rtas" ~max_crashes:1
    (rtas ~crash_semantics:Config.Drop_buffer ())

(* Every zoo lock that declares pure programs — each of these searches
   steps compiled by default, so each is held to the interpreter, under
   a budget every one of them exhausts: the full contract (verdict, nodes, depth, fingerprint
   multiset) at one domain under the reduction, as searches run by
   default, and the verdict at two. *)
let test_engines_zoo () =
  let check_engines name =
    check_engines name ~max_nodes:1_000_000
      ~settings:[ (1, true); (2, true) ]
  in
  let zoo name n =
    match Locks.Zoo.find name with
    | Some fam ->
        Locks.Harness.config_of_lock ~model:Config.Cc_wb
          (fam.Locks.Lock_intf.instantiate ~n) ~n
    | None -> Alcotest.failf "no zoo lock %s" name
  in
  List.iter
    (fun (name, n) ->
      check_engines (Printf.sprintf "%s n=%d" name n) (zoo name n))
    [ ("tas", 3); ("mcs", 3); ("bakery", 3); ("filter", 3);
      ("tournament", 3); ("fastpath", 3); ("adaptive-list", 3);
      ("dekker", 2); ("burns-lamport", 2) ];
  check_engines "recoverable-tas n=3" ~max_crashes:1
    (zoo "recoverable-tas" 3);
  check_engines "abortable-tas n=3" ~max_aborts:1 (zoo "abortable-tas" 3)

(* Sequentially the two paths must visit the same fingerprint multiset,
   not just the same number of nodes. *)
let check_fp_sets name ?max_crashes cfg =
  let run path =
    let tbl = Hashtbl.create 1024 in
    let r =
      explore_with ~path ~domains:1 ~por:true ?max_crashes
        ~on_fingerprint:(count_into tbl) cfg
    in
    (r, tbl)
  in
  let ri, ti = run `Interpreted and rc, tc = run `Compiled in
  Alcotest.(check int) (name ^ ": nodes") ri.E.nodes rc.E.nodes;
  check_multisets name ti tc

let test_fp_sets_peterson () = check_fp_sets "peterson" (peterson_unfenced ())

let test_fp_sets_rtas () =
  check_fp_sets "rtas" ~max_crashes:1
    (rtas ~crash_semantics:Config.Atomic_prefix ())

(* Paranoid mode recomputes the full fingerprint at every node and fails
   on drift — a whole-space version of the walk property. *)
let test_paranoid () =
  List.iter
    (fun (name, max_crashes, cfg) ->
      let r =
        E.explore ~max_nodes:200_000 ~max_crashes ~paranoid_fp:true cfg
      in
      Alcotest.(check bool) (name ^ ": explored") true (r.E.nodes > 0))
    [
      ("peterson", 0, peterson_unfenced ());
      ("mp_pso", 0, mp_pso ());
      ("rtas", 1, rtas ~crash_semantics:Config.Atomic_prefix ());
    ]

(* Journal gauges surface in stats on both step paths. *)
let test_journal_stats () =
  List.iter
    (fun path ->
      let name = Tutil.path_name path in
      let r =
        E.explore ~max_nodes:200_000
          (Tutil.with_path path (peterson_unfenced ()))
      in
      Alcotest.(check bool) (name ^ " pushes records") true
        (r.E.stats.E.undo_records > 0);
      Alcotest.(check bool) (name ^ " has a peak") true
        (r.E.stats.E.journal_peak > 0))
    [ `Interpreted; `Compiled ]

(* --- byte-identical Chrome export with the journal on ------------------ *)

(* Traced machines always interpret (Config.compiled_steps), so this
   pins the interpreter with journaling live; the compiled path meets the
   same fixture untraced in suite_corpus. *)

let test_chrome_byte_identical () =
  let schedule =
    match
      E.load_schedule (Filename.concat "corpus" "peterson_unfenced_tso.sched")
    with
    | Ok s -> s
    | Error e -> Alcotest.failf "fixture schedule: %s" e
  in
  let export () =
    let cfg = { (peterson_unfenced ()) with Config.record_trace = true } in
    let m, outcome = E.replay cfg schedule in
    (match outcome with
    | E.R_exclusion _ -> ()
    | _ -> Alcotest.fail "fixture replay should end in the exclusion");
    Execution.Chrome.to_string (Execution.Trace.of_machine m)
  in
  let golden =
    In_channel.with_open_bin
      (Filename.concat "corpus" "peterson_unfenced_tso.trace.json")
      In_channel.input_all
  in
  Alcotest.(check string) "journal replay matches the golden bytes" golden
    (export ())

let suite =
  List.map QCheck_alcotest.to_alcotest walk_props
  @ [
      Alcotest.test_case "oracle agrees: peterson unfenced" `Quick
        test_oracle_peterson;
      Alcotest.test_case "oracle agrees: mp PSO" `Quick test_oracle_mp_pso;
      Alcotest.test_case "oracle agrees: rtas crashes<=1" `Quick
        test_oracle_rtas;
      Alcotest.test_case "engines agree: peterson" `Quick
        test_engines_peterson;
      Alcotest.test_case "engines agree: mp PSO" `Quick test_engines_mp_pso;
      Alcotest.test_case "engines agree: rtas crashes<=1" `Quick
        test_engines_rtas;
      Alcotest.test_case "engines agree: pure zoo locks" `Quick
        test_engines_zoo;
      Alcotest.test_case "fingerprint sets agree: peterson" `Quick
        test_fp_sets_peterson;
      Alcotest.test_case "fingerprint sets agree: rtas" `Quick
        test_fp_sets_rtas;
      Alcotest.test_case "paranoid fingerprint cross-check" `Quick
        test_paranoid;
      Alcotest.test_case "journal gauges in stats" `Quick test_journal_stats;
      Alcotest.test_case "chrome export byte-identical with the journal on"
        `Quick test_chrome_byte_identical;
    ]
