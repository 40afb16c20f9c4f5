(* Cross-engine equivalence: the throughput-tuned explorer configurations
   (trace recording off, packed FNV fingerprints, bitset awareness sets,
   and the domain-parallel driver) must report the same verdicts as the
   reference configuration (trace recording on, single domain — the seed
   engine's operating point).

   Node counts are NOT compared across engines: the reduction exists to
   change them, and under nontrivial sleep masks the shared-store claim
   races make parallel counts timing-dependent. What must agree is the
   semantics — [verified], [exhausted] (for verifying configurations) and
   the kind of violation found (for violating ones). *)

open Tsim
open Tsim.Prog

let peterson ~fenced =
  let layout = Layout.create () in
  let flag = Layout.array layout ~init:0 "flag" 2 in
  let turn = Layout.var layout ~init:0 "turn" in
  Config.make ~model:Config.Cc_wb ~check_exclusion:true ~pure_programs:true
    ~n:2 ~layout
    ~entry:(fun p ->
      let* () = write flag.(p) 1 in
      let* () = write turn p in
      let* () = if fenced then fence else unit in
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

let dekker () =
  Locks.Harness.config_of_lock ~model:Config.Cc_wb
    (Locks.Dekker.make ~n:2) ~n:2

(* Message-passing litmus encoded as exclusion reachability (cf.
   suite_mcheck): under PSO the out-of-order commit reaches the anomaly,
   reported as an exclusion violation. *)
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

type verdict = Verified | Violation of string | Inconclusive

let verdict_to_string = function
  | Verified -> "verified"
  | Violation k -> "violation:" ^ k
  | Inconclusive -> "inconclusive"

let verdict_of (r : Mcheck.Explore.result) =
  match r.Mcheck.Explore.violations with
  | [] -> if r.Mcheck.Explore.verified then Verified else Inconclusive
  | v :: _ ->
      Violation
        (match v.Mcheck.Explore.kind with
        | `Exclusion _ -> "exclusion"
        | `Deadlock -> "deadlock"
        | `Spin_exhausted -> "spin")

let verdict = Alcotest.testable
    (fun fmt v -> Format.pp_print_string fmt (verdict_to_string v))
    ( = )

let kind_set (r : Mcheck.Explore.result) =
  List.sort_uniq compare
    (List.map
       (fun v ->
         match v.Mcheck.Explore.kind with
         | `Exclusion _ -> "exclusion"
         | `Deadlock -> "deadlock"
         | `Spin_exhausted -> "spin")
       r.Mcheck.Explore.violations)

let with_path = Tutil.with_path
let path_name = Tutil.path_name

(* The explorer configurations under comparison: the reference point
   (trace on, no reduction, single domain — the seed engine), then the
   throughput features and the partial-order reduction in every
   combination of domains, on both step paths now that all domain counts
   share one fingerprint store. POR must be verdict-invisible
   everywhere. *)

let engines =
  [
    ("reference (trace on, por off, d=1)",
     fun cfg ->
       Mcheck.Explore.explore ~max_nodes:2_000_000 ~record_trace:true
         ~por:false cfg);
    ("fast (por on, d=1)",
     fun cfg ->
       Mcheck.Explore.explore ~max_nodes:2_000_000
         (with_path `Interpreted cfg));
    ("fast (por off, d=1)",
     fun cfg ->
       Mcheck.Explore.explore ~max_nodes:2_000_000 ~por:false
         (with_path `Interpreted cfg));
    ("parallel (por on, d=4)",
     fun cfg ->
       Mcheck.Explore.explore ~max_nodes:2_000_000 ~domains:4
         (with_path `Interpreted cfg));
    ("parallel (por off, d=4)",
     fun cfg ->
       Mcheck.Explore.explore ~max_nodes:2_000_000 ~domains:4 ~por:false
         (with_path `Interpreted cfg));
    ("parallel (por on, d=8)",
     fun cfg ->
       Mcheck.Explore.explore ~max_nodes:2_000_000 ~domains:8
         (with_path `Interpreted cfg));
    ("compiled (por on, d=1)",
     fun cfg -> Mcheck.Explore.explore ~max_nodes:2_000_000 cfg);
    ("compiled (por off, d=1)",
     fun cfg -> Mcheck.Explore.explore ~max_nodes:2_000_000 ~por:false cfg);
    ("parallel compiled (por on, d=4)",
     fun cfg -> Mcheck.Explore.explore ~max_nodes:2_000_000 ~domains:4 cfg);
    ("parallel compiled (por off, d=8)",
     fun cfg ->
       Mcheck.Explore.explore ~max_nodes:2_000_000 ~domains:8 ~por:false cfg);
  ]

let check_equiv name mk_cfg expected =
  Alcotest.test_case name `Quick (fun () ->
      List.iter
        (fun (engine, run) ->
          let r = run (mk_cfg ()) in
          Alcotest.check verdict
            (Printf.sprintf "%s on %s" engine name)
            expected (verdict_of r);
          (* verifying configurations must actually exhaust the space *)
          if expected = Verified then
            Alcotest.(check bool)
              (Printf.sprintf "%s exhausted on %s" engine name)
              true r.Mcheck.Explore.exhausted;
          (* reported exclusion schedules always replay *)
          match r.Mcheck.Explore.violations with
          | { Mcheck.Explore.kind = `Exclusion _; schedule } :: _ ->
              ignore (Mcheck.Explore.replay_schedule (mk_cfg ()) schedule)
          | _ -> ())
        engines)

(* Determinism of the parallel driver, per the explore.mli contract:
   [verified]/[exhausted] and the violation set are always deterministic;
   node counts additionally so when sleep masks are trivial ([por:false])
   and no cap cuts the search — each state is then claimed exactly once
   in the shared store, so [nodes] equals the state-space size regardless
   of domain timing. [max_depth] records the first-arrival depth of each
   claimed state and is deliberately NOT compared: which path wins the
   claim race varies run to run. *)
let test_parallel_deterministic () =
  let run ~por () =
    Mcheck.Explore.explore ~max_nodes:2_000_000 ~domains:4 ~por
      (peterson ~fenced:true)
  in
  let a = run ~por:false () and b = run ~por:false () in
  Alcotest.(check int) "por off: same nodes" a.Mcheck.Explore.nodes
    b.Mcheck.Explore.nodes;
  Alcotest.(check bool) "por off: same verdict" a.Mcheck.Explore.verified
    b.Mcheck.Explore.verified;
  let a = run ~por:true () and b = run ~por:true () in
  Alcotest.(check bool) "por on: same verdict" a.Mcheck.Explore.verified
    b.Mcheck.Explore.verified;
  Alcotest.(check bool) "por on: same exhausted" a.Mcheck.Explore.exhausted
    b.Mcheck.Explore.exhausted
  ;
  (* without sleep masks the shared store grants each state to exactly
     one visitor, so 4 domains expand exactly the sequential node set —
     on a space far past the store's initial capacity, so every shard
     grows while the domains race on it *)
  let tournament () =
    Locks.Harness.config_of_lock ~model:Config.Cc_wb
      (Locks.Tournament.make ~n:3 ()) ~n:3
  in
  let seq =
    Mcheck.Explore.explore ~max_nodes:2_000_000 ~por:false (tournament ())
  in
  let par =
    Mcheck.Explore.explore ~max_nodes:2_000_000 ~por:false ~domains:4
      (tournament ())
  in
  let initial =
    Mcheck.Fpstore.capacity
      (Mcheck.Fpstore.create ~mode:Config.Store_exact ~expected:0)
  in
  Alcotest.(check bool)
    (Printf.sprintf "space %d > 10x initial store capacity %d"
       seq.Mcheck.Explore.nodes initial)
    true
    (seq.Mcheck.Explore.nodes > 10 * initial);
  Alcotest.(check bool) "exhausted" true par.Mcheck.Explore.exhausted;
  Alcotest.(check int) "por off: d=4 nodes = d=1 nodes"
    seq.Mcheck.Explore.nodes par.Mcheck.Explore.nodes

(* Under a widened violation cap, every step path, domain count and POR
   setting must surface the same SET
   of violation kinds — the cap no longer truncates the interesting part
   of the space, so the kind set is part of the determinism contract. *)
let test_kind_set_equiv () =
  List.iter
    (fun (name, mk_cfg) ->
      let expected =
        kind_set
          (Mcheck.Explore.explore ~max_nodes:2_000_000 ~max_violations:8
             ~por:false (mk_cfg ()))
      in
      List.iter
        (fun (path, domains, por) ->
          let r =
            Mcheck.Explore.explore ~max_nodes:2_000_000 ~max_violations:8
              ~domains ~por
              (with_path path (mk_cfg ()))
          in
          Alcotest.(check (list string))
            (Printf.sprintf "%s kinds (%s d=%d por=%b)" name (path_name path)
               domains por)
            expected (kind_set r))
        [ (`Interpreted, 1, true); (`Interpreted, 4, true);
          (`Interpreted, 8, false);
          (`Compiled, 1, true); (`Compiled, 4, true);
          (`Compiled, 8, false) ])
    [ ("peterson unfenced", fun () -> peterson ~fenced:false);
      ("mp pso", mp_pso) ]

(* The ~on_fingerprint hook is a single closure that cannot be shared by
   concurrent domains; combining it with domains > 1 must be rejected
   loudly rather than racing (documented in explore.mli). *)
let test_on_fingerprint_rejects_domains () =
  Alcotest.check_raises "on_fingerprint + domains=4 rejected"
    (Invalid_argument "Explore.explore: on_fingerprint requires domains = 1")
    (fun () ->
      ignore
        (Mcheck.Explore.explore ~max_nodes:1000 ~domains:4
           ~on_fingerprint:(fun _ -> ())
           (peterson ~fenced:true)));
  (* and at domains = 1 it still works, duplicates included *)
  let n = ref 0 in
  let r =
    Mcheck.Explore.explore ~max_nodes:2_000_000
      ~on_fingerprint:(fun _ -> incr n)
      (peterson ~fenced:true)
  in
  Alcotest.(check bool) "d=1 hook fired" true (!n >= r.Mcheck.Explore.nodes)

(* Trace recording must not change what the explorer can see: with it on,
   the machine trace grows, but verdict, node count and depth agree with
   the trace-off engine (the fingerprint never covers the trace). *)
let test_trace_flag_invisible () =
  let on =
    Mcheck.Explore.explore ~max_nodes:2_000_000 ~record_trace:true
      (peterson ~fenced:true)
  in
  let off =
    Mcheck.Explore.explore ~max_nodes:2_000_000 (peterson ~fenced:true)
  in
  Alcotest.(check int) "same nodes" on.Mcheck.Explore.nodes
    off.Mcheck.Explore.nodes;
  Alcotest.(check int) "same depth" on.Mcheck.Explore.max_depth
    off.Mcheck.Explore.max_depth

(* The reduction must earn its keep: on the fenced Peterson exhaustive
   check, POR explores at least 2x fewer nodes (the bench rows in
   BENCH_PR2.json record the measured counts). *)
let test_por_reduces_nodes () =
  let on = Mcheck.Explore.explore ~max_nodes:2_000_000 (peterson ~fenced:true)
  and off =
    Mcheck.Explore.explore ~max_nodes:2_000_000 ~por:false
      (peterson ~fenced:true)
  in
  Alcotest.(check bool) "por on: exhausted" true on.Mcheck.Explore.exhausted;
  Alcotest.(check bool) "por off: exhausted" true off.Mcheck.Explore.exhausted;
  Alcotest.(check bool)
    (Printf.sprintf "por-on nodes (%d) <= por-off nodes (%d) / 2"
       on.Mcheck.Explore.nodes off.Mcheck.Explore.nodes)
    true
    (2 * on.Mcheck.Explore.nodes <= off.Mcheck.Explore.nodes)

(* Sequentially (d=1) the determinism contract is total: compiled steps
   are the same journal DFS on top of compile-ahead execution, so on
   identical configurations they must visit the same states in the same
   order as the interpreter — equal node counts, equal max depth, and
   equal fingerprint MULTISETS (state identity plus revisit counts), por
   on and off. *)
let fp_multiset ~path ~por cfg =
  let tbl = Hashtbl.create 256 in
  let r =
    Mcheck.Explore.explore ~max_nodes:2_000_000 ~por
      ~on_fingerprint:(fun fp ->
        Hashtbl.replace tbl fp
          (1 + Option.value ~default:0 (Hashtbl.find_opt tbl fp)))
      (with_path path cfg)
  in
  (r, tbl)

let check_fp_multisets name tj tc =
  Alcotest.(check int)
    (name ^ ": distinct fingerprints")
    (Hashtbl.length tj) (Hashtbl.length tc);
  Hashtbl.iter
    (fun fp n ->
      Alcotest.(check int)
        (Printf.sprintf "%s: multiplicity of %x" name fp)
        n
        (Option.value ~default:0 (Hashtbl.find_opt tc fp)))
    tj

let test_compiled_sequential_deterministic () =
  List.iter
    (fun (name, mk_cfg) ->
      List.iter
        (fun por ->
          let tag = Printf.sprintf "%s por=%b" name por in
          let rj, tj = fp_multiset ~path:`Interpreted ~por (mk_cfg ()) in
          let rc, tc = fp_multiset ~path:`Compiled ~por (mk_cfg ()) in
          Alcotest.(check bool) (tag ^ ": verified") rj.Mcheck.Explore.verified
            rc.Mcheck.Explore.verified;
          Alcotest.(check int) (tag ^ ": nodes") rj.Mcheck.Explore.nodes
            rc.Mcheck.Explore.nodes;
          Alcotest.(check int) (tag ^ ": max depth")
            rj.Mcheck.Explore.max_depth rc.Mcheck.Explore.max_depth;
          check_fp_multisets tag tj tc)
        [ true; false ])
    [ ("peterson fenced", fun () -> peterson ~fenced:true);
      ("peterson unfenced", fun () -> peterson ~fenced:false);
      ("dekker", dekker); ("mp pso", mp_pso) ]

(* --- differential property: POR is verdict-invisible ------------------- *)

(* Random 2-process straight-line entry sections over three shared
   variables (plus a never-set park variable for conditional spins),
   explored exhaustively with and without the reduction under both
   orderings. No mutual exclusion is attempted, so exclusion violations
   abound; conditional spins make some programs spin-exhaust and some
   verify. The engines must agree on [verified], [exhausted] and the SET
   of violation kinds, and the reduced run's visited states must be a
   subset of the full run's (fused chain intermediates are skipped, so
   containment — not equality — is the invariant). *)

type rop =
  | Rwrite of int * int
  | Rread of int
  | Rfence
  | Rcas of int * int * int
  | Rguard of int * int  (* read v; park (bounded spin) if it equals x *)

let rop_to_string = function
  | Rwrite (v, x) -> Printf.sprintf "w v%d %d" v x
  | Rread v -> Printf.sprintf "r v%d" v
  | Rfence -> "f"
  | Rcas (v, e, d) -> Printf.sprintf "cas v%d %d->%d" v e d
  | Rguard (v, x) -> Printf.sprintf "guard v%d=%d" v x

let gen_rop =
  QCheck.Gen.(
    frequency
      [
        (4, map2 (fun v x -> Rwrite (v, x)) (int_range 0 2) (int_range 1 3));
        (3, map (fun v -> Rread v) (int_range 0 2));
        (2, return Rfence);
        (2,
         map3
           (fun v e d -> Rcas (v, e, d))
           (int_range 0 2) (int_range 0 2) (int_range 1 3));
        (2, map2 (fun v x -> Rguard (v, x)) (int_range 0 2) (int_range 0 1));
      ])

let gen_prog2 =
  QCheck.Gen.(
    triple
      (list_size (int_range 1 5) gen_rop)
      (list_size (int_range 1 5) gen_rop)
      bool)

let arb_prog2 =
  QCheck.make
    ~print:(fun (a, b, pso) ->
      Printf.sprintf "p0:[%s] p1:[%s] %s"
        (String.concat "; " (List.map rop_to_string a))
        (String.concat "; " (List.map rop_to_string b))
        (if pso then "PSO" else "TSO"))
    gen_prog2

let config_of_rops ?recovery ?crash_semantics (ops0, ops1, pso) =
  let layout = Layout.create () in
  let vars = Layout.array layout ~init:0 "v" 3 in
  let park = Layout.var layout ~init:0 "park" in
  let rec prog = function
    | [] -> unit
    | Rwrite (v, x) :: rest ->
        let* () = write vars.(v) x in
        prog rest
    | Rread v :: rest ->
        let* _ = read vars.(v) in
        prog rest
    | Rfence :: rest ->
        let* () = fence in
        prog rest
    | Rcas (v, e, d) :: rest ->
        let* _ = cas vars.(v) ~expected:e ~desired:d in
        prog rest
    | Rguard (v, x) :: rest ->
        let* y = read vars.(v) in
        if y = x then
          let* _ = spin_until ~fuel:1 park (fun b -> b = 1) in
          prog rest
        else prog rest
  in
  Config.make ~model:Config.Cc_wb
    ~ordering:(if pso then Config.Pso else Config.Tso)
    ?recovery:(Option.map (fun ops _p -> prog ops) recovery)
    ?crash_semantics ~check_exclusion:true ~pure_programs:true ~n:2 ~layout
    ~entry:(fun p -> prog (if p = 0 then ops0 else ops1))
    ~exit_section:(fun _ -> Prog.unit)
    ()

let prop_por_differential =
  QCheck.Test.make ~count:120 ~name:"por on/off: same verdict, subset states"
    arb_prog2 (fun progs ->
      let run ~por sink =
        Mcheck.Explore.explore ~max_nodes:500_000 ~max_violations:max_int
          ~on_spin:`Violation ~por ~on_fingerprint:sink
          (config_of_rops progs)
      in
      let fps_off = Hashtbl.create 256 and fps_on = Hashtbl.create 256 in
      let off = run ~por:false (fun fp -> Hashtbl.replace fps_off fp ()) in
      let on = run ~por:true (fun fp -> Hashtbl.replace fps_on fp ()) in
      if not off.Mcheck.Explore.exhausted then
        QCheck.Test.fail_report "full run did not exhaust";
      if on.Mcheck.Explore.exhausted <> off.Mcheck.Explore.exhausted then
        QCheck.Test.fail_report "exhausted disagrees";
      if on.Mcheck.Explore.verified <> off.Mcheck.Explore.verified then
        QCheck.Test.fail_report "verified disagrees";
      if kind_set on <> kind_set off then
        QCheck.Test.fail_report
          (Printf.sprintf "violation kinds disagree: por-on {%s} vs por-off {%s}"
             (String.concat "," (kind_set on))
             (String.concat "," (kind_set off)));
      Hashtbl.iter
        (fun fp () ->
          if not (Hashtbl.mem fps_off fp) then
            QCheck.Test.fail_report
              "por-on visited a state the full exploration never saw")
        fps_on;
      true)

(* Same differential under a one-crash budget: crash moves are pairwise
   dependent (shared budget) and suspend singleton-ample fusion, so the
   reduced crash exploration must still agree with the full one on every
   verdict and visit only states the full run visits. *)
let prop_por_differential_crashes =
  QCheck.Test.make ~count:60
    ~name:"por on/off with max_crashes=1: same verdict, subset states"
    arb_prog2 (fun progs ->
      let run ~por sink =
        Mcheck.Explore.explore ~max_nodes:500_000 ~max_violations:max_int
          ~on_spin:`Violation ~por ~max_crashes:1 ~on_fingerprint:sink
          (config_of_rops progs)
      in
      let fps_off = Hashtbl.create 256 and fps_on = Hashtbl.create 256 in
      let off = run ~por:false (fun fp -> Hashtbl.replace fps_off fp ()) in
      let on = run ~por:true (fun fp -> Hashtbl.replace fps_on fp ()) in
      if not off.Mcheck.Explore.exhausted then
        QCheck.Test.fail_report "full run did not exhaust";
      if on.Mcheck.Explore.exhausted <> off.Mcheck.Explore.exhausted then
        QCheck.Test.fail_report "exhausted disagrees";
      if on.Mcheck.Explore.verified <> off.Mcheck.Explore.verified then
        QCheck.Test.fail_report "verified disagrees";
      if kind_set on <> kind_set off then
        QCheck.Test.fail_report
          (Printf.sprintf
             "violation kinds disagree: por-on {%s} vs por-off {%s}"
             (String.concat "," (kind_set on))
             (String.concat "," (kind_set off)));
      Hashtbl.iter
        (fun fp () ->
          if not (Hashtbl.mem fps_off fp) then
            QCheck.Test.fail_report
              "por-on visited a state the full exploration never saw")
        fps_on;
      true)

(* --- differential property: step paths agree on random programs -------- *)

(* Crash-capable extension of the generator: the same straight-line
   sections, plus an optional recovery section and a drawn crash
   semantics, so the compiled path's crash lowering (buffer fate,
   recovery-section re-entry, interpreter fallback at the recovery root)
   is differentially fuzzed rather than hand-tested. *)
type crashy = {
  c_progs : rop list * rop list * bool;
  c_recovery : rop list option;
  c_sem : Config.crash_semantics;
  c_crashes : int;  (* adversary crash budget for the exploration *)
}

let gen_crashy =
  QCheck.Gen.(
    gen_prog2 >>= fun progs ->
    option (list_size (int_range 1 3) gen_rop) >>= fun c_recovery ->
    oneofl [ Config.Drop_buffer; Config.Flush_buffer; Config.Atomic_prefix ]
    >>= fun c_sem ->
    int_range 1 2 >>= fun c_crashes ->
    return { c_progs = progs; c_recovery; c_sem; c_crashes })

let arb_crashy =
  QCheck.make
    ~print:(fun c ->
      let a, b, pso = c.c_progs in
      Printf.sprintf "p0:[%s] p1:[%s] %s rec:[%s] %s crashes<=%d"
        (String.concat "; " (List.map rop_to_string a))
        (String.concat "; " (List.map rop_to_string b))
        (if pso then "PSO" else "TSO")
        (match c.c_recovery with
        | None -> "-"
        | Some r -> String.concat "; " (List.map rop_to_string r))
        (Config.crash_semantics_name c.c_sem)
        c.c_crashes)
    gen_crashy

let config_of_crashy c =
  config_of_rops ?recovery:c.c_recovery ~crash_semantics:c.c_sem c.c_progs

(* Compiled vs interpreted on a random program: sequentially the contract is
   total, so the two runs must agree on verdict, exhaustion, kind set,
   node count, max depth and the fingerprint MULTISET, por on and off. *)
let multisets_agree tj tc =
  Hashtbl.length tj = Hashtbl.length tc
  && Hashtbl.fold
       (fun fp n ok ->
         ok && Option.value ~default:0 (Hashtbl.find_opt tc fp) = n)
       tj true

let check_path_pair ~max_crashes ~por cfg_of () =
  let run path sink =
    Mcheck.Explore.explore ~max_nodes:500_000 ~max_violations:max_int
      ~on_spin:`Violation ~por ~max_crashes ~on_fingerprint:sink
      (with_path path (cfg_of ()))
  in
  let count tbl fp =
    Hashtbl.replace tbl fp
      (1 + Option.value ~default:0 (Hashtbl.find_opt tbl fp))
  in
  let tj = Hashtbl.create 256 and tc = Hashtbl.create 256 in
  let rj = run `Interpreted (count tj) in
  let rc = run `Compiled (count tc) in
  if rj.Mcheck.Explore.verified <> rc.Mcheck.Explore.verified then
    QCheck.Test.fail_report "verified disagrees";
  if rj.Mcheck.Explore.exhausted <> rc.Mcheck.Explore.exhausted then
    QCheck.Test.fail_report "exhausted disagrees";
  if rj.Mcheck.Explore.nodes <> rc.Mcheck.Explore.nodes then
    QCheck.Test.fail_report
      (Printf.sprintf "node counts disagree: interpreted %d vs compiled %d"
         rj.Mcheck.Explore.nodes rc.Mcheck.Explore.nodes);
  if rj.Mcheck.Explore.max_depth <> rc.Mcheck.Explore.max_depth then
    QCheck.Test.fail_report "max depth disagrees";
  if kind_set rj <> kind_set rc then
    QCheck.Test.fail_report
      (Printf.sprintf
         "violation kinds disagree: interpreted {%s} vs compiled {%s}"
         (String.concat "," (kind_set rj))
         (String.concat "," (kind_set rc)));
  if not (multisets_agree tj tc) then
    QCheck.Test.fail_report "fingerprint multisets disagree";
  (* at d=4 only the verdict contract survives (claim races move node
     counts; the fingerprint hook is sequential-only) *)
  let par path =
    Mcheck.Explore.explore ~max_nodes:500_000 ~max_violations:max_int
      ~on_spin:`Violation ~por ~max_crashes ~domains:4
      (with_path path (cfg_of ()))
  in
  let pj = par `Interpreted and pc = par `Compiled in
  if pj.Mcheck.Explore.verified <> pc.Mcheck.Explore.verified then
    QCheck.Test.fail_report "d=4 verified disagrees";
  if kind_set pj <> kind_set pc then
    QCheck.Test.fail_report "d=4 violation kinds disagree";
  true

let prop_engine_differential =
  QCheck.Test.make ~count:120
    ~name:"compiled vs journal: identical search on random programs"
    arb_prog2 (fun progs ->
      List.for_all
        (fun por ->
          check_path_pair ~max_crashes:0 ~por
            (fun () -> config_of_rops progs)
            ())
        [ true; false ])

let prop_engine_differential_crashes =
  QCheck.Test.make ~count:120
    ~name:
      "compiled vs journal: identical search on random crash/recovery \
       programs"
    arb_crashy (fun c ->
      List.for_all
        (fun por ->
          check_path_pair ~max_crashes:c.c_crashes ~por
            (fun () -> config_of_crashy c)
            ())
        [ true; false ])

let suite =
  [
    check_equiv "peterson fenced" (fun () -> peterson ~fenced:true) Verified;
    check_equiv "peterson unfenced"
      (fun () -> peterson ~fenced:false)
      (Violation "exclusion");
    check_equiv "dekker" dekker Verified;
    check_equiv "mp litmus under PSO" mp_pso (Violation "exclusion");
    Alcotest.test_case "parallel driver is deterministic" `Quick
      test_parallel_deterministic;
    Alcotest.test_case "violation kind sets agree at max_violations=8" `Quick
      test_kind_set_equiv;
    Alcotest.test_case "on_fingerprint requires domains=1" `Quick
      test_on_fingerprint_rejects_domains;
    Alcotest.test_case "record_trace does not affect the search" `Quick
      test_trace_flag_invisible;
    Alcotest.test_case "por reduces fenced-peterson nodes >= 2x" `Quick
      test_por_reduces_nodes;
    Alcotest.test_case "compiled engine: sequential determinism contract"
      `Quick test_compiled_sequential_deterministic;
    QCheck_alcotest.to_alcotest prop_por_differential;
    QCheck_alcotest.to_alcotest prop_por_differential_crashes;
    QCheck_alcotest.to_alcotest prop_engine_differential;
    QCheck_alcotest.to_alcotest prop_engine_differential_crashes;
  ]
