(* At-scale verification benchmark.

   An untraced process (--trace 0) runs one pass of a workload, each
   verify search in a forked process of its own as a user runs one
   verification per process, and reports its end-to-end metrics; run.py
   repeats such processes for the measuring time and takes medians. A traced process (--trace 1) alternates untraced and traced
   passes for --seconds and reports the per-layer metrics. Either prints,
   as the last line of its standard output, one JSON object
   [{"correct", "attempted", "failed", "metrics"}]. Every timing is taken
   in this file, around calls into the libraries' public entry points:
   nothing inside lib/ is instrumented, and no telemetry sink is attached
   to an untraced search.

   Usage:
     bench.exe --workload W --seed N --seconds S --trace 0|1
               [--out DIR] [--source-digest D] [--shrink] [--plant-wrong]

   --shrink swaps every workload for a small input set (self-test);
   --plant-wrong flips one expected verdict, which must surface as a
   failed operation and an incorrect run (self-test). *)

open Tsim
module E = Mcheck.Explore
module Fp = Mcheck.Footprint
module J = Obs.Json
module Cell = Campaign.Cell
module Driver = Campaign.Driver
module Cache = Campaign.Cache
module Runner = Campaign.Runner

external now_ns : unit -> int = "pb_now_ns" [@@noalloc]

(* ---------------------------------------------------------------- *)
(* Command line                                                      *)

let workload = ref ""
let seed = ref 0
let seconds = ref 10.0
let trace = ref 0
let out_dir = ref ".bench_out"
let source_digest = ref "unknown"
let shrink = ref false
let plant_wrong = ref false

let () =
  let usage =
    "bench.exe --workload W --seed N --seconds S --trace 0|1 [--out DIR] \
     [--source-digest D] [--shrink] [--plant-wrong]"
  in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "workload name");
      ("--seed", Arg.Set_int seed, "input seed");
      ("--seconds", Arg.Set_float seconds, "measuring time");
      ("--trace", Arg.Set_int trace, "0: end-to-end, 1: per-layer");
      ("--out", Arg.Set_string out_dir, "directory for spans and state");
      ("--source-digest", Arg.Set_string source_digest, "source identity");
      ("--shrink", Arg.Set shrink, "small inputs (self-test)");
      ("--plant-wrong", Arg.Set plant_wrong, "plant a wrong expectation");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage

let workloads = [ "verify"; "campaign-grid" ]
let traced = !trace = 1

(* campaign parameters: jobs, and the driver's default per-cell cap *)
let jobs = 2
let campaign_cap = 200_000

(* node budget of the verify workloads: the CLI's default, which every
   verify search exhausts with room to spare *)
let verify_budget = 2_000_000

(* ---------------------------------------------------------------- *)
(* Small helpers                                                     *)

let quantile q xs =
  match List.sort Float.compare xs with
  | [] -> nan
  | sorted ->
      let a = Array.of_list sorted in
      let pos = q *. float_of_int (Array.length a - 1) in
      let i = int_of_float pos in
      if i + 1 >= Array.length a then a.(i)
      else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median = quantile 0.5
let sum = List.fold_left ( +. ) 0.0
let sumi = List.fold_left ( + ) 0
let ratio a b = if b = 0.0 then 0.0 else a /. b

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let read_file path =
  match open_in path with
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> Some (In_channel.input_all ic))
  | exception Sys_error _ -> None

let write_file path s =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

let remove_file path = try Sys.remove path with Sys_error _ -> ()

(* peak resident set of this process, from the kernel's high-water mark *)
let peak_rss_mb () =
  match read_file "/proc/self/status" with
  | None -> nan
  | Some s ->
      List.fold_left
        (fun acc line ->
          match String.split_on_char ':' line with
          | [ "VmHWM"; v ] -> (
              match
                String.split_on_char ' ' (String.trim v)
                |> List.filter (( <> ) "")
              with
              | kb :: _ -> float_of_string kb /. 1024.0
              | [] -> acc)
          | _ -> acc)
        nan (String.split_on_char '\n' s)

(* Run [f] in a forked child, as a user runs one verification per
   process: its result (marshalled back through a pipe) and the child's
   peak resident memory in MB, which no earlier search's heap inflates.
   [f] must not raise, and no other domain may be running. *)
let in_child (f : unit -> 'a) : 'a * float =
  flush_all ();
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
      Unix.close rd;
      let oc = Unix.out_channel_of_descr wr in
      let x = f () in
      Marshal.to_channel oc (x, peak_rss_mb ()) [];
      close_out oc;
      Unix._exit 0
  | pid ->
      Unix.close wr;
      let ic = Unix.in_channel_of_descr rd in
      let x = (Marshal.from_channel ic : 'a * float) in
      close_in ic;
      ignore (Unix.waitpid [] pid);
      x

let loadavg () =
  match read_file "/proc/loadavg" with
  | Some s -> (
      match String.split_on_char ' ' s with
      | a :: _ -> float_of_string_opt a |> Option.value ~default:nan
      | [] -> nan)
  | None -> nan

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let secs_of_ns ns = float_of_int ns *. 1e-9
let with_spin_fuel f =
  let saved = !Prog.default_spin_fuel in
  Prog.default_spin_fuel := 6;
  Fun.protect ~finally:(fun () -> Prog.default_spin_fuel := saved) f

(* ---------------------------------------------------------------- *)
(* Spans: kept in memory, written out at the end of a traced run     *)

type span = {
  id : int;
  name : string;
  t0 : int;
  mutable t1 : int;
  parent : int;
  op : int;
  mutable args : (string * J.t) list;
}

let tracing = ref false
let spans : span list ref = ref []
let stack : span list ref = ref []
let next_id = ref 0
let cur_op = ref 0

let new_span ?(args = []) name t0 =
  incr next_id;
  let parent = match !stack with s :: _ -> s.id | [] -> 0 in
  { id = !next_id; name; t0; t1 = t0; parent; op = !cur_op; args }

(* [span name f] wraps one call into a layer; a no-op when tracing is
   off. [annotate] attaches arguments to the innermost open span. *)
let span ?args name f =
  if not !tracing then f ()
  else begin
    let s = new_span ?args name (now_ns ()) in
    stack := s :: !stack;
    Fun.protect
      ~finally:(fun () ->
        s.t1 <- now_ns ();
        stack := List.tl !stack;
        spans := s :: !spans)
      f
  end

let annotate args =
  match !stack with
  | s :: _ when !tracing -> s.args <- s.args @ args
  | _ -> ()

(* a span measured elsewhere, under the innermost [parent] span that
   encloses it *)
let add_span ?args ~parent name t0 t1 =
  if !tracing then begin
    let s = new_span ?args name t0 in
    let enclosing =
      List.filter (fun p -> p.name = parent && p.t0 <= t0 && t1 <= p.t1) !spans
    in
    let s =
      match List.sort (fun a b -> compare b.t0 a.t0) enclosing with
      | p :: _ -> { s with parent = p.id; op = p.op }
      | [] -> s
    in
    s.t1 <- t1;
    spans := s :: !spans
  end

let spans_named name = List.filter (fun s -> s.name = name) !spans
let span_ns s = s.t1 - s.t0

let span_json s =
  J.Obj
    [
      ("id", J.Int s.id);
      ("name", J.String s.name);
      ("start_ns", J.Int s.t0);
      ("end_ns", J.Int s.t1);
      ("parent", J.Int s.parent);
      ("op", J.Int s.op);
      ("args", J.Obj s.args);
    ]

(* ---------------------------------------------------------------- *)
(* Operation accounting                                              *)

let attempted = ref 0
let failed = ref 0
let partials = ref 0
let correct = ref true

(* A failed operation. [wrong] marks an output that contradicts the
   expected-verdict table or a determinism contract: the run is then
   incorrect, not merely failing. *)
let op_fail ~wrong fmt =
  Printf.ksprintf
    (fun msg ->
      incr attempted;
      incr failed;
      if wrong then correct := false;
      Printf.eprintf "FAILED%s: %s\n%!" (if wrong then " (wrong)" else "") msg)
    fmt

let op_ok () = incr attempted

let op_partial () =
  incr attempted;
  incr partials

let next_op () = incr cur_op

(* ---------------------------------------------------------------- *)
(* Exact-count check: at one domain, these counts must repeat exactly *)

let counts : (string, int list) Hashtbl.t = Hashtbl.create 16
let counts_file () = Filename.concat !out_dir ("counts-" ^ !source_digest ^ ".json")

let load_counts () =
  if !source_digest <> "unknown" then
    match read_file (counts_file ()) with
    | None -> ()
    | Some s -> (
        match J.parse s with
        | Ok (J.Obj fields) ->
            List.iter
              (fun (k, v) ->
                match v with
                | J.List l ->
                    Hashtbl.replace counts k
                      (List.map (function J.Int i -> i | _ -> -1) l)
                | _ -> ())
              fields
        | _ -> ())

let save_counts () =
  if !source_digest <> "unknown" then begin
    let fields =
      Hashtbl.fold
        (fun k v acc -> (k, J.List (List.map (fun i -> J.Int i) v)) :: acc)
        counts []
      |> List.sort compare
    in
    write_file (counts_file ()) (J.to_string (J.Obj fields))
  end

(* [true] if the counts agree with every earlier sighting of [key] *)
let check_counts key (r : E.result) =
  let s = r.E.stats in
  let c = [ r.E.nodes; s.E.seen_entries; s.E.undo_records; s.E.journal_peak ] in
  match Hashtbl.find_opt counts key with
  | Some c' when c' <> c ->
      let show l = String.concat "/" (List.map string_of_int l) in
      Printf.eprintf
        "count drift on %s: nodes/seen/undo/peak %s, earlier %s\n%!" key
        (show c) (show c');
      false
  | Some _ -> true
  | None ->
      Hashtbl.replace counts key c;
      true

(* ---------------------------------------------------------------- *)
(* Configurations and witnesses                                      *)

let family name =
  match Locks.Zoo.find name with
  | Some f -> f
  | None -> failwith ("unknown lock " ^ name)

(* Build a search configuration from scratch: lock instantiation plus
   [Harness.config_of_lock], the layer [locks.config_us] times. *)
let config_of ?(model = Config.Cc_wb) ?ordering ?max_passages
    ?crash_semantics lock_name n =
  let lock = (family lock_name).Locks.Lock_intf.instantiate ~n in
  span "locks.config_of_lock" (fun () ->
      Locks.Harness.config_of_lock ~model ?ordering ?max_passages
        ?crash_semantics lock ~n)

let cell_config (c : Cell.t) =
  let cfg =
    config_of ~model:c.Cell.model ~ordering:c.Cell.ordering
      ~max_passages:c.Cell.passages ~crash_semantics:c.Cell.crash_semantics
      c.Cell.lock c.Cell.n
  in
  { cfg with Config.store = c.Cell.store }

(* Re-run a violation's schedule on a fresh configuration (a new lock
   instance, so no scratch state is shared with the search). *)
let witness_reproduces fresh_cfg (v : E.violation) =
  let cfg = { fresh_cfg with Config.record_trace = false } in
  match with_spin_fuel (fun () -> E.replay cfg v.E.schedule) with
  | _, E.R_exclusion _ -> true
  | _ -> false
  | exception _ -> false

let has_exclusion (r : E.result) =
  List.exists
    (fun v -> match v.E.kind with `Exclusion _ -> true | _ -> false)
    r.E.violations

(* ---------------------------------------------------------------- *)
(* Verify workloads                                                  *)

type expect = Exp_verified | Exp_refuted

type search = {
  lock : string;
  n : int;
  crashes : int;
  aborts : int;
  domains : int;
  expect : expect;
}

let mk ?(crashes = 0) ?(aborts = 0) ?(domains = 1) ?(expect = Exp_verified)
    lock n =
  { lock; n; crashes; aborts; domains; expect }

let label s =
  Printf.sprintf "%s n=%d crashes=%d aborts=%d d=%d" s.lock s.n s.crashes
    s.aborts s.domains

(* The at-scale searches: the per-node hot loop at one domain (tournament
   and mcs n=4, bakery n=3), the fault path (crash and abort budgets, and
   two refuted locks whose witnesses must replay), and the shared store,
   work stealing and clone hand-off at two domains. *)
let verify_searches () =
  let size small full = if !shrink then small else full in
  [
    mk "tournament" (size 3 4);
    mk "mcs" (size 3 4);
    mk "bakery" (size 2 3);
    mk "recoverable-tas" (size 2 4) ~crashes:(size 1 2);
    mk "abortable-tas" (size 2 3) ~aborts:(size 1 2);
    mk "recoverable-tas-naive" (size 2 3) ~crashes:1 ~expect:Exp_refuted;
    mk "abortable-tas-buggy" (size 2 3) ~aborts:1 ~expect:Exp_refuted;
    mk "tournament" (size 3 4) ~domains:2;
    mk "mcs" (size 3 4) ~domains:2;
  ]

let plant s =
  { s with expect = (if s.expect = Exp_verified then Exp_refuted else Exp_verified) }

type sres = {
  s : search;
  r : (E.result, string) result;
  dur_ns : int;
  minor_words : float;
  major_gcs : int;
  cpu : float;
}

let explore_search ?(budget = verify_budget) s cfg =
  let g0 = Gc.quick_stat () and w0 = Gc.minor_words () in
  let c0 = cpu_s () in
  let t0 = now_ns () in
  let r =
    span "mcheck.explore" (fun () ->
        match
          E.explore ~max_nodes:budget ~domains:s.domains
            ~max_crashes:s.crashes ~max_aborts:s.aborts cfg
        with
        | r ->
            annotate [ ("search", J.String (label s)); ("nodes", J.Int r.E.nodes) ];
            Ok r
        | exception e -> Error (Printexc.to_string e))
  in
  let t1 = now_ns () in
  let c1 = cpu_s () in
  let g1 = Gc.quick_stat () and w1 = Gc.minor_words () in
  {
    s;
    r;
    dur_ns = t1 - t0;
    (* [Gc.minor_words] is exact but counts this domain only; the
       program-wide counter lags by at most one minor heap per domain *)
    minor_words =
      (if s.domains > 1 then g1.Gc.minor_words -. g0.Gc.minor_words else w1 -. w0);
    major_gcs = g1.Gc.major_collections - g0.Gc.major_collections;
    cpu = c1 -. c0;
  }

(* One operation per search: the verdict against the expectation, the
   violation witness replayed on a fresh configuration, and the exact
   counts at one domain. *)
let check_search x =
  let s = x.s in
  match x.r with
  | Error e -> op_fail ~wrong:false "%s raised %s" (label s) e
  | Ok r -> (
      let counts_ok = s.domains > 1 || check_counts (label s) r in
      if not counts_ok then op_fail ~wrong:true "%s: exact counts drifted" (label s)
      else
        match (s.expect, r.E.verified, r.E.violations) with
        | Exp_verified, true, _ -> op_ok ()
        | Exp_verified, false, _ :: _ ->
            op_fail ~wrong:true "%s: expected VERIFIED, found a violation"
              (label s)
        | Exp_refuted, true, _ ->
            op_fail ~wrong:true "%s: expected a violation, VERIFIED" (label s)
        | Exp_refuted, false, v :: _ ->
            if not (has_exclusion r) then
              op_fail ~wrong:true "%s: violation is not an exclusion" (label s)
            else if witness_reproduces (config_of s.lock s.n) v then op_ok ()
            else
              op_fail ~wrong:false "%s: witness does not replay to an exclusion"
                (label s)
        | _, false, [] -> op_partial ())

(* [wall_ns] sums the searches' call-to-verdict times; [rss_mb] is the
   largest search's peak resident memory *)
type pass = { setup_ns : int; wall_ns : int; rss_mb : float; results : sres list }

let verify_setup order = List.map (fun s -> (s, config_of s.lock s.n)) order

(* In an untraced run each search runs in its own process ([in_child]):
   its time and memory do not depend on which searches ran before it. A
   traced run keeps every pass in this process, for the spans, so its
   traced and untraced passes differ only in tracing. *)
let verify_pass rng searches =
  let order = shuffle rng searches in
  let t_entry = now_ns () in
  let built = span "bench.setup" (fun () -> verify_setup order) in
  let t_first = now_ns () in
  let runs =
    span "bench.pass" (fun () ->
        List.map
          (fun (s, cfg) ->
            next_op ();
            let run () = explore_search s cfg in
            if traced then (run (), nan) else in_child run)
          built)
  in
  let results = List.map fst runs in
  {
    setup_ns = t_first - t_entry;
    wall_ns = sumi (List.map (fun x -> x.dur_ns) results);
    rss_mb = List.fold_left (fun a (_, m) -> Float.max a m) 0.0 runs;
    results;
  }

(* ---------------------------------------------------------------- *)
(* Campaign workload                                                 *)

let grid_specs () =
  if !shrink then
    [
      "lock=ticket,mcs n=2";
      "lock=recoverable-tas-naive n=2 crashes=0-1";
      "lock=abortable-queue n=2 aborts=0,2";
    ]
  else
    [
      "lock=dekker,burns-lamport n=2";
      "lock=ticket,tas,mcs,clh,anderson,bakery,filter,tournament,fastpath n=2-3";
      "lock=recoverable-tas,recoverable-tas-naive n=2-3 crashes=0-2";
      "lock=abortable-tas,abortable-tas-buggy,abortable-queue n=2-3 aborts=0-2";
    ]

let bracket_specs () =
  if !shrink then
    [
      "max-exhaustive-n lock=mcs hi=3";
      "max-exhaustive-n lock=tournament hi=3";
      "min-n-fences lock=tournament k=2 lo=2 hi=5";
    ]
  else
    [
      "max-exhaustive-n lock=mcs";
      "max-exhaustive-n lock=tournament";
      "min-n-fences lock=tournament k=6 lo=2 hi=17";
    ]

(* Expected final verdicts. A budget-limited partial never contradicts
   an expectation: it is counted in [final_frac] instead.

   [`Unsettled]: abortable-queue at two aborts. The lock is modelled
   after a correct abortable lock, but the explorer reports an exclusion
   whose saved schedule replays without violation (likely because the
   lock keeps per-passage scratch outside the machine, which
   backtracking does not roll back). Either verdict is accepted; a
   reported violation must replay, so today these cells count as failed
   operations. *)
let expected_cell (c : Cell.t) =
  let e =
    match c.Cell.lock with
    | "recoverable-tas-naive" when c.Cell.max_crashes > 0 -> `Exclusion
    | "abortable-tas-buggy" when c.Cell.max_aborts > 0 -> `Exclusion
    | "abortable-queue" when c.Cell.max_aborts >= 2 -> `Unsettled
    | _ -> `Verified
  in
  if !plant_wrong && c.Cell.lock = "mcs" then `Exclusion else e

let shuffle_tokens rng spec =
  String.split_on_char ' ' spec |> List.filter (( <> ) "") |> shuffle rng
  |> String.concat " "

(* the goal name leads a bracket spec; only its fields are permuted *)
let shuffle_bracket rng spec =
  match String.split_on_char ' ' spec with
  | goal :: rest -> goal ^ " " ^ shuffle_tokens rng (String.concat " " rest)
  | [] -> spec

let ok_or_fail = function Ok x -> x | Error e -> failwith e

let probe_cell (spec : Driver.bracket_spec) x = { spec.Driver.base with Cell.n = x }

let campaign_setup rng path =
  let grid_texts = shuffle rng (List.map (shuffle_tokens rng) (grid_specs ())) in
  let bracket_texts =
    shuffle rng (List.map (shuffle_bracket rng) (bracket_specs ()))
  in
  let plan =
    span "campaign.plan" (fun () ->
        let grid =
          List.concat_map (fun t -> ok_or_fail (Driver.parse_grid t)) grid_texts
        in
        let brackets =
          List.map (fun t -> ok_or_fail (Driver.parse_bracket t)) bracket_texts
        in
        let sched = Driver.planned grid in
        List.iter Runner.resolve sched;
        List.iter
          (fun b ->
            Runner.resolve (probe_cell b b.Driver.lo);
            Runner.resolve (probe_cell b b.Driver.hi))
          brackets;
        { Driver.grid = sched; brackets })
  in
  let cache, _ =
    span "campaign.cache.open_file" (fun () -> Cache.open_file ~resume:false path)
  in
  (plan, cache)

type cpass = {
  c_setup_ns : int;
  c_wall_ns : int;
  cold : Driver.result;
  warm : Driver.result;
  cold_ns : int;
  warm_ns : int;
  warm_cache : Cache.t;
  path : string;
  cell_spans : (int * int * (string * J.t) list) list;
      (* executed campaign.cell spans: start/end ns and the driver's args *)
}

(* Subscribe to the [campaign.cell] spans the driver already emits
   through [~obs]; only in traced passes. *)
let cell_hub () =
  if not !tracing then (Obs.Telemetry.null, fun () -> [])
  else
    let sink, events = Obs.Sink.memory () in
    let base = now_ns () in
    let t0 = Unix.gettimeofday () in
    let clock () = int_of_float ((Unix.gettimeofday () -. t0) *. 1e6) in
    let hub = Obs.Telemetry.create ~clock ~sinks:[ sink ] () in
    let collect () =
      let rec pair acc = function
        | { Obs.Event.payload = Obs.Event.Span_begin ("campaign.cell", args); ts_us = a; _ }
          :: { Obs.Event.payload = Obs.Event.Span_end "campaign.cell"; ts_us = b; _ }
          :: rest ->
            pair ((base + (a * 1000), base + (b * 1000), args) :: acc) rest
        | _ :: rest -> pair acc rest
        | [] -> List.rev acc
      in
      pair [] (events ())
    in
    (hub, collect)

let campaign_pass rng ~path =
  let t_entry = now_ns () in
  let plan, cache = span "bench.setup" (fun () -> campaign_setup rng path) in
  let t_first = now_ns () in
  let hub, collect = cell_hub () in
  let cold, warm, warm_cache, cold_ns, warm_ns =
    span "bench.pass" (fun () ->
        next_op ();
        let t0 = now_ns () in
        let cold =
          span "campaign.driver.run" (fun () ->
              Driver.run ~jobs ~obs:hub ~cache plan)
        in
        Cache.close cache;
        let t1 = now_ns () in
        next_op ();
        let warm_cache, _ =
          span "campaign.cache.open_file" (fun () ->
              Cache.open_file ~resume:true path)
        in
        let warm =
          span "campaign.driver.run" (fun () ->
              Driver.run ~jobs ~cache:warm_cache plan)
        in
        let t2 = now_ns () in
        (cold, warm, warm_cache, t1 - t0, t2 - t1))
  in
  let t_last = now_ns () in
  let cell_spans = collect () in
  {
    c_setup_ns = t_first - t_entry;
    c_wall_ns = t_last - t_first;
    cold;
    warm;
    cold_ns;
    warm_ns;
    warm_cache;
    path;
    cell_spans;
  }

(* Re-run a violation cell's search to get its witness (campaign
   outcomes carry no schedules), then replay it on a fresh config. *)
let cell_witness_reproduces (c : Cell.t) (o : Cell.outcome) =
  let r =
    E.explore ~max_nodes:o.Cell.budget_nodes ~spin_fuel:6 ~por:c.Cell.por
      ~max_crashes:c.Cell.max_crashes ~max_aborts:c.Cell.max_aborts
      (cell_config c)
  in
  match r.E.violations with
  | v :: _ -> witness_reproduces (cell_config c) v
  | [] -> false

let check_cell (cr : Driver.cell_result) =
  let c = cr.Driver.cell and o = cr.Driver.outcome in
  let key = Cell.key c in
  match (expected_cell c, o.Cell.verdict) with
  | _, Cell.Partial _ -> op_partial ()
  | `Verified, Cell.Verified | `Unsettled, Cell.Verified -> op_ok ()
  | (`Exclusion | `Unsettled), Cell.Violation [ "exclusion" ] ->
      if cell_witness_reproduces c o then op_ok ()
      else op_fail ~wrong:false "%s: witness does not replay to an exclusion" key
  | _, v ->
      op_fail ~wrong:true "%s: verdict %s contradicts the expected table" key
        (Cell.verdict_to_string v)

(* A bracket answer must sit on a flip of its predicate, as the probed
   cells in the cache record it. *)
let check_bracket cache (b : Driver.bracket_result) =
  let spec = b.Driver.spec in
  let goal = Driver.goal_name spec.Driver.goal in
  let outcome x =
    Cache.find cache (Cell.key (probe_cell spec x))
    |> Option.map (fun o -> o.Cell.verdict)
  in
  let holds x =
    match (spec.Driver.goal, outcome x) with
    | Driver.Max_exhaustive_n, Some (Cell.Partial _) -> Some false
    | Driver.Max_exhaustive_n, Some _ -> Some true
    | Driver.Min_n_fences k, Some (Cell.Fences f) -> Some (f >= k)
    | _ -> None
  in
  match (spec.Driver.goal, b.Driver.answer) with
  | _, None -> op_fail ~wrong:true "%s: no answer" goal
  | Driver.Max_exhaustive_n, Some a ->
      if holds a = Some true && (a = spec.Driver.hi || holds (a + 1) = Some false)
      then op_ok ()
      else op_fail ~wrong:true "%s %s: answer %d is not a flip" goal
          (Cell.key spec.Driver.base) a
  | Driver.Min_n_fences _, Some a ->
      if holds a = Some true && (a = spec.Driver.lo || holds (a - 1) = Some false)
      then op_ok ()
      else op_fail ~wrong:true "%s: answer %d is not a flip" goal a
  | _, Some _ -> op_ok ()

let check_campaign p =
  List.iter check_cell p.cold.Driver.cells;
  List.iter (check_bracket p.warm_cache) p.cold.Driver.brackets;
  (* the warm resume: nothing executed, the same report, a valid one *)
  let cold_s = J.to_string (Driver.report_json p.cold)
  and warm_j = Driver.report_json p.warm in
  let warm_s = J.to_string warm_j in
  let valid =
    match J.parse warm_s with
    | Ok j -> Driver.validate_report j
    | Error e -> Error e
  in
  (match valid with
  | _ when p.warm.Driver.executed <> 0 ->
      op_fail ~wrong:true "warm resume executed %d cells" p.warm.Driver.executed
  | _ when cold_s <> warm_s ->
      op_fail ~wrong:true "warm report differs from the cold report"
  | Error e -> op_fail ~wrong:true "warm report does not validate: %s" e
  | Ok () -> op_ok ());
  Cache.close p.warm_cache;
  remove_file p.path

(* ---------------------------------------------------------------- *)
(* State sample: per-call costs of the layers' primitives            *)

(* [pairs] clock reads bracket [calls] calls taking [ns] in total *)
type acc = { mutable calls : int; mutable pairs : int; mutable ns : int }

let acc () = { calls = 0; pairs = 0; ns = 0 }
let prim_apply = acc ()
let prim_undo = acc ()
let prim_fp = acc ()
let prim_fault = acc ()
let prim_clone = acc ()
let prim_enabled = acc ()
let prim_footprint = acc ()

(* cost of reading the clock twice, subtracted from every timed call *)
let clock_overhead =
  lazy
    (let xs =
       List.init 2001 (fun _ ->
           let a = now_ns () in
           let b = now_ns () in
           float_of_int (b - a))
     in
     median xs)

let book a ~calls ns =
  a.calls <- a.calls + calls;
  a.pairs <- a.pairs + 1;
  a.ns <- a.ns + ns

let per_call a =
  if a.calls = 0 then nan
  else
    Float.max 0.0
      ((float_of_int a.ns -. (Lazy.force clock_overhead *. float_of_int a.pairs))
      /. float_of_int a.calls)

let is_fault = function E.Crash _ | E.Recover _ | E.Abort _ -> true | _ -> false

(* Seeded random walks from a search's initial state on a lean,
   journaling machine (as the explorer runs it). At each state: time
   [enabled_moves], [fingerprint_fast] (batched), [Footprint.of_move_into]
   with [independent] per enabled move (batched), a [Machine.clone] every
   eighth step, one [apply] + [Journal.undo_to] of a random move, and one
   fault move (crash / recover / abort, whether or not the search's
   budget offers it) applied and undone. *)
let sample_walks rng cfg ~crashes ~aborts ~walks ~max_depth =
  let cfg = { cfg with Config.record_trace = false } in
  let m = Machine.create cfg in
  Machine.set_lean m true;
  Machine.Journal.enable m;
  let root = Machine.Journal.mark m in
  let fa = Fp.make_scratch () and fb = Fp.make_scratch () in
  let fault_crashes = crashes + 1
  and fault_aborts =
    if cfg.Config.abort_section = None then 0 else aborts + 1
  in
  let timed_apply a mv =
    let mark = Machine.Journal.mark m in
    let t0 = now_ns () in
    let ok = match E.apply m mv with () -> true | exception _ -> false in
    let t1 = now_ns () in
    Machine.Journal.undo_to m mark;
    let t2 = now_ns () in
    book a ~calls:1 (t1 - t0);
    book prim_undo ~calls:1 (t2 - t1);
    ok
  in
  for _ = 1 to walks do
    Machine.Journal.undo_to m root;
    let rec walk depth =
      if depth < max_depth then begin
        let t0 = now_ns () in
        let moves = E.enabled_moves ~max_crashes:crashes ~max_aborts:aborts m in
        book prim_enabled ~calls:1 (now_ns () - t0);
        match moves with
        | [] -> ()
        | first :: _ ->
            let t0 = now_ns () in
            for _ = 1 to 256 do
              ignore (Sys.opaque_identity (Machine.fingerprint_fast m))
            done;
            book prim_fp ~calls:256 (now_ns () - t0);
            Fp.of_move_into fb m first;
            let k = List.length moves in
            let t0 = now_ns () in
            List.iter
              (fun mv ->
                Fp.of_move_into fa m mv;
                ignore (Sys.opaque_identity (Fp.independent fa fb)))
              moves;
            book prim_footprint ~calls:k (now_ns () - t0);
            if depth land 7 = 0 then begin
              let t0 = now_ns () in
              ignore (Sys.opaque_identity (Machine.clone m));
              book prim_clone ~calls:1 (now_ns () - t0)
            end;
            (match
               List.filter is_fault
                 (E.enabled_moves
                    ~max_crashes:(Machine.crashes_total m + fault_crashes)
                    ~max_aborts:
                      (if fault_aborts = 0 then 0
                       else Machine.aborts_total m + fault_aborts)
                    m)
             with
            | [] -> ()
            | faults ->
                let f = List.nth faults (Random.State.int rng (List.length faults)) in
                ignore (timed_apply prim_fault f));
            let mv = List.nth moves (Random.State.int rng k) in
            let prim = if is_fault mv then prim_fault else prim_apply in
            if timed_apply prim mv then
              match E.apply m mv with
              | () -> walk (depth + 1)
              | exception _ -> ()
      end
    in
    walk 0
  done;
  Machine.Journal.disable m

(* Exact store sized like the search (by its node budget), filled with
   as many seeded fingerprints as the search stored: mean ns per visit
   with one caller, and with two concurrent callers. *)
let fpstore_probe rng ~budget ~entries =
  let entries = max 1024 entries in
  let fps =
    Array.init entries (fun _ -> 1 + (Random.State.bits rng lsl 30) lxor Random.State.bits rng)
  in
  let visit st lo hi =
    let t0 = now_ns () in
    for i = lo to hi - 1 do
      ignore (Sys.opaque_identity (Mcheck.Fpstore.visit st ~fp:fps.(i) ~cover:(-1)))
    done;
    now_ns () - t0
  in
  let st = Mcheck.Fpstore.create ~mode:Config.Store_exact ~expected:budget in
  let one = visit st 0 entries in
  let load =
    float_of_int (Mcheck.Fpstore.entries st)
    /. float_of_int (Mcheck.Fpstore.capacity st)
  in
  let st2 = Mcheck.Fpstore.create ~mode:Config.Store_exact ~expected:budget in
  let half = entries / 2 in
  let d = Domain.spawn (fun () -> visit st2 half entries) in
  let mine = visit st2 0 half in
  let theirs = Domain.join d in
  ( float_of_int one /. float_of_int entries,
    float_of_int (mine + theirs) /. float_of_int entries,
    load )

(* ---------------------------------------------------------------- *)
(* Output                                                            *)

let metrics : (string * float * string) list ref = ref []
let metric name unit v = metrics := (name, v, unit) :: !metrics

let start_load = ref nan

let env_stamp () =
  J.Obj
    [
      ("nproc", J.Int (Domain.recommended_domain_count ()));
      ("ocaml", J.String Sys.ocaml_version);
      ("loadavg_1m_at_start", J.Float !start_load);
      ("commit", J.String !source_digest);
      ("workload", J.String !workload);
      ("seed", J.Int !seed);
      ("seconds", J.Float !seconds);
      ("trace", J.Int !trace);
    ]

let finish () =
  let mj =
    List.rev_map
      (fun (name, v, unit) ->
        (name, J.Obj [ ("value", J.Float v); ("unit", J.String unit) ]))
      !metrics
  in
  Printf.printf "env %s\n" (J.to_string (env_stamp ()));
  if traced then begin
    let file =
      Filename.concat !out_dir
        (Printf.sprintf "spans-%s-seed%d.json" !workload !seed)
    in
    write_file file
      (J.to_string
         (J.Obj
            [
              ("env", env_stamp ());
              ("spans", J.List (List.rev_map span_json !spans));
            ]));
    Printf.printf "spans: %d written to %s\n" (List.length !spans) file
  end;
  save_counts ();
  Printf.printf "%s\n%!"
    (J.to_string
       (J.Obj
          [
            ("correct", J.Bool !correct);
            ("attempted", J.Int !attempted);
            ("failed", J.Int !failed);
            ("metrics", J.Obj mj);
          ]))

(* ---------------------------------------------------------------- *)
(* Per-layer metrics shared by every workload                        *)

let layer_metrics_of_prims () =
  metric "tsim.apply_ns" "ns" (per_call prim_apply);
  metric "tsim.undo_ns" "ns" (per_call prim_undo);
  metric "tsim.fingerprint_ns" "ns" (per_call prim_fp);
  metric "tsim.fault_apply_ns" "ns" (per_call prim_fault);
  metric "tsim.clone_ns" "ns" (per_call prim_clone);
  metric "mcheck.enabled_moves_ns" "ns" (per_call prim_enabled);
  metric "mcheck.footprint_ns" "ns" (per_call prim_footprint)

let ok_results xs =
  List.filter_map (fun x -> match x.r with Ok r -> Some (x, r) | Error _ -> None) xs

(* Search-internal tallies summed over a set of explore calls, and the
   per-node time left once the sampled primitive costs are multiplied by
   their calls per node: the seen-store probe and DFS bookkeeping. *)
let explore_metrics ~timed ~counted =
  let rs = ok_results counted in
  let fsum f = float_of_int (sumi (List.map (fun (_, r) -> f r) rs)) in
  let st f = fsum (fun r -> f r.E.stats) in
  let nodes = fsum (fun r -> r.E.nodes) in
  let dedup = st (fun s -> s.E.dedup_hits)
  and fused = st (fun s -> s.E.ample_fused)
  and prunes = st (fun s -> s.E.sleep_prunes)
  and faults = st (fun s -> s.E.crashes_applied + s.E.aborts_applied) in
  let seen = st (fun s -> s.E.seen_entries) in
  let timed_ok = ok_results timed in
  let tnodes = float_of_int (sumi (List.map (fun (_, r) -> r.E.nodes) timed_ok)) in
  let ns_per_node =
    ratio (float_of_int (sumi (List.map (fun (x, _) -> x.dur_ns) timed_ok))) tnodes
  in
  metric "mcheck.explore.nodes" "count" nodes;
  metric "mcheck.explore.ns_per_node" "ns" ns_per_node;
  metric "mcheck.explore.minor_words_per_node" "words"
    (ratio (sum (List.map (fun (x, _) -> x.minor_words) timed_ok)) tnodes);
  metric "mcheck.explore.major_gcs" "count"
    (float_of_int (sumi (List.map (fun (x, _) -> x.major_gcs) rs)));
  metric "mcheck.seen_entries" "count" seen;
  metric "mcheck.sleep_prunes_per_node" "count" (ratio prunes nodes);
  metric "mcheck.ample_fused_per_node" "count" (ratio fused nodes);
  metric "mcheck.dedup_hit_ratio" "ratio" (ratio dedup (nodes +. dedup));
  metric "mcheck.new_state_ratio" "ratio" (ratio seen nodes);
  metric "tsim.undo_records_per_node" "count"
    (ratio (st (fun s -> s.E.undo_records)) nodes);
  metric "tsim.journal_peak" "count"
    (float_of_int
       (List.fold_left (fun a (_, r) -> max a r.E.stats.E.journal_peak) 0 rs));
  (* calls per node of each sampled primitive, from the DFS shape: one
     enabled-moves call per node and per fused chain step, one apply per
     child visit and fused step, one undo and one fingerprint per child
     visit, one footprint per enabled move considered *)
  let per x = ratio x nodes in
  let visits = nodes +. dedup in
  let attributed =
    (per_call prim_enabled *. per (nodes +. fused))
    +. (per_call prim_apply *. per (visits +. fused -. faults))
    +. (per_call prim_fault *. per faults)
    +. (per_call prim_undo *. per visits)
    +. (per_call prim_fp *. per visits)
    +. (per_call prim_footprint *. per (visits +. fused +. prunes))
  in
  let unattributed = ns_per_node -. attributed in
  metric "mcheck.explore.unattributed_ns_per_node" "ns" unattributed;
  metric "mcheck.explore.unattributed_share" "ratio" (ratio unattributed ns_per_node)

let parallel_metrics ~d2 ~d1 ~budget =
  let d2r = ok_results d2 and d1r = ok_results d1 in
  let st f = sumi (List.map (fun (_, r) -> f r.E.stats) d2r) in
  let nodes rs = float_of_int (sumi (List.map (fun (_, r) -> r.E.nodes) rs)) in
  let imb =
    List.fold_left
      (fun a (_, r) ->
        match r.E.stats.E.domain_nodes with
        | [] | [ _ ] -> a
        | ns ->
            let mx = List.fold_left max 0 ns in
            let mean = float_of_int (sumi ns) /. float_of_int (List.length ns) in
            Float.max a (ratio (float_of_int mx) mean))
      1.0 d2r
  in
  metric "mcheck.parallel.steals" "count" (float_of_int (st (fun s -> s.E.steals)));
  (* idle time of early-finishing domains, as a share of domain time *)
  metric "mcheck.parallel.merge_stall_frac" "ratio"
    (ratio
       (float_of_int (st (fun s -> s.E.merge_stall_us)) *. 1e-6)
       (sum
          (List.map
             (fun (x, r) -> secs_of_ns x.dur_ns *. float_of_int r.E.stats.E.domains_used)
             d2r)));
  metric "mcheck.parallel.imbalance" "ratio" imb;
  metric "mcheck.parallel.node_inflation" "ratio" (ratio (nodes d2r) (nodes d1r));
  metric "mcheck.parallel.cpu_per_wall" "ratio"
    (ratio
       (sum (List.map (fun (x, _) -> x.cpu) d2r))
       (secs_of_ns (sumi (List.map (fun (x, _) -> x.dur_ns) d2r))));
  metric "mcheck.fpstore.drops" "count" (float_of_int (st (fun s -> s.E.store_drops)));
  let entries =
    List.fold_left (fun a (_, r) -> max a r.E.stats.E.seen_entries) 0 d2r
  in
  let rng = Random.State.make [| !seed; 17 |] in
  let one, two, load =
    span "mcheck.fpstore.probe" (fun () -> fpstore_probe rng ~budget ~entries)
  in
  metric "mcheck.fpstore.visit_ns" "ns" one;
  metric "mcheck.fpstore.visit_ns.d2" "ns" two;
  metric "mcheck.fpstore.load" "ratio" load

let fixed_us xs =
  let small =
    List.filter_map
      (fun x ->
        match x.r with
        | Ok r when r.E.nodes < 1000 -> Some (float_of_int x.dur_ns /. 1000.0)
        | _ -> None)
      xs
  in
  metric "mcheck.explore.fixed_us" "us" (median small)

(* ms of the spans with this name, median *)
let span_ms name =
  median (List.map (fun s -> float_of_int (span_ns s) /. 1e6) (spans_named name))

(* Escalation ladder the driver runs verify cells on: a slice of the cap,
   then x4 rungs. Nodes spent on rungs below the one that settled a cell
   are superseded work. *)
let superseded_nodes (o : Cell.outcome) =
  let r0 = min campaign_cap (max 4096 (campaign_cap / 64)) in
  let rec go rung acc =
    if rung >= o.Cell.budget_nodes then acc else go (min campaign_cap (rung * 4)) (acc + rung)
  in
  go r0 0

let escalation_metric outcomes =
  let sup = sumi (List.map superseded_nodes outcomes)
  and final = sumi (List.map (fun o -> o.Cell.nodes) outcomes) in
  metric "campaign.escalation_overhead" "ratio"
    (ratio (float_of_int sup) (float_of_int (sup + final)))

let bracket_answer (res : Driver.result) lock =
  List.fold_left
    (fun a (b : Driver.bracket_result) ->
      if
        b.Driver.spec.Driver.goal = Driver.Max_exhaustive_n
        && b.Driver.spec.Driver.base.Cell.lock = lock
      then Option.value b.Driver.answer ~default:0
      else a)
    0 res.Driver.brackets

(* times the Section 4 construction on each cell; [fences] picks the
   reported fence count from the (cell, outcome) pairs *)
let adversary_metrics cells ~fences =
  let runs =
    List.map
      (fun c ->
        let t0 = now_ns () in
        let o =
          span "adversary.runner.run" (fun () ->
              Runner.run ~budget_nodes:campaign_cap c)
        in
        ((c, o), float_of_int (now_ns () - t0) /. 1e6))
      cells
  in
  metric "adversary.construction_ms" "ms" (median (List.map snd runs));
  metric "adversary.fences_at_answer" "count"
    (float_of_int (fences (List.map fst runs)))

let fences_of (o : Cell.outcome) =
  match o.Cell.verdict with Cell.Fences f -> f | _ -> 0

let cache_add_metric cache outcomes =
  let times =
    List.map
      (fun (key, o) ->
        let t0 = now_ns () in
        span "campaign.cache.add" (fun () -> Cache.add cache key o);
        float_of_int (now_ns () - t0) /. 1e3)
      outcomes
  in
  metric "campaign.cache.add_us" "us" (median times)

let outcome_of_result budget (r : E.result) =
  let verdict =
    if r.E.verified then Cell.Verified
    else if r.E.violations <> [] then Cell.Violation [ "exclusion" ]
    else Cell.Partial "nodes"
  in
  { Cell.verdict; nodes = r.E.nodes; max_depth = r.E.max_depth; budget_nodes = budget }

let max_exhaustive_brackets () =
  List.filter_map
    (fun t ->
      match Driver.parse_bracket t with
      | Ok b when b.Driver.goal = Driver.Max_exhaustive_n -> Some b
      | _ -> None)
    (bracket_specs ())

(* ---------------------------------------------------------------- *)
(* Workload runs                                                     *)

(* Passes until the measuring time is used up (at least two, one
   untraced and one traced): another pass starts only if half of a
   typical pass still fits. *)
let repeat f =
  let stop = now_ns () + int_of_float (!seconds *. 1e9) in
  let rec go i acc durs =
    let typical = if durs = [] then 0.0 else median durs in
    if i >= 2 && float_of_int (now_ns ()) +. (typical /. 2.0) >= float_of_int stop
    then List.rev acc
    else
      let t0 = now_ns () in
      let x = f i in
      go (i + 1) (x :: acc) (float_of_int (now_ns () - t0) :: durs)
  in
  go 0 [] []

let setup_reps = if !shrink then 5 else 200

let run_verify () =
  let rng = Random.State.make [| !seed |] in
  let searches = verify_searches () in
  let searches =
    if !plant_wrong then plant (List.hd searches) :: List.tl searches
    else searches
  in
  let pre_setups =
    List.init setup_reps (fun _ ->
        let order = shuffle rng searches in
        let t0 = now_ns () in
        ignore (Sys.opaque_identity (verify_setup order));
        float_of_int (now_ns () - t0))
  in
  let run_pass traced_pass =
    tracing := traced_pass;
    let p = verify_pass rng searches in
    tracing := false;
    List.iter check_search p.results;
    Printf.printf "pass: wall %.4f s, setup %.1f us, peak rss %.1f MB\n%!"
      (secs_of_ns p.wall_ns) (float_of_int p.setup_ns /. 1e3) p.rss_mb;
    p
  in
  if not traced then begin
    let p = run_pass false in
    metric "wall_s" "s" (secs_of_ns p.wall_ns);
    metric "setup_s" "s" (median (float_of_int p.setup_ns :: pre_setups) *. 1e-9);
    metric "peak_rss_mb" "MB" p.rss_mb
  end
  else begin
    (* alternate untraced and traced passes: the difference of their
       medians is the tracing overhead *)
    let passes = repeat (fun i -> (i land 1 = 1, run_pass (i land 1 = 1))) in
    let plain = List.filter_map (fun (t, p) -> if t then None else Some p) passes
    and tp = List.filter_map (fun (t, p) -> if t then Some p else None) passes in
    let walls ps = median (List.map (fun p -> secs_of_ns p.wall_ns) ps) in
    let last = List.nth tp (List.length tp - 1) in
    tracing := true;
    let traced_results = List.concat_map (fun p -> p.results) tp in
    (* companion runs at the other domain count *)
    let other =
      List.map
        (fun s ->
          let s' = { s with domains = (if s.domains = 1 then 2 else 1) } in
          explore_search s' (config_of s.lock s.n))
        searches
    in
    let at d = List.filter (fun x -> x.s.domains = d) (last.results @ other) in
    let d2 = at 2 and d1 = at 1 in
    (* fixed per-call cost: the workload's locks at n=2 *)
    let small =
      List.concat_map
        (fun s ->
          let s2 = { s with n = 2; domains = 1 } in
          List.init 5 (fun _ -> explore_search s2 (config_of s.lock 2)))
        searches
    in
    let srng = Random.State.make [| !seed; 3 |] in
    span "bench.state_sample" (fun () ->
        List.iter
          (fun s ->
            sample_walks srng (config_of s.lock s.n) ~crashes:s.crashes
              ~aborts:s.aborts ~walks:(if !shrink then 20 else 150) ~max_depth:400)
          searches);
    layer_metrics_of_prims ();
    explore_metrics ~timed:traced_results ~counted:last.results;
    fixed_us (traced_results @ small);
    parallel_metrics ~d2 ~d1 ~budget:verify_budget;
    (* the campaign layer on this workload's searches: plan them, record
       their outcomes in a fresh cache, serve them back warm *)
    let texts =
      List.map
        (fun s ->
          Printf.sprintf "lock=%s n=%d crashes=%d aborts=%d" s.lock s.n s.crashes
            s.aborts)
        searches
    in
    let t0 = now_ns () in
    let cells =
      span "campaign.plan" (fun () ->
          let cells = List.concat_map (fun t -> ok_or_fail (Driver.parse_grid t)) texts in
          let cells = Driver.planned cells in
          List.iter Runner.resolve cells;
          cells)
    in
    metric "campaign.plan_ms" "ms" (float_of_int (now_ns () - t0) /. 1e6);
    let path = Filename.concat !out_dir (Printf.sprintf "companion-%d.ndjson" (Unix.getpid ())) in
    let t0 = now_ns () in
    let cache, _ =
      span "campaign.cache.open_file" (fun () -> Cache.open_file ~resume:false path)
    in
    metric "campaign.cache.open_ms" "ms" (float_of_int (now_ns () - t0) /. 1e6);
    let outcomes =
      List.filter_map
        (fun x ->
          match x.r with
          | Ok r ->
              Some
                ( Cell.key
                    (Cell.make ~max_crashes:x.s.crashes ~max_aborts:x.s.aborts
                       ~lock:x.s.lock ~n:x.s.n ()),
                  outcome_of_result verify_budget r )
          | Error _ -> None)
        last.results
    in
    cache_add_metric cache outcomes;
    let t0 = now_ns () in
    let warm =
      span "campaign.driver.run" (fun () ->
          Driver.run ~jobs:1 ~cache { Driver.grid = cells; brackets = [] })
    in
    metric "campaign.warm_ms" "ms" (float_of_int (now_ns () - t0) /. 1e6);
    Cache.close cache;
    remove_file path;
    metric "campaign.cells_executed" "count" (float_of_int warm.Driver.executed);
    metric "campaign.cache_hits" "count" (float_of_int warm.Driver.hits);
    let cell_ms = List.map (fun x -> float_of_int x.dur_ns /. 1e6) last.results in
    metric "campaign.cell_ms.p50" "ms" (quantile 0.5 cell_ms);
    metric "campaign.cell_ms.p80" "ms" (quantile 0.8 cell_ms);
    metric "campaign.busy_frac" "ratio"
      (ratio (sum cell_ms) (secs_of_ns last.wall_ns *. 1e3));
    (* the headline brackets, against an in-memory cache *)
    let bcache = Cache.in_memory () in
    let br =
      span "campaign.driver.run" (fun () ->
          Driver.run ~jobs:1 ~cache:bcache
            { Driver.grid = []; brackets = max_exhaustive_brackets () })
    in
    metric "campaign.bracket.probes" "count"
      (float_of_int (sumi (List.map (fun b -> b.Driver.evals) br.Driver.brackets)));
    escalation_metric
      (List.concat_map
         (fun (b : Driver.bracket_result) ->
           List.filter_map
             (fun (x, _) -> Cache.find bcache (Cell.key (probe_cell b.Driver.spec x)))
             b.Driver.probed)
         br.Driver.brackets);
    metric "campaign.max_exhaustive_n.mcs" "n" (float_of_int (bracket_answer br "mcs"));
    metric "campaign.max_exhaustive_n.tournament" "n"
      (float_of_int (bracket_answer br "tournament"));
    metric "locks.config_us" "us" (span_ms "locks.config_of_lock" *. 1e3);
    (* the Section 4 construction against this workload's locks *)
    let adv =
      List.sort_uniq compare (List.map (fun s -> (s.lock, s.n)) searches)
      |> List.map (fun (lock, n) -> Cell.make ~kind:Cell.Adversary ~lock ~n ())
    in
    adversary_metrics adv ~fences:(fun runs ->
        List.fold_left (fun a (_, o) -> max a (fences_of o)) 0 runs);
    metric "bench.trace_overhead_s" "s" (walls tp -. walls plain);
    Printf.printf "passes: %d untraced, %d traced\n" (List.length plain) (List.length tp)
  end

let run_campaign () =
  let rng = Random.State.make [| !seed |] in
  let path = Filename.concat !out_dir (Printf.sprintf "campaign-%d.ndjson" (Unix.getpid ())) in
  let pre_setups =
    List.init (if !shrink then 2 else 10) (fun _ ->
        let t0 = now_ns () in
        let _, cache = campaign_setup rng path in
        let t1 = now_ns () in
        Cache.close cache;
        remove_file path;
        float_of_int (t1 - t0))
  in
  let run_pass traced_pass =
    tracing := traced_pass;
    let p = campaign_pass rng ~path in
    tracing := false;
    Printf.printf "pass: wall %.4f s (cold %.4f, warm %.4f), setup %.1f us\n%!"
      (secs_of_ns p.c_wall_ns) (secs_of_ns p.cold_ns) (secs_of_ns p.warm_ns)
      (float_of_int p.c_setup_ns /. 1e3);
    p
  in
  if not traced then begin
    let p = run_pass false in
    check_campaign p;
    metric "wall_s" "s" (secs_of_ns p.c_wall_ns);
    metric "setup_s" "s" (median (float_of_int p.c_setup_ns :: pre_setups) *. 1e-9);
    metric "peak_rss_mb" "MB" (peak_rss_mb ())
  end
  else begin
    let last = ref None in
    let passes =
      repeat (fun i ->
          let t = i land 1 = 1 in
          let p = run_pass t in
          if t then begin
            (* read what the checks need before they close the cache *)
            let probes =
              List.concat_map
                (fun (b : Driver.bracket_result) ->
                  List.filter_map
                    (fun (x, _) ->
                      let c = probe_cell b.Driver.spec x in
                      Option.map (fun o -> (c, o)) (Cache.find p.warm_cache (Cell.key c)))
                    b.Driver.probed)
                p.cold.Driver.brackets
            in
            last := Some (p, probes)
          end;
          check_campaign p;
          (t, p))
    in
    let plain = List.filter_map (fun (t, p) -> if t then None else Some p) passes
    and tp = List.filter_map (fun (t, p) -> if t then Some p else None) passes in
    let walls ps = median (List.map (fun p -> secs_of_ns p.c_wall_ns) ps) in
    let p, probes = Option.get !last in
    tracing := true;
    (* the driver's own per-cell spans, under its run span *)
    List.iter
      (fun (a, b, args) -> add_span ~args ~parent:"campaign.driver.run" "campaign.cell" a b)
      p.cell_spans;
    let cell_ms =
      List.map (fun (a, b, _) -> float_of_int (b - a) /. 1e6) p.cell_spans
    in
    metric "campaign.cells_executed" "count" (float_of_int p.cold.Driver.executed);
    metric "campaign.cache_hits" "count" (float_of_int p.warm.Driver.hits);
    metric "campaign.bracket.probes" "count"
      (float_of_int (sumi (List.map (fun b -> b.Driver.evals) p.cold.Driver.brackets)));
    metric "campaign.cell_ms.p50" "ms" (quantile 0.5 cell_ms);
    metric "campaign.cell_ms.p80" "ms" (quantile 0.8 cell_ms);
    metric "campaign.busy_frac" "ratio"
      (ratio (sum cell_ms) (float_of_int jobs *. float_of_int p.cold_ns /. 1e6));
    metric "campaign.warm_ms" "ms" (median (List.map (fun p -> float_of_int p.warm_ns /. 1e6) tp));
    metric "campaign.plan_ms" "ms" (span_ms "campaign.plan");
    metric "campaign.cache.open_ms" "ms" (span_ms "campaign.cache.open_file");
    metric "campaign.max_exhaustive_n.mcs" "n" (float_of_int (bracket_answer p.cold "mcs"));
    metric "campaign.max_exhaustive_n.tournament" "n"
      (float_of_int (bracket_answer p.cold "tournament"));
    let executed_outcomes =
      List.filter_map
        (fun (cr : Driver.cell_result) ->
          if cr.Driver.from_cache then None else Some cr.Driver.outcome)
        p.cold.Driver.cells
      @ List.filter_map
          (fun ((c : Cell.t), o) -> if c.Cell.kind = Cell.Verify then Some o else None)
          probes
    in
    escalation_metric executed_outcomes;
    (let cache, _ =
       span "campaign.cache.open_file" (fun () -> Cache.open_file ~resume:false path)
     in
     cache_add_metric cache
       (List.map
          (fun (cr : Driver.cell_result) -> (Cell.key cr.Driver.cell, cr.Driver.outcome))
          p.cold.Driver.cells);
     Cache.close cache;
     remove_file path);
    (* the adversary probes of the fence bracket, re-run directly *)
    let adv = List.filter (fun ((c : Cell.t), _) -> c.Cell.kind = Cell.Adversary) probes in
    let answer =
      List.find_map
        (fun (b : Driver.bracket_result) ->
          match b.Driver.spec.Driver.goal with
          | Driver.Min_n_fences _ -> b.Driver.answer
          | _ -> None)
        p.cold.Driver.brackets
    in
    adversary_metrics (List.map fst adv) ~fences:(fun runs ->
        match List.find_opt (fun ((c : Cell.t), _) -> Some c.Cell.n = answer) runs with
        | Some (_, o) -> fences_of o
        | None -> 0);
    (* the explorer on every grid cell, called directly at the cap *)
    let grid = List.map (fun (cr : Driver.cell_result) -> cr.Driver.cell) p.cold.Driver.cells in
    let as_search (c : Cell.t) =
      mk c.Cell.lock c.Cell.n ~crashes:c.Cell.max_crashes ~aborts:c.Cell.max_aborts
    in
    let direct =
      List.map
        (fun c ->
          next_op ();
          explore_search ~budget:campaign_cap (as_search c) (cell_config c))
        grid
    in
    let srng = Random.State.make [| !seed; 3 |] in
    let top_n = List.fold_left (fun a (c : Cell.t) -> max a c.Cell.n) 0 grid in
    span "bench.state_sample" (fun () ->
        List.iter
          (fun (c : Cell.t) ->
            if c.Cell.n = top_n then
              sample_walks srng (cell_config c) ~crashes:c.Cell.max_crashes
                ~aborts:c.Cell.max_aborts ~walks:(if !shrink then 5 else 20) ~max_depth:400)
          grid);
    layer_metrics_of_prims ();
    explore_metrics ~timed:direct ~counted:direct;
    fixed_us direct;
    metric "locks.config_us" "us" (span_ms "locks.config_of_lock" *. 1e3);
    (* the parallel explorer on the headline answer cells *)
    let heads =
      List.filter_map
        (fun lock ->
          match bracket_answer p.cold lock with
          | 0 -> None
          | n -> Some (mk lock n))
        [ "mcs"; "tournament" ]
    in
    let run_at d =
      List.map
        (fun s ->
          let s = { s with domains = d } in
          explore_search ~budget:campaign_cap s (config_of s.lock s.n))
        heads
    in
    let d1 = run_at 1 in
    let d2 = run_at 2 in
    parallel_metrics ~d2 ~d1 ~budget:campaign_cap;
    metric "bench.trace_overhead_s" "s" (walls tp -. walls plain);
    Printf.printf "passes: %d untraced, %d traced\n" (List.length plain) (List.length tp)
  end

let () =
  if not (List.mem !workload workloads) then begin
    Printf.eprintf "unknown workload %S; one of: %s\n" !workload
      (String.concat ", " workloads);
    exit 2
  end;
  (try Unix.mkdir !out_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  start_load := loadavg ();
  load_counts ();
  if !workload = "campaign-grid" then run_campaign () else run_verify ();
  let ok_frac = ratio (float_of_int (!attempted - !failed)) (float_of_int !attempted)
  and final_frac =
    ratio (float_of_int (!attempted - !partials)) (float_of_int !attempted)
  in
  if not traced then begin
    metric "ok_frac" "ratio" ok_frac;
    metric "final_frac" "ratio" final_frac
  end;
  Printf.printf "operations: %d attempted, %d failed, %d partial\n" !attempted
    !failed !partials;
  finish ()
