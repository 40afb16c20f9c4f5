(* Compile-ahead execution of process programs.

   The free-monad front-end (Prog) is a pleasant authoring surface but an
   expensive execution one: [bind] rewraps every continuation in a fresh
   closure, so each simulated event allocates, and the state fingerprint
   has to structurally hash the live continuation ([Hashtbl.hash_param])
   on every step. This module lowers each process's program into a flat
   instruction array *by interning continuations*:

   - an instruction is one reachable continuation value, identified by a
     program counter (its index). [rep] keeps the original monadic value,
     so the machine's pending/footprint/step logic needs no second
     instruction language and crash/recovery lowering is just "which pc
     is the root"; [key] caches its structural hash, which is what makes
     compiled fingerprints bit-identical to the interpreter's;
   - control-flow edges are resolved at most once: unit-result operations
     (write, fence) and the two CAS branches live in single atomic edge
     slots closed eagerly at compile time; value-result operations
     (read, FAA, swap) memoize observed [value -> pc] pairs on demand in
     small immutable fan-out tables;
   - interning is keyed on [Marshal] bytes (with [Closures]), an exact
     structural memo: equal bytes means structurally identical
     continuations, so following an edge is guaranteed to land on a
     continuation the interpreter would have built afresh.

   Degradation contract: compilation never makes a runnable program fail
   at run time. If an edge cannot be resolved (code-store budget, a
   continuation capturing an unmarshalable value, fan-out overflow) the
   machine simply parks that process back on the interpreter path
   ([pc = -1]) until the next section root; fingerprints stay exact
   because [key] equals the structural hash the interpreter would use.
   Typed {!Error} failures are raised at compile time only, for programs
   that are wrong ahead of execution: section roots that exceed the
   instruction budget (an unbounded non-repeating operation chain — the
   moral equivalent of an unresolvable branch target) or roots that are
   opaque to structural interning (register frames we cannot capture). *)

type error =
  | Program_too_large of { pid : Ids.Pid.t; limit : int }
      (* interning a section root overflowed the instruction budget: the
         program unrolls into unboundedly many distinct continuations *)
  | Opaque_continuation of { pid : Ids.Pid.t; reason : string }
      (* a section root captures values Marshal cannot serialize, so its
         continuations cannot be interned (e.g. a channel or mutex in the
         register frame) *)

exception Error of error

let error_to_string = function
  | Program_too_large { pid; limit } ->
      Printf.sprintf
        "Compile: program of process %d exceeds the instruction budget (%d)"
        pid limit
  | Opaque_continuation { pid; reason } ->
      Printf.sprintf "Compile: process %d has an opaque continuation (%s)"
        pid reason

(* Structural hash of a continuation, shared with the interpreter path
   (Machine). [Hashtbl.hash] stops after 10 meaningful nodes, which
   conflates deep spin states; raise both traversal bounds so distinct
   continuation shapes (spin fuels, loop indices, captured reads) hash
   apart. The runtime hashes a closure's environment and skips its code
   pointers, so structurally equal continuations hash equal no matter
   where they were built. *)
let hash_cont (c : unit Prog.t) = Hashtbl.hash_param 128 256 c

(* The canonical continuation of a recovering process: recovery section,
   then the regular entry section. Lives here — used both by the
   compiler (root interning) and by the machine's interpreter path — so
   the two build the *same* closure and fingerprints agree across
   step paths. Captures only immutable data: closing over the machine would
   make the structural hash depend on mutable state. *)
let recovery_cont (cfg : Config.t) pid =
  match cfg.Config.recovery with
  | Some r ->
      let entry = cfg.Config.entry in
      Prog.bind (r pid) (fun () -> entry pid)
  | None -> cfg.Config.entry pid

(* The canonical continuation of an aborted process: its cleanup section,
   alone — reaching [Return ()] is the abort-done transition back to NCS.
   Same path-agreement contract as [recovery_cont]: both the compiler
   and the machine's interpreter path must build the closure here.
   Calling it without an abort section is a programming error; the
   machine refuses to abort such processes. *)
let abort_cont (cfg : Config.t) pid =
  match cfg.Config.abort_section with
  | Some a -> a pid
  | None -> invalid_arg "Compile.abort_cont: configuration is not abortable"

type instr = {
  rep : unit Prog.t;  (* the interned continuation itself *)
  key : int;  (* cached [hash_cont rep] *)
  next_u : int Atomic.t;  (* unit-result edge (write, fence); -1 unresolved *)
  next_t : int Atomic.t;  (* CAS success edge *)
  next_f : int Atomic.t;  (* CAS failure edge *)
  vals : int array Atomic.t;
      (* value-result fan-out: immutable [v0; pc0; v1; pc1; ...] pairs,
         replaced copy-on-append under [lock] *)
}

type t = {
  lock : Mutex.t;  (* guards tbl / count / growth / edge publication *)
  tbl : (string, int) Hashtbl.t;  (* Marshal bytes -> pc *)
  instrs : instr array Atomic.t;
      (* copy-on-grow; a pc read from an atomic edge or root is always a
         valid index of the array fetched after it (publication order:
         slot write, then array swap if grown, then edge store) *)
  mutable count : int;
  max_instrs : int;
  max_fanout : int;
  entry_pc : int array;  (* per-pid section roots; -1 = interpreter *)
  exit_pc : int array;
  recover_pc : int array;
  abort_pc : int array;
  unit_pc : int;  (* pc of [Return ()]: interned first, always 0 *)
}

let dummy_instr =
  {
    rep = Prog.unit;
    key = 0;
    next_u = Atomic.make (-1);
    next_t = Atomic.make (-1);
    next_f = Atomic.make (-1);
    vals = Atomic.make [||];
  }

exception Full

(* Intern a continuation; caller holds [lock] (or has exclusive access
   during [make]). Raises [Full] past the budget and lets Marshal's
   [Failure]/[Invalid_argument] escape for the caller to classify. *)
let intern_locked c (cont : unit Prog.t) =
  let bytes = Marshal.to_string cont [ Marshal.Closures ] in
  match Hashtbl.find_opt c.tbl bytes with
  | Some pc -> pc
  | None ->
      if c.count >= c.max_instrs then raise Full;
      let pc = c.count in
      let a = Atomic.get c.instrs in
      let a =
        if pc >= Array.length a then begin
          let b = Array.make (max 64 (2 * Array.length a)) dummy_instr in
          Array.blit a 0 b 0 (Array.length a);
          Atomic.set c.instrs b;
          b
        end
        else a
      in
      a.(pc) <-
        {
          rep = cont;
          key = hash_cont cont;
          next_u = Atomic.make (-1);
          next_t = Atomic.make (-1);
          next_f = Atomic.make (-1);
          vals = Atomic.make [||];
        };
      c.count <- pc + 1;
      Hashtbl.replace c.tbl bytes pc;
      pc

let[@inline] instr_at c pc = (Atomic.get c.instrs).(pc)
let[@inline] rep c pc = (instr_at c pc).rep
let[@inline] key c pc = (instr_at c pc).key
let unit_pc c = c.unit_pc
let entry_pc c pid = c.entry_pc.(pid)
let exit_pc c pid = c.exit_pc.(pid)
let recover_pc c pid = c.recover_pc.(pid)
let abort_pc c pid = c.abort_pc.(pid)
let size c = c.count

let with_lock c f =
  Mutex.lock c.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock c.lock) f

(* Slow path of the advance functions: intern [cont] and publish it on
   [edge]. Returns -1 on budget/marshal failure — the caller parks the
   process on the interpreter path; never raises for those, so a running
   search cannot die on an exotic continuation. *)
let close_edge c (edge : int Atomic.t) cont =
  with_lock c (fun () ->
      let n = Atomic.get edge in
      if n >= 0 then n
      else
        match intern_locked c cont with
        | pc ->
            Atomic.set edge pc;
            pc
        | exception Full -> -1
        | exception Failure _ | exception Invalid_argument _ -> -1)

(* Advance across a unit-result operation. [k] is only applied on a cache
   miss; exceptions it raises (Prog.Spin_exhausted) propagate so raise
   timing matches the interpreter exactly. Returns the next pc, or -1
   when the edge cannot be compiled. *)
let advance_unit c pc (k : unit -> unit Prog.t) =
  let i = instr_at c pc in
  let n = Atomic.get i.next_u in
  if n >= 0 then n else close_edge c i.next_u (k ())

let advance_bool c pc (k : bool -> unit Prog.t) b =
  let i = instr_at c pc in
  let edge = if b then i.next_t else i.next_f in
  let n = Atomic.get edge in
  if n >= 0 then n else close_edge c edge (k b)

let advance_val c pc (k : Ids.Value.t -> unit Prog.t) x =
  let i = instr_at c pc in
  let vs = Atomic.get i.vals in
  let len = Array.length vs in
  let rec scan j =
    if j >= len then -1
    else if Array.unsafe_get vs j = x then Array.unsafe_get vs (j + 1)
    else scan (j + 2)
  in
  let n = scan 0 in
  if n >= 0 then n
  else
    let cont = k x in
    (* apply [k] outside the lock-held rescan so its exceptions can never
       be confused with interning failures *)
    with_lock c (fun () ->
        let vs = Atomic.get i.vals in
        let len = Array.length vs in
        let rec rescan j =
          if j >= len then -1
          else if vs.(j) = x then vs.(j + 1)
          else rescan (j + 2)
        in
        let hit = rescan 0 in
        if hit >= 0 then hit
        else
          match intern_locked c cont with
          | pc' ->
              if len / 2 < c.max_fanout then begin
                let vs' = Array.make (len + 2) 0 in
                Array.blit vs 0 vs' 0 len;
                vs'.(len) <- x;
                vs'.(len + 1) <- pc';
                Atomic.set i.vals vs'
              end;
              pc'
          | exception Full -> -1
          | exception Failure _ | exception Invalid_argument _ -> -1)

(* --- ahead-of-time compilation --------------------------------------- *)

let make ?(max_instrs = 65536) ?(max_fanout = 64) (cfg : Config.t) =
  let n = cfg.Config.n in
  let c =
    {
      lock = Mutex.create ();
      tbl = Hashtbl.create 256;
      instrs = Atomic.make (Array.make 64 dummy_instr);
      count = 0;
      max_instrs = max 1 max_instrs;
      max_fanout = max 0 max_fanout;
      entry_pc = Array.make n (-1);
      exit_pc = Array.make n (-1);
      recover_pc = Array.make n (-1);
      abort_pc = Array.make n (-1);
      unit_pc = 0;
    }
  in
  (* Root interning: failures here are typed errors — the program is
     broken ahead of execution, not merely exotic. *)
  let strict ~pid cont =
    match intern_locked c cont with
    | pc -> pc
    | exception Full ->
        raise (Error (Program_too_large { pid; limit = c.max_instrs }))
    | exception Failure msg | exception Invalid_argument msg ->
        raise (Error (Opaque_continuation { pid; reason = msg }))
  in
  let up = strict ~pid:(-1) Prog.unit in
  assert (up = 0);
  (* Eagerly close every control-flow edge reachable through unit and
     bool continuations (straight-line writes/fences and CAS branches);
     value edges (read/FAA/swap results) are demand-filled at run time.
     Budget overflow during the walk is still a typed error (this is
     where an unbounded write chain is caught); an individual
     continuation that raises while being built, or that Marshal cannot
     serialize, just leaves its edge unresolved for the runtime
     fallback. *)
  let visited = Hashtbl.create 64 in
  let rec close_from ~pid pc =
    if not (Hashtbl.mem visited pc) then begin
      Hashtbl.add visited pc ();
      let i = instr_at c pc in
      match i.rep with
      | Prog.Return _ -> ()
      | Prog.Bind (Prog.Write _, k) ->
          (* local aliases pin the GADT equation ('b = unit / bool) before
             the call: the mutually-recursive close_* types are not yet
             generalized here, so passing [k] directly would let the
             existential escape *)
          let k : unit -> unit Prog.t = k in
          close_u ~pid i.next_u k
      | Prog.Bind (Prog.Fence, k) ->
          let k : unit -> unit Prog.t = k in
          close_u ~pid i.next_u k
      | Prog.Bind (Prog.Abortable _, k) ->
          let k : unit -> unit Prog.t = k in
          close_u ~pid i.next_u k
      | Prog.Bind (Prog.Cas _, k) ->
          let k : bool -> unit Prog.t = k in
          close_b ~pid i.next_t k true;
          close_b ~pid i.next_f k false
      | Prog.Bind (Prog.Read _, _)
      | Prog.Bind (Prog.Faa _, _)
      | Prog.Bind (Prog.Swap _, _) ->
          ()
    end
  and close_u ~pid (edge : int Atomic.t) (k : unit -> unit Prog.t) =
    if Atomic.get edge < 0 then
      match k () with
      | exception _ -> ()
      | cont -> close_cont ~pid edge cont
  and close_b ~pid (edge : int Atomic.t) (k : bool -> unit Prog.t) b =
    if Atomic.get edge < 0 then
      match k b with
      | exception _ -> ()
      | cont -> close_cont ~pid edge cont
  and close_cont ~pid edge cont =
    match intern_locked c cont with
    | pc ->
        Atomic.set edge pc;
        close_from ~pid pc
    | exception Full ->
        raise (Error (Program_too_large { pid; limit = c.max_instrs }))
    | exception Failure _ | exception Invalid_argument _ -> ()
  in
  let root ~pid arr p prog_thunk =
    match prog_thunk () with
    | (prog : unit Prog.t) ->
        let pc = strict ~pid prog in
        arr.(p) <- pc;
        close_from ~pid pc
    | exception _ ->
        (* building the program itself raised (e.g. a zero-fuel spin):
           defer to the runtime so the raise happens at step time, where
           the interpreter raises it *)
        ()
  in
  for p = 0 to n - 1 do
    root ~pid:p c.entry_pc p (fun () -> cfg.Config.entry p);
    root ~pid:p c.exit_pc p (fun () -> cfg.Config.exit_section p);
    if Option.is_some cfg.Config.recovery then
      root ~pid:p c.recover_pc p (fun () -> recovery_cont cfg p);
    if Option.is_some cfg.Config.abort_section then
      root ~pid:p c.abort_pc p (fun () -> abort_cont cfg p)
  done;
  c
