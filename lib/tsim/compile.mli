(** Compile-ahead execution of process programs: the step path of every
    machine over declared-pure programs that records no trace
    ({!Config.compiled_steps}).

    Lowers the free-monad programs of a {!Config.t} into a flat
    instruction array by {e interning} continuations: an instruction is
    one reachable continuation, identified by a program counter, with its
    structural hash cached and its control-flow edges resolved at most
    once (eagerly for unit/bool-result operations, on demand for
    value-result ones). The machine advances processes by following
    edges — no closure application, no structural hashing — and falls
    back to the interpreter per process ([pc = -1]) whenever an edge
    cannot be compiled, so compilation never makes a runnable program
    fail and fingerprints stay bit-identical to the interpreter's.

    Thread-safe: one compiled program is shared by a search's root
    machine and all its clones, on every domain. There is no cache:
    each {!Machine.create} compiles afresh (tens of microseconds for the
    zoo locks at n <= 4), so code built under one spin fuel never reaches
    a machine built under another. *)

type error =
  | Program_too_large of { pid : Ids.Pid.t; limit : int }
      (** A section root unrolls into more distinct continuations than the
          instruction budget — an unboundedly growing operation chain. *)
  | Opaque_continuation of { pid : Ids.Pid.t; reason : string }
      (** A section root captures values that cannot be interned
          structurally (e.g. a channel or mutex in its register frame). *)

exception Error of error

val error_to_string : error -> string

type t

val make : ?max_instrs:int -> ?max_fanout:int -> Config.t -> t
(** Compile a configuration's programs. [max_instrs] bounds the code
    store (default 65536); [max_fanout] bounds the per-instruction
    value-edge table (default 64), past which new read results fall back
    to the interpreter for that process.

    @raise Error when a section root is broken ahead of execution; see
    {!error}. Runtime-only conditions (an exotic continuation deep in a
    program) degrade silently instead. *)

val hash_cont : unit Prog.t -> int
(** Structural hash of a continuation — the fingerprint term shared by
    the compiled and interpreter paths. *)

val recovery_cont : Config.t -> Ids.Pid.t -> unit Prog.t
(** The canonical continuation of a recovering process (recovery section
    then entry section; just the entry section when the configuration has
    no recovery). Both the compiler and the machine's interpreter path
    build it here so the closure — and hence the state fingerprint — is
    identical on both step paths. *)

val abort_cont : Config.t -> Ids.Pid.t -> unit Prog.t
(** The canonical continuation of an aborted process: its abort cleanup
    section alone ([Return ()] is the abort-done transition). Same
    path-agreement contract as {!recovery_cont}.
    @raise Invalid_argument when the configuration has no abort
    section. *)

val rep : t -> int -> unit Prog.t
(** The interned continuation at a pc. *)

val key : t -> int -> int
(** Cached [hash_cont (rep t pc)]. *)

val unit_pc : t -> int
(** The pc of [Return ()] (always 0). *)

val entry_pc : t -> Ids.Pid.t -> int
(** Section roots per process; -1 means "not compiled, use the
    interpreter path". *)

val exit_pc : t -> Ids.Pid.t -> int
val recover_pc : t -> Ids.Pid.t -> int
val abort_pc : t -> Ids.Pid.t -> int

val size : t -> int
(** Number of interned instructions. *)

val advance_unit : t -> int -> (unit -> unit Prog.t) -> int
(** [advance_unit t pc k]: the pc after the unit-result operation at
    [pc], resolving and memoizing the edge on first use ([k] is only
    applied then; exceptions it raises propagate so raise timing matches
    the interpreter). Returns -1 when the edge cannot be compiled — the
    caller parks the process on the interpreter path. *)

val advance_bool : t -> int -> (bool -> unit Prog.t) -> bool -> int
val advance_val : t -> int -> (Ids.Value.t -> unit Prog.t) -> Ids.Value.t -> int
