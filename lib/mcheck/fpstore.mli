(** The explorer's seen-state store, at every domain count.

    It answers a single question on the hot path — "has this state been
    explored, and if only partially, which moves are still owed?" — and
    is safe under any number of concurrent visitors.

    {2 Exact mode: lock-striped growable shards}

    States are partitioned by fingerprint hash into 16 shards. Each shard
    is an open-addressing table (linear probing) mapping a fingerprint to
    its {b remaining word} — the move codes not yet granted to any
    visitor — stored in the slot next to it. A shard doubles once its
    load passes 1/2: the inserter that crossed it allocates the larger
    table outside the lock and fills it under the lock (racing inserts
    can push the load to 3/4, where the shard grows under the lock
    instead). Each shard has its own spin
    lock; the lock words and the per-shard counts sit one per 64-byte
    line of a small [Bigarray], accessed through C stubs wrapping
    [__atomic] builtins (fpstore_stubs.c).

    A visitor arrives with its [cover] — the move set it is prepared to
    explore ([lnot sleep land full] under POR, all moves otherwise;
    covers are masked to their 62-bit nonnegative magnitude). Under the
    shard lock it either inserts the state (remaining = everything
    outside [cover]) or reads the remaining word, is granted its
    intersection with [cover], and clears those bits. Visits of one
    state are totally ordered by the lock and the remaining word only
    shrinks, so every move bit is granted to exactly one visitor: the
    explored node count does not depend on domain timing, and nothing
    is ever evicted, dropped or re-explored. The table grows without a
    cap; it can only fail by running out of memory. See DESIGN.md §5f.

    {2 Bitstate mode}

    [Store_bitstate]: SPIN-style supertrace — k hash bits per state in a
    fixed lock-free bit array of [2^log2_bits] bits, all 64 bits of each
    word used. There are no masks: a revisit always prunes and the
    FIRST visit is granted the full move set whatever its [cover], so
    the caller must explore every move of a new state (ignore any sleep
    mask; {!Explore} does exactly that). Distinct states may alias;
    {!omission_prob} reports the fill-dependent false-positive estimate
    [(ones/m)^k]. *)

type t

val create : mode:Tsim.Config.store_mode -> expected:int -> t
(** [create ~mode ~expected] allocates a store. In exact mode [expected]
    is a presize hint — the number of states the caller expects to
    store — and the table grows past it as needed ([0] starts at 256
    slots). Bitstate mode takes its fixed size from the mode. *)

val visit : t -> fp:int -> cover:int -> int
(** Visit a state; safe to call from any number of domains concurrently.
    Returns the moves granted to this visitor: [0] means the state is
    covered (prune it); otherwise the visitor owes exactly the moves in
    [g land max_int], and its child sleep mask is [lnot g land full].
    The result is negative iff this visit inserted the state — which
    matters only when [cover] is [0], where a new state must still be
    expanded. Pass [max_int] (or [-1]) as [cover] when sleep-set masking
    is off. *)

val entries : t -> int
(** Distinct states stored (bitstate: states that set at least one new
    bit). Exact once every visitor has joined. *)

val omission_prob : t -> float
(** Bitstate mode: the probability that the {e next} distinct state
    aliases an already-set bit pattern and is wrongly pruned —
    [(ones/m)^k] at the current fill. 0.0 in exact mode (which never
    aliases beyond the 63-bit fingerprint itself). *)

val capacity : t -> int
(** Slots across all shards (exact) or bits (bitstate). *)
