(* Shared fingerprint store. See fpstore.mli for the protocol overview
   and DESIGN.md §5f for the exactly-once argument; the short form is:

     exact mode: every visit of a fingerprint runs under its shard's
     lock, reads the state's remaining-moves word, hands out its
     intersection with the visitor's cover and clears those bits before
     the lock is released. Visits of one state are therefore totally
     ordered, the remaining word only ever shrinks, and each move bit is
     granted to exactly one visitor.

   The per-shard tables are ordinary OCaml int arrays, touched only under
   the shard lock. The lock words and counters live in a small Bigarray
   of kind [int] (untagged native words, malloc'd outside the OCaml heap,
   shareable across domains), accessed through the __atomic stubs in
   fpstore_stubs.c. *)

type buf = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

external a_get : buf -> int -> int = "pa_fps_get" [@@noalloc]
external a_set : buf -> int -> int -> unit = "pa_fps_set" [@@noalloc]
external a_cas : buf -> int -> int -> int -> bool = "pa_fps_cas" [@@noalloc]

external a_fetch_add : buf -> int -> int -> int = "pa_fps_fetch_add"
  [@@noalloc]

external a_test_and_set_bit : buf -> int -> bool = "pa_fps_test_and_set_bit"
  [@@noalloc]

(* Exact mode: one open-addressing table per shard (linear probing,
   doubled once its load passes 1/2), touched only under the shard's
   lock. A slot is two adjacent words — the fingerprint (-1 = empty;
   stored fingerprints are >= 0) and the moves not yet granted for it —
   so a visit costs one cache miss. Bitstate mode has no tables and uses
   [bits] instead. *)
type t = {
  tabs : int array array;  (* per shard *)
  lines : buf;
      (* one 8-word (64-byte) line per shard, or per counter stripe in
         bitstate mode, so concurrent visitors of unrelated states touch
         different cache lines. malloc aligns the buffer to 16 bytes,
         so the two hot words at offsets 0 and 1 never share a cache
         line with another shard's. Offsets within a line: *)
  bits : buf;
  nbits : int;  (* 0 in exact mode *)
  hashes : int;
}

let o_lock = 0  (* exact: 0 free, 1 held *)
let o_ones = 0  (* bitstate: bits newly set *)
let o_entries = 1
let o_slots = 2  (* exact: slot count of the shard's table *)
let o_growing = 3  (* exact: 1 while a domain allocates the next table *)
let shard_bits = 4
let n_shards = 1 lsl shard_bits
let line s = s * 8

(* Fingerprints are already finalizer-mixed (Machine.fingerprint), so
   the home slot is their raw low bits, as in any table keyed by them.
   The shard takes the top bits of a Fibonacci-hash product instead:
   they depend on every fingerprint bit, so states spread over the
   shards even when a caller's fingerprints are small integers. *)
let shard_of fp = (fp * 0x9E3779B97F4A7C1) lsr (63 - shard_bits)

(* murmur3-style finalizer over the native int, result forced positive:
   bitstate mode needs k independent remixes of one fingerprint. The
   multipliers are the canonical 64-bit fmix constants reduced to 63
   bits with the low bit forced to 1. *)
let mix x =
  let x = x lxor (x lsr 33) in
  let x = x * 0xFF51AFD7ED558CD in
  let x = x lxor (x lsr 29) in
  let x = x * 0xC4CEB9FE1A85EC5 in
  (x lxor (x lsr 32)) land max_int

let make_buf len : buf =
  let b = Bigarray.Array1.create Bigarray.int Bigarray.c_layout len in
  Bigarray.Array1.fill b 0;
  b

(* [slots] empty slots (a remaining word is read only once its slot
   holds a key) *)
let make_table slots = Array.make (2 * slots) (-1)
let slots tab = Array.length tab / 2

let rec next_pow2 n k = if k >= n then k else next_pow2 n (k * 2)

let create ~mode ~expected =
  let lines = make_buf (n_shards * 8) in
  match (mode : Tsim.Config.store_mode) with
  | Tsim.Config.Store_exact ->
      let cap = next_pow2 (2 * expected / n_shards) 16 in
      for s = 0 to n_shards - 1 do
        a_set lines (line s + o_slots) cap
      done;
      { tabs = Array.init n_shards (fun _ -> make_table cap); lines;
        bits = make_buf 0; nbits = 0; hashes = 0 }
  | Tsim.Config.Store_bitstate { log2_bits; hashes } ->
      let nbits = 1 lsl log2_bits in
      { tabs = [||]; lines; bits = make_buf (nbits / 64); nbits; hashes }

(* --- exact ------------------------------------------------------------- *)

(* Test-and-test-and-set: spin on plain reads, CAS only when free. *)
let rec lock_slow lines w =
  while a_get lines w <> 0 do
    Domain.cpu_relax ()
  done;
  if not (a_cas lines w 0 1) then lock_slow lines w

let[@inline] lock lines w = if not (a_cas lines w 0 1) then lock_slow lines w
let[@inline] unlock lines w = a_set lines w 0

(* Slot holding [fp], or the empty slot where it belongs. *)
let rec probe tab mask fp i =
  let k = Array.unsafe_get tab (2 * i) in
  if k = fp || k < 0 then i else probe tab mask fp ((i + 1) land mask)

(* Move every entry of shard [s]'s table into [tab] and install it.
   Runs under the shard lock and allocates nothing. *)
let rehash t s tab =
  let old = t.tabs.(s) and mask = slots tab - 1 in
  for i = 0 to slots old - 1 do
    let k = Array.unsafe_get old (2 * i) in
    if k >= 0 then begin
      let j = probe tab mask k (k land mask) in
      Array.unsafe_set tab (2 * j) k;
      Array.unsafe_set tab ((2 * j) + 1) (Array.unsafe_get old ((2 * i) + 1))
    end
  done;
  t.tabs.(s) <- tab;
  a_set t.lines (line s + o_slots) (slots tab);
  a_set t.lines (line s + o_growing) 0

(* Double shard [s] from [cap] slots. The new table is allocated before
   the lock is taken: a large allocation runs GC work, which other
   domains must not wait on. If the shard grew under the lock meanwhile
   (see [insert]), this table is dropped. *)
let grow t s cap =
  let tab = make_table (2 * cap) in
  let w = line s + o_lock in
  lock t.lines w;
  if slots t.tabs.(s) = cap then rehash t s tab;
  unlock t.lines w

(* Insert [fp] at empty slot [i] of the locked shard [s]; the new state
   owes every move outside [cover]. Returns true to the first inserter
   that pushes the load past 1/2, which then grows the shard once it has
   released the lock; the [o_growing] flag keeps other domains from
   allocating tables of their own meanwhile. Should racing inserts push
   the load past 3/4 before that growth lands, the shard grows here,
   under the lock, so probing always finds an empty slot; if that
   allocation fails (out of memory) the lock is released before
   re-raising, so other domains see a dead worker rather than spin
   forever. *)
let insert t s tab i fp cover =
  Array.unsafe_set tab (2 * i) fp;
  Array.unsafe_set tab ((2 * i) + 1) (lnot cover);
  let w = line s in
  let n = a_fetch_add t.lines (w + o_entries) 1 + 1 and cap = slots tab in
  if 4 * n > 3 * cap then begin
    match rehash t s (make_table (2 * cap)) with
    | () -> false
    | exception e ->
        unlock t.lines (w + o_lock);
        raise e
  end
  else if 2 * n > cap - 1 && a_get t.lines (w + o_growing) = 0 then begin
    a_set t.lines (w + o_growing) 1;
    true
  end
  else false

let visit_exact t fp cover =
  let s = shard_of fp in
  let w = line s + o_lock in
  lock t.lines w;
  let tab = Array.unsafe_get t.tabs s in
  let mask = slots tab - 1 in
  let i = probe tab mask fp (fp land mask) in
  if Array.unsafe_get tab (2 * i) = fp then begin
    let rem = Array.unsafe_get tab ((2 * i) + 1) in
    Array.unsafe_set tab ((2 * i) + 1) (rem land lnot cover);
    unlock t.lines w;
    rem land cover
  end
  else begin
    let due = insert t s tab i fp cover in
    unlock t.lines w;
    if due then grow t s (mask + 1);
    cover lor min_int
  end

(* --- bitstate ---------------------------------------------------------- *)

(* k test-and-set bits per state; a state whose bits were all already
   set is treated as seen (possibly falsely — that is the omission the
   caller reads from [omission_prob]). No masks: the first visit claims
   the full cover, SPIN-supertrace style. *)
let visit_bits t fp =
  let newbits = ref 0 in
  for i = 0 to t.hashes - 1 do
    let h = mix (fp + (((i * 2) + 1) * 0x9E3779B97F4A7C1)) in
    if not (a_test_and_set_bit t.bits (h land (t.nbits - 1))) then
      incr newbits
  done;
  if !newbits = 0 then 0
  else begin
    let w = line ((fp lsr 7) land (n_shards - 1)) in
    ignore (a_fetch_add t.lines (w + o_entries) 1);
    ignore (a_fetch_add t.lines (w + o_ones) !newbits);
    -1
  end

let visit t ~fp ~cover =
  let fp = fp land max_int in
  if t.nbits = 0 then visit_exact t fp (cover land max_int)
  else visit_bits t fp

(* --- statistics -------------------------------------------------------- *)

let total t off =
  let s = ref 0 in
  for i = 0 to n_shards - 1 do
    s := !s + a_get t.lines (line i + off)
  done;
  !s

let entries t = total t o_entries

let omission_prob t =
  if t.nbits = 0 then 0.0
  else
    let ones = float_of_int (total t o_ones) in
    (ones /. float_of_int t.nbits) ** float_of_int t.hashes

let capacity t = if t.nbits > 0 then t.nbits else total t o_slots
