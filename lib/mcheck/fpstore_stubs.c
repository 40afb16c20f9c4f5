/* Atomic word operations over a Bigarray-of-int region.
 *
 * OCaml 5.1's stdlib has no atomic arrays: an [int Atomic.t array] boxes
 * one mutable record per cell, which is hopeless for a multi-megaword
 * bit array. Instead the store keeps its shared words in flat Bigarrays
 * of kind [int] (one untagged intnat per cell, malloc'd outside the OCaml
 * heap, so the data pointer is stable and addressable from every domain),
 * and these stubs provide the atomic accesses via the GCC/Clang __atomic
 * builtins: the exact store's per-shard lock words and counters, and the
 * bitstate store's bit array.
 *
 * All entry points are [@@noalloc]: they allocate nothing and never
 * release the runtime lock, so they cost a C call and the atomic op.
 *
 * Values cross the boundary through Long_val/Val_long: a 63-bit OCaml
 * int sign-extends into the intnat cell and truncates back losslessly,
 * so the lock words and counters in fpstore.ml round-trip exactly.
 */

#include <caml/mlvalues.h>
#include <caml/bigarray.h>

static intnat *cell(value ba, value i)
{
  return (intnat *) Caml_ba_data_val(ba) + Long_val(i);
}

CAMLprim value pa_fps_get(value ba, value i)
{
  return Val_long(__atomic_load_n(cell(ba, i), __ATOMIC_ACQUIRE));
}

CAMLprim value pa_fps_set(value ba, value i, value v)
{
  __atomic_store_n(cell(ba, i), Long_val(v), __ATOMIC_RELEASE);
  return Val_unit;
}

CAMLprim value pa_fps_cas(value ba, value i, value expected, value desired)
{
  intnat exp = Long_val(expected);
  return Val_bool(__atomic_compare_exchange_n(
      cell(ba, i), &exp, Long_val(desired), 0, __ATOMIC_ACQ_REL,
      __ATOMIC_ACQUIRE));
}

CAMLprim value pa_fps_fetch_add(value ba, value i, value v)
{
  return Val_long(__atomic_fetch_add(cell(ba, i), Long_val(v),
                                     __ATOMIC_ACQ_REL));
}

/* Bitstate: atomically set bit [b land 63] of word [b lsr 6] and report
 * whether it was already set. Every bit of the 64-bit word is usable —
 * OCaml 5 targets only 64-bit platforms, so intnat is 64 bits wide. */
CAMLprim value pa_fps_test_and_set_bit(value ba, value b)
{
  uintnat i = Long_val(b);
  uintnat bit = (uintnat) 1 << (i & 63);
  uintnat *w = (uintnat *) Caml_ba_data_val(ba) + (i >> 6);
  return Val_bool(__atomic_fetch_or(w, bit, __ATOMIC_ACQ_REL) & bit);
}
