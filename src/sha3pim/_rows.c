/* The C library of sha3pim: the replay kernel of sha3pim.engine, which
   runs frozen kernel rows in place over a crossbar's bit-sliced cells
   q[cell][word], `words` plain uint64_t words per cell, and the
   crossbar's peripheral io.  A cell holds one bit per tile: bit t of word
   w is tile 64 * w + t of the crossbar's PartitionMap, and the bits past
   the last tile are padding.

   The io entry points, write_region and read_region, move a region of
   cells, rows r0..r1-1 and columns c0..c1-1 of the crossbar, between the
   words and a block of bytes, one per cell in row-major order.  They walk
   each row of the region in spans that stay in one tile, where successive
   cells are successive cell indices, one bit of every `words`-th word.
   The tile of a span comes from `map`, PartitionMap.words_map: the words
   per cell, unit rows, unit columns and tile-grid columns, then the tile
   grid's ids row-major.  A write refuses a block holding a byte other
   than 0 or 1 before it sets any bit, and marks every cell it sets in the
   init grid; a read given the init grid (strict mode) refuses a region
   holding a cell never written.

   A row is nine int32s, read in place: the gate, the step and span along
   the tile's cells, then the first cell and key of the output and of two
   input slots.  An input slot past the gate's arity repeats the slot
   before it, or the output for a gate of no inputs, so every row names
   two input cells the row already touches.  Index products are taken in
   int64.  A key's unit axis is three int64s (first, stride, count): its
   places, the tiles it reaches, are first + u * stride for u < count,
   evenly spaced by construction.  A key of count 0, of an origin set
   with no copies, runs nothing.  A gate's form is three int64s (arity,
   or, invert), its row of crossbar.GATE_TABLE.  A gate writes the AND (or
   the OR) of its inputs, XOR `invert`, so one of no inputs writes 1 (or
   0) XOR `invert`; an input read twice leaves the AND and the OR
   unchanged.  run() calls run_form(), inlined, once per form the table
   has (AND, OR and NOR), with its (or, invert) pair as constants, so the
   compiler emits every loop below once per form, each evaluating the
   gate in the one or two word operations of its form.  The forms stay
   data read off the table: run() branches on the pair, not on gates.

   A row whose keys all have one stride runs on whole words.  A
   descending axis holds the same places as an ascending one counted from
   its last unit, so only the stride's size matters.  An input key whose
   first place is d places past the output key's (before it, if d < 0) is
   read as the 64 places from 64 * w + d on, funnelled out of two words
   when d is not a multiple of 64, so that each input bit lines up with
   its output bit.  Every stride runs in one loop, word by word: a word's
   mask holds the output key's places in it, as the other bits belong to
   other tiles (at stride 1, those of the first and last word outside
   first..last; at a larger stride, the partition-row set's, whose copies
   are a partition row apart, also those between), and the row's cells
   run in the inner loop under that mask.  Rows whose inputs need no
   funnel read plain words in a loop of their own.  Only a row whose keys
   have different strides (an RC fetch, say, from the RC column's tiles
   onto the partitions') runs one unit at a time on single bits.  The
   init grid of strict mode has the same layout, and its check reads a
   key's bits one unit at a time, in unit order.

   The rows are stored in bundles, and `order` names the stored bundle
   that each cycle runs, so a bundle that a program runs many times (a
   round of the permutation, say) is stored once. */

#include <stdint.h>

typedef uint64_t u64;
typedef int64_t i64;

#define PLACE(axis, u) ((axis)[0] + (u) * (axis)[1])
#define GATE(a, b) ((((a) & (b)) | (either & ((a) | (b)))) ^ invert)
#define BIT(x, p) ((x)[(p) >> 6] >> ((p) & 63) & 1)

/* The bits of word w that hold places first..last. */
static u64 edge(i64 w, i64 first, i64 last)
{
    u64 mask = ~(u64)0;
    if (w == first >> 6)
        mask &= ~(u64)0 << (first & 63);
    if (w == last >> 6)
        mask &= ~(u64)0 >> (63 - (last & 63));
    return mask;
}

/* Places 64 * k + shift to 64 * k + shift + 63 of cell x, 0 <= shift < 64,
   read as 0 past either end of the cell's words. */
static u64 fetch(const u64 *x, i64 words, i64 k, i64 shift)
{
    u64 lo = k >= 0 && k < words ? x[k] : 0;
    if (!shift)
        return lo;
    u64 hi = k + 1 >= 0 && k + 1 < words ? x[k + 1] : 0;
    return lo >> shift | hi << (64 - shift);
}

/* Row f on every unit of its output key, for a gate of `arity` inputs
   of form `either`, `invert` (all ones or zeros), inlined per form. */
static inline __attribute__((always_inline)) void
run_form(u64 *q, i64 words, const int32_t *f, const i64 *axes, i64 arity,
         u64 either, u64 invert)
{
    const u64 preset = ~either ^ invert;        /* the output on no inputs */
    const i64 *ko = axes + 3 * (i64)f[4], *ka = axes + 3 * (i64)f[6],
              *kb = axes + 3 * (i64)f[8];
    i64 step = f[1] * words, end = f[2] * words;
    u64 *out = q + f[3] * words;
    const u64 *x = q + f[5] * words, *y = q + f[7] * words;
    /* a row's keys belong to one origin set, so they share its count */
    i64 stride = ko[1], n = ko[2];
    if (!n)
        return;
    if (ka[1] != stride || kb[1] != stride) {
        for (i64 i = 0; i < end; i += step)
            for (i64 u = 0; u < n; u++) {
                i64 p = PLACE(ko, u), w = i + (p >> 6);
                u64 v = arity ? GATE(BIT(x + i, PLACE(ka, u)),
                                     BIT(y + i, PLACE(kb, u)))
                              : preset;
                out[w] ^= (out[w] ^ -(v & 1)) & (u64)1 << (p & 63);
            }
        return;
    }
    /* the output's places, ascending (a descending axis holds the same
       places counted from its last unit), and per input the word offset
       and the shift that line its places up with the output's */
    i64 first = stride > 0 ? ko[0] : ko[0] + (n - 1) * stride;
    stride = stride > 0 ? stride : -stride;
    i64 last = first + (n - 1) * stride;
    i64 sa = (ka[0] - ko[0]) & 63, ja = (ka[0] - ko[0] - sa) / 64;
    i64 sb = (kb[0] - ko[0]) & 63, jb = (kb[0] - ko[0] - sb) / 64;
    /* word by word, each under the mask of the places it holds, with the
       row's cells in the inner loop */
    for (i64 p = first; p <= last;) {
        i64 w = p >> 6;
        u64 mask = 0;
        if (stride == 1)
            mask = edge(w, first, last), p = (w + 1) << 6;
        else
            for (; p <= last && p >> 6 == w; p += stride)
                mask |= (u64)1 << (p & 63);
        u64 *o = out + w;
        if (!arity)
            for (i64 i = 0; i < end; i += step)
                o[i] ^= (o[i] ^ preset) & mask;
        else if (!sa && !sb)
            for (i64 i = 0; i < end; i += step)
                o[i] ^= (o[i] ^ GATE(x[i + w + ja], y[i + w + jb])) & mask;
        else
            for (i64 i = 0; i < end; i += step)
                o[i] ^= (o[i] ^ GATE(fetch(x + i, words, w + ja, sa),
                                     fetch(y + i, words, w + jb, sb))) & mask;
    }
}

/* Row f with gate form g, run by the copy of run_form's loops that has
   g's (either, invert) pair as constants: AND, OR or NOR. */
static void run(u64 *q, i64 words, const int32_t *f, const i64 *g,
                const i64 *axes)
{
    if (!g[1])
        run_form(q, words, f, axes, g[0], 0, 0);
    else if (!g[2])
        run_form(q, words, f, axes, g[0], ~(u64)0, 0);
    else
        run_form(q, words, f, axes, g[0], ~(u64)0, ~(u64)0);
}

/* Run n_cycles bundles, bundle order[k] at cycle k: its live rows, or,
   with an init grid, every row, each bundle only after checking that it
   reads no unwritten cell.  On such a read, return 1 with fail = (row,
   input slot, cell, tile) of the first one and the grids holding every
   bundle before; else return 0. */
int run_rows(u64 *q, u64 *init, i64 words, const int32_t *rows,
             const unsigned char *live, const i64 *bundle_ptr,
             const int32_t *order, i64 n_cycles, const i64 *forms,
             const i64 *axes, i64 *fail)
{
    static const i64 written[3] = {0, 0, 0};   /* the AND of no inputs */
    for (i64 k = 0; k < n_cycles; k++) {
        i64 lo = bundle_ptr[order[k]], hi = bundle_ptr[order[k] + 1];
        for (i64 r = lo; init && r < hi; r++) {
            const int32_t *f = rows + 9 * r;
            for (i64 slot = 1; slot <= forms[3 * (i64)f[0]]; slot++) {
                const i64 *key = axes + 3 * (i64)f[4 + 2 * slot];
                for (i64 i = f[3 + 2 * slot]; i < (i64)f[3 + 2 * slot] + f[2]; i += f[1])
                    for (i64 u = 0, p = key[0]; u < key[2]; u++, p += key[1])
                        if (!BIT(init + i * words, p)) {
                            fail[0] = r, fail[1] = slot, fail[2] = i, fail[3] = p;
                            return 1;
                        }
            }
        }
        for (i64 r = lo; r < hi; r++) {
            if (!init && !live[r])
                continue;
            const int32_t *f = rows + 9 * r;
            run(q, words, f, forms + 3 * (i64)f[0], axes);
            if (init)
                run(init, words, f, written, axes);
        }
    }
    return 0;
}

/* The cells of row r from column c on that lie in c's tile, up to column
   c1: return the column past the last of them, with `at`, the word of
   cell c in the grids, and `bit`, the tile's bit in it. */
static i64 span(const i64 *map, i64 r, i64 c, i64 c1, i64 *at, u64 *bit)
{
    i64 words = map[0], unit_rows = map[1], unit_cols = map[2];
    i64 h = c / unit_cols, end = (h + 1) * unit_cols;
    i64 tile = map[4 + r / unit_rows * map[3] + h];
    *at = ((r % unit_rows) * unit_cols + c % unit_cols) * words + (tile >> 6);
    *bit = (u64)1 << (tile & 63);
    return end < c1 ? end : c1;
}

/* Set the region's cells from `block` and mark them written in `init`;
   return 1, and set nothing, if the block holds a byte past 1. */
int write_region(u64 *q, u64 *init, const i64 *map, i64 r0, i64 r1,
                 i64 c0, i64 c1, const unsigned char *block)
{
    i64 words = map[0];
    unsigned char bits = 0;
    for (i64 i = 0; i < (r1 - r0) * (c1 - c0); i++)
        bits |= block[i];
    if (bits > 1)
        return 1;
    for (i64 r = r0; r < r1; r++)
        for (i64 c = c0; c < c1;) {
            i64 at;
            u64 bit;
            for (i64 end = span(map, r, c, c1, &at, &bit); c < end;
                 c++, at += words, block++) {
                q[at] ^= (q[at] ^ -(u64)*block) & bit;
                init[at] |= bit;
            }
        }
    return 0;
}

/* Copy the region's cells into `block`; with an init grid, return 1 if
   one of them was never written. */
int read_region(const u64 *q, const u64 *init, const i64 *map, i64 r0,
                i64 r1, i64 c0, i64 c1, unsigned char *block)
{
    i64 words = map[0];
    for (i64 r = r0; r < r1; r++)
        for (i64 c = c0; c < c1;) {
            i64 at;
            u64 bit;
            for (i64 end = span(map, r, c, c1, &at, &bit); c < end;
                 c++, at += words, block++) {
                if (init && !(init[at] & bit))
                    return 1;
                *block = (q[at] & bit) != 0;
            }
        }
    return 0;
}
