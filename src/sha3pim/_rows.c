/* The replay kernel of sha3pim.engine: runs frozen kernel rows over the
   tile grid q[cell][tile], one byte per cell and `tiles` tiles.

   A row is nine ints (int16, or int32 when `wide`): the gate, the step and
   span along the tile's cells, then the first cell and key of the output
   and of two input slots.  A key's unit axis is three int64s (first,
   stride, count): its tiles are first + u * stride for u < count, or
   index[first + u] when stride is 0.  A gate's form is four int64s
   (arity, or, invert, preset): its row of crossbar.GATE_TABLE, then its
   output on no inputs.  A gate of no inputs writes `preset`, any other
   gate the AND (or the OR) of its inputs, XOR `invert`.  Input slots past
   a gate's arity are never read. */

#include <stdint.h>

typedef unsigned char u8;
typedef int64_t i64;

#define TILE(axis, u) ((axis)[1] ? (axis)[0] + (u) * (axis)[1] \
                                 : index[(axis)[0] + (u)])
#define GATE(a, b) ((((a) & (b)) | (either & ((a) | (b)))) ^ invert)

static void load(const void *rows, int wide, i64 r, i64 *f)
{
    for (int k = 0; k < 9; k++)
        f[k] = wide ? ((const int32_t *)rows)[9 * r + k]
                    : ((const int16_t *)rows)[9 * r + k];
}

/* Row f with gate form g on every unit of its output key. */
static void run(u8 *q, i64 tiles, const i64 *f, const i64 *g,
                const i64 *axes, const i64 *index)
{
    /* fields of the input slots; a slot past the arity repeats the one
       before it, or the output */
    i64 arity = g[0], fa = arity ? 5 : 3, fb = arity > 1 ? 7 : fa;
    i64 a = f[fa], b = f[fb];
    const i64 *ko = axes + 3 * f[4], *ka = axes + 3 * f[fa + 1],
              *kb = axes + 3 * f[fb + 1];
    i64 n = ko[2], so = ko[1], sa = ka[1], sb = kb[1];
    u8 either = g[1] ? 0xff : 0, invert = (u8)g[2], preset = (u8)g[3];
    for (i64 i = 0; i < f[2]; i += f[1]) {
        u8 *out = q + (f[3] + i) * tiles;
        const u8 *x = q + (a + i) * tiles, *y = q + (b + i) * tiles;
        if (!(so && sa && sb)) {
            for (i64 u = 0; u < n; u++)
                out[TILE(ko, u)] = arity ? GATE(x[TILE(ka, u)], y[TILE(kb, u)])
                                         : preset;
            continue;
        }
        u8 *po = out + ko[0];
        const u8 *pa = x + ka[0], *pb = y + kb[0];
        if (!arity)
            for (i64 u = 0; u < n; u++) po[u * so] = preset;
        else if (so == 1 && sa == 1 && sb == 1)
            for (i64 u = 0; u < n; u++) po[u] = GATE(pa[u], pb[u]);
        else
            for (i64 u = 0; u < n; u++) po[u * so] = GATE(pa[u * sa], pb[u * sb]);
    }
}

/* Run the bundles' rows: the live ones, or, with an init grid, every row,
   each bundle only after checking that it reads no unwritten cell.  On
   such a read, return 1 with fail = (row, input slot, cell, tile) of the
   first one and the grids holding every bundle before; else return 0. */
int run_rows(u8 *q, u8 *init, i64 tiles, const void *rows, int wide,
             const u8 *live, const i64 *bundle_ptr, i64 n_bundles,
             const i64 *forms, const i64 *axes, const i64 *index, i64 *fail)
{
    static const i64 written[4] = {0, 0, 0, 1};
    i64 f[9];
    for (i64 bundle = 0; bundle < n_bundles; bundle++) {
        i64 lo = bundle_ptr[bundle], hi = bundle_ptr[bundle + 1];
        for (i64 r = lo; init && r < hi; r++) {
            load(rows, wide, r, f);
            for (i64 slot = 1; slot <= forms[4 * f[0]]; slot++) {
                const i64 *key = axes + 3 * f[4 + 2 * slot];
                for (i64 i = f[3 + 2 * slot]; i < f[3 + 2 * slot] + f[2]; i += f[1])
                    for (i64 u = 0; u < key[2]; u++)
                        if (!init[i * tiles + TILE(key, u)]) {
                            fail[0] = r, fail[1] = slot, fail[2] = i;
                            fail[3] = TILE(key, u);
                            return 1;
                        }
            }
        }
        for (i64 r = lo; r < hi; r++) {
            if (!init && !live[r])
                continue;
            load(rows, wide, r, f);
            run(q, tiles, f, forms + 4 * f[0], axes, index);
            if (init)
                run(init, tiles, f, written, axes, index);
        }
    }
    return 0;
}
