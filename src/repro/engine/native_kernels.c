/* Native kernels for the metric engine's hot block paths.
 *
 * Compiled on demand by repro.engine.native with the system C compiler
 * into a per-machine cached shared library and loaded through ctypes.
 * Every kernel mirrors one NumPy reference implementation *exactly*.
 * The NN kernels are int64 throughout: repro_nn_range returns integer
 * class totals, and the one D^avg division happens once in Python
 * (int / int, correctly rounded), so no float summation order exists
 * to reproduce and every result is bit-for-bit the NumPy backend's
 * (docs/performance.md gives the argument, tests/engine/test_native.py
 * enforces it).
 *
 * Array layout contract: every array argument is a C-contiguous int64
 * buffer.  A "slab" of t key planes has t * side^(d-1) cells, with grid
 * axis a >= 1 at stride side^(d-1-a) — the layout of
 * MetricContext.iter_key_slabs slabs.
 */

#include <stdint.h>

#define EXPORT __attribute__((visibility("default")))

/* The range fold is built for x86-64-v4 (AVX-512) and for the
 * baseline; the loader picks the clone the CPU runs through an ifunc,
 * so one cached library serves every x86-64 host, old ones included.
 * Only GCC 12 or later, which takes the level as a clone target, on
 * glibc; -DREPRO_NO_CLONES turns the clones off. */
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__) \
    && __GNUC__ >= 12 && defined(__GLIBC__) && !defined(REPRO_NO_CLONES)
#define REPRO_CLONES_ON 1
#define REPRO_CLONES \
    __attribute__((target_clones("arch=x86-64-v4", "default")))
#else
#define REPRO_CLONES
#endif

static inline int64_t i64abs(int64_t v) { return v < 0 ? -v : v; }
static inline int64_t i64max(int64_t a, int64_t b) { return a > b ? a : b; }

/* ------------------------------------------------------------------ */
/* NN block reduction                                                  */
/* ------------------------------------------------------------------ */

/* Fold every within-slab NN pair of `body` (t planes) into the
 * per-cell partials, the single fused pass replacing the ufunc chain
 * of repro.engine.chunked.accumulate_block_pairs: for each pair the
 * absolute key difference is added to both endpoints' stretch sums,
 * folded into both endpoints' maxima, and accumulated into the pair
 * axis's lambda.  Axis-0 pairs with an endpoint outside the slab are
 * the caller's carry, exactly as in the NumPy version. */
EXPORT void repro_nn_block_pairs(
    const int64_t *body, int64_t t, int64_t side, int64_t d,
    int64_t *sums, int64_t *best, int64_t *lambdas)
{
    int64_t plane = 1;
    for (int64_t i = 0; i < d - 1; ++i) plane *= side;

    int64_t stride = plane;
    for (int64_t axis = 1; axis < d; ++axis) {
        stride /= side;
        int64_t group = stride * side;
        int64_t lam = 0;
        for (int64_t row = 0; row < t; ++row) {
            const int64_t *keys = body + row * plane;
            int64_t *s = sums + row * plane;
            int64_t *m = best + row * plane;
            for (int64_t base = 0; base < plane; base += group) {
                for (int64_t off = 0; off < group - stride; ++off) {
                    int64_t i = base + off;
                    int64_t j = i + stride;
                    int64_t dist = i64abs(keys[j] - keys[i]);
                    lam += dist;
                    s[i] += dist;
                    s[j] += dist;
                    m[i] = i64max(m[i], dist);
                    m[j] = i64max(m[j], dist);
                }
            }
        }
        lambdas[axis] += lam;
    }

    int64_t lam0 = 0;
    for (int64_t row = 0; row + 1 < t; ++row) {
        const int64_t *a = body + row * plane;
        const int64_t *b = a + plane;
        int64_t *sa = sums + row * plane;
        int64_t *ma = best + row * plane;
        for (int64_t c = 0; c < plane; ++c) {
            int64_t dist = i64abs(b[c] - a[c]);
            lam0 += dist;
            sa[c] += dist;
            sa[plane + c] += dist;
            ma[c] = i64max(ma[c], dist);
            ma[plane + c] = i64max(ma[plane + c], dist);
        }
    }
    lambdas[0] += lam0;
}

/* |N(alpha)| for the cells with x_0 in [lo, hi), written into `out`
 * (a (hi-lo) * side^(d-1) buffer) — the layout and boundary handling
 * of repro.engine.chunked.slab_neighbor_counts. */
EXPORT void repro_neighbor_counts(
    int64_t d, int64_t side, int64_t lo, int64_t hi, int64_t *out)
{
    int64_t plane = 1;
    for (int64_t i = 0; i < d - 1; ++i) plane *= side;
    int64_t t = hi - lo;
    int64_t total = t * plane;
    for (int64_t i = 0; i < total; ++i) out[i] = 2 * d;
    if (lo == 0)
        for (int64_t c = 0; c < plane; ++c) out[c] -= 1;
    if (hi == side)
        for (int64_t c = 0; c < plane; ++c) out[(t - 1) * plane + c] -= 1;
    int64_t stride = plane;
    for (int64_t axis = 1; axis < d; ++axis) {
        stride /= side;
        int64_t group = stride * side;
        for (int64_t row = 0; row < t; ++row) {
            int64_t *o = out + row * plane;
            for (int64_t base = 0; base < plane; base += group) {
                for (int64_t off = 0; off < stride; ++off) {
                    o[base + off] -= 1;
                    o[base + group - stride + off] -= 1;
                }
            }
        }
    }
}

/* Bounds the dimension of a fold range (side >= 2, so 2^d <= n) and
 * of the curve kernels below. */
#define REPRO_MAX_D 62

/* One cell of a fold range: `left`/`right` are its distances along
 * the last axis (0 where there is no neighbour), `nb` its L neighbour
 * lines along the other axes, axis by axis, lower one first.  A
 * missing neighbour line is the cell's own line, so it adds distance
 * 0 to the sum and to the max (distances are >= 0).  Adds the cell's
 * stretch sum into *total, the lower neighbours' distances into lam
 * (each pair counted once, at its upper endpoint) and returns the
 * max. */
static inline __attribute__((always_inline)) int64_t nn_cell(
    const int64_t *const *restrict nb, const int64_t L, int64_t v,
    int64_t k, int64_t left, int64_t right,
    int64_t *restrict total, int64_t *restrict lam)
{
    int64_t sum = left + right, best = i64max(left, right);
#pragma GCC unroll 6
    for (int64_t j = 0; j < L; ++j) {
        int64_t dist = i64abs(nb[j][v] - k);
        sum += dist;
        best = i64max(best, dist);
        if (!(j & 1)) lam[j >> 1] += dist;
    }
    *total += sum;
    return best;
}

/* The inner cells 1 .. side-2 of a d = 2 (L = 2) or d = 3 (L = 4)
 * line, in one loop GCC vectorizes: the neighbour lines are literal
 * pointers, every cell recomputes both last-axis distances instead of
 * carrying one across iterations, and the stretch sums (one class:
 * the inner cells share a neighbour count), Λ, the max sum and the
 * last-axis pairs go to local int64 accumulators, exact in any lane
 * order on every clone.  Returns the cells' sum of maxima. */
static inline __attribute__((always_inline)) int64_t nn_inner(
    const int64_t *restrict line, const int64_t *const *restrict nb,
    const int64_t L, int64_t side,
    int64_t *restrict total, int64_t *restrict lam)
{
    const int64_t *restrict a0 = nb[0], *restrict a1 = nb[1];
    const int64_t *restrict b0 = nb[L - 2], *restrict b1 = nb[L - 1];
    int64_t lam_a = 0, lam_b = 0, lam_last = 0, max_sum = 0, sums = 0;
    for (int64_t v = 1; v + 1 < side; ++v) {
        int64_t k = line[v];
        int64_t left = i64abs(k - line[v - 1]);
        int64_t right = i64abs(line[v + 1] - k);
        int64_t da = i64abs(a0[v] - k), ua = i64abs(a1[v] - k);
        int64_t sum = left + right + da + ua;
        int64_t best = i64max(i64max(left, right), i64max(da, ua));
        if (L == 4) {
            int64_t db = i64abs(b0[v] - k), ub = i64abs(b1[v] - k);
            sum += db + ub;
            best = i64max(best, i64max(db, ub));
            lam_b += db;
        }
        lam_a += da;
        lam_last += left;
        sums += sum;
        max_sum += best;
    }
    *total += sums;
    lam[0] += lam_a;
    if (L == 4) lam[1] += lam_b;
    lam[L >> 1] += lam_last;
    return max_sum;
}

/* One line of `side` cells along the last grid axis (stride 1), whose
 * L = 2(d-1) neighbour lines hold `present` real ones.  Adds the
 * stretch sums of its two end cells (present + 1 neighbours) into
 * tot[0] and of its inner cells (present + 2) into tot[1], its Λ
 * partials into lam[0 .. d-1], and returns its sum of per-cell
 * maxima.  The inner cells take nn_inner's vector loop for a literal
 * L of 2 or 4 (d = 2, 3) and nn_cell's runtime-L loop otherwise. */
static inline __attribute__((always_inline)) int64_t nn_line(
    const int64_t *restrict line, const int64_t *const *restrict nb,
    const int64_t L, int64_t side,
    int64_t *restrict tot, int64_t *restrict lam)
{
    int64_t first = i64abs(line[1] - line[0]);
    int64_t last = i64abs(line[side - 1] - line[side - 2]);
    int64_t max_sum = nn_cell(nb, L, 0, line[0], 0, first, tot, lam);
    if (L <= 4) {
        max_sum += nn_inner(line, nb, L, side, tot + 1, lam);
    } else {
        int64_t right = first, lam_last = 0;
        for (int64_t v = 1; v + 1 < side; ++v) {
            int64_t k = line[v], left = right;
            right = i64abs(line[v + 1] - k);
            lam_last += left;
            max_sum += nn_cell(nb, L, v, k, left, right, tot + 1, lam);
        }
        lam[L >> 1] += lam_last;
    }
    max_sum += nn_cell(
        nb, L, side - 1, line[side - 1], last, 0, tot, lam);
    lam[L >> 1] += last;
    return max_sum;
}

/* d = 1: the range is one run of t cells along axis 0, whose outer
 * neighbours are the boundary cells `below` and `above`. */
static int64_t nn_range_1d(
    const int64_t *body, const int64_t *below, const int64_t *above,
    int64_t t, int64_t *totals, int64_t *lambdas)
{
    int64_t max_sum = 0, lam = 0;
    for (int64_t r = 0; r < t; ++r) {
        int64_t k = body[r];
        const int64_t *lo = r > 0 ? body + r - 1 : below;
        const int64_t *hi = r + 1 < t ? body + r + 1 : above;
        int64_t dl = lo ? i64abs(*lo - k) : 0;
        int64_t dh = hi ? i64abs(*hi - k) : 0;
        lam += dl;
        max_sum += i64max(dl, dh);
        totals[(lo != 0) + (hi != 0) - 1] += dl + dh;
    }
    lambdas[0] = lam;
    return max_sum;
}

/* The whole NN fold of one range x_0 in [lo, hi) in one gather pass,
 * replacing repro_nn_block_pairs + repro_neighbor_counts: `body` is
 * the range's t >= 1 key planes of side >= 2, `below` and `above` the
 * planes lo-1 and hi (NULL at the grid edge).  Every cell reads its
 * <= 2d neighbours; totals[c - d] receives the range's class total,
 * the stretch sums of its cells with c = |N| neighbours summed;
 * lambdas[axis] receives the range's Λ partials, each pair counted at
 * its upper endpoint (the pair (lo-1, lo) here, (hi-1, hi) in the next
 * range — the convention of repro.engine.chunked.nn_planes); the
 * return value is the range's sum of per-cell maxima.  Everything is
 * int64: the caller keeps every total below 2^63
 * (repro.engine.chunked.check_fold_envelope). */
EXPORT REPRO_CLONES int64_t repro_nn_range(
    const int64_t *body, const int64_t *below, const int64_t *above,
    int64_t t, int64_t side, int64_t d, int64_t *totals, int64_t *lambdas)
{
    for (int64_t a = 0; a < d; ++a) lambdas[a] = 0;
    for (int64_t c = 0; c <= d; ++c) totals[c] = 0;
    if (d == 1) return nn_range_1d(body, below, above, t, totals, lambdas);

    int64_t plane = 1;
    for (int64_t i = 0; i < d - 1; ++i) plane *= side;
    int64_t stride[REPRO_MAX_D], x[REPRO_MAX_D];
    const int64_t *nb[2 * REPRO_MAX_D];
    stride[d - 1] = 1;
    for (int64_t a = d - 2; a >= 1; --a) stride[a] = stride[a + 1] * side;

    int64_t max_sum = 0;
    for (int64_t r = 0; r < t; ++r) {
        const int64_t *cur = body + r * plane;
        const int64_t *prev = r > 0 ? cur - plane : below;
        const int64_t *next = r + 1 < t ? cur + plane : above;
        for (int64_t a = 1; a < d - 1; ++a) x[a] = 0;
        for (int64_t off = 0; off < plane; off += side) {
            const int64_t *line = cur + off;
            int64_t present = (prev != 0) + (next != 0);
            nb[0] = prev ? prev + off : line;
            nb[1] = next ? next + off : line;
            for (int64_t a = 1; a < d - 1; ++a) {
                int64_t has_lo = x[a] > 0, has_hi = x[a] + 1 < side;
                nb[2 * a] = has_lo ? line - stride[a] : line;
                nb[2 * a + 1] = has_hi ? line + stride[a] : line;
                present += has_lo + has_hi;
            }
            int64_t *tot = totals + present + 1 - d; /* ends: present + 1 */
            /* A literal L for 2D and 3D, the grids the benchmark
             * folds, gives them the vector line loop; every other d
             * takes the runtime-L loop (docs/performance.md gives the
             * measured gaps). */
            switch (d) {
            case 2:
                max_sum += nn_line(line, nb, 2, side, tot, lambdas);
                break;
            case 3:
                max_sum += nn_line(line, nb, 4, side, tot, lambdas);
                break;
            default:
                max_sum += nn_line(
                    line, nb, 2 * (d - 1), side, tot, lambdas);
            }
            for (int64_t a = d - 2; a >= 1; --a) {
                if (++x[a] < side) break;
                x[a] = 0;
            }
        }
    }
    return max_sum;
}

/* The clone of repro_nn_range the loader picked.  A clone's body
 * cannot tell which clone it is, so this repeats the resolver's test
 * of the one x86-64 level. */
EXPORT const char *repro_fold_clone(void)
{
#ifdef REPRO_CLONES_ON
    __builtin_cpu_init();
    return __builtin_cpu_supports("x86-64-v4") ? "x86-64-v4" : "default";
#else
    return "n/a";
#endif
}

/* ------------------------------------------------------------------ */
/* Window dilation block maxima                                        */
/* ------------------------------------------------------------------ */

/* max over m coordinate rows of the L1 distance |a - b|. */
EXPORT int64_t repro_window_max_manhattan(
    const int64_t *a, const int64_t *b, int64_t m, int64_t d)
{
    int64_t best = 0;
    for (int64_t r = 0; r < m; ++r) {
        const int64_t *pa = a + r * d;
        const int64_t *pb = b + r * d;
        int64_t s = 0;
        for (int64_t i = 0; i < d; ++i) s += i64abs(pa[i] - pb[i]);
        best = i64max(best, s);
    }
    return best;
}

/* max over m rows of the *squared* L2 distance (exact int64; the
 * caller takes one sqrt — monotone, so max-of-sqrt == sqrt-of-max and
 * the float64 result is bit-identical to the NumPy chain). */
EXPORT int64_t repro_window_max_euclidean_sq(
    const int64_t *a, const int64_t *b, int64_t m, int64_t d)
{
    int64_t best = 0;
    for (int64_t r = 0; r < m; ++r) {
        const int64_t *pa = a + r * d;
        const int64_t *pb = b + r * d;
        int64_t s = 0;
        for (int64_t i = 0; i < d; ++i) {
            int64_t diff = pa[i] - pb[i];
            s += diff * diff;
        }
        best = i64max(best, s);
    }
    return best;
}

/* ------------------------------------------------------------------ */
/* Delta fold                                                          */
/* ------------------------------------------------------------------ */

/* sum over m paired keys of |a - b| — the integer edge-delta fold
 * behind population-stretch evaluation (repro.core.optimal.delta_fold)
 * and the DynamicUniverse recompute/re-selection passes.  int64
 * addition is associative, so the fold order cannot change the result
 * vs the NumPy reduction. */
EXPORT int64_t repro_delta_fold(
    const int64_t *a, const int64_t *b, int64_t m)
{
    int64_t s = 0;
    for (int64_t r = 0; r < m; ++r) s += i64abs(a[r] - b[r]);
    return s;
}

/* ------------------------------------------------------------------ */
/* Curve encode / decode                                               */
/* ------------------------------------------------------------------ */

/* The Python side guarantees k * d <= 62 for every bitwise kernel, so
 * d <= REPRO_MAX_D and keys fit in int64.  k >= 1 for Z, Gray and
 * Hilbert; a Moore quadrant is a Hilbert cube of order k - 1 >= 0, so
 * the Hilbert helpers also take k = 0 (the one-cell cube, key 0). */

/* Morton interleave: coordinate bit b of axis i lands at key bit
 * b*d + (d-1-i) — the layout of repro.curves.zcurve.interleave_bits. */
static inline int64_t interleave_point(
    const int64_t *x, int64_t d, int64_t k)
{
    int64_t key = 0;
    for (int64_t b = 0; b < k; ++b)
        for (int64_t i = 0; i < d; ++i)
            key |= ((x[i] >> b) & 1) << (b * d + (d - 1 - i));
    return key;
}

static inline void deinterleave_point(
    int64_t key, int64_t d, int64_t k, int64_t *x)
{
    for (int64_t i = 0; i < d; ++i) x[i] = 0;
    for (int64_t b = 0; b < k; ++b)
        for (int64_t i = 0; i < d; ++i)
            x[i] |= ((key >> (b * d + (d - 1 - i))) & 1) << b;
}

/* Inverse reflected-binary Gray code (prefix XOR); values are
 * non-negative, so the arithmetic right shift is a logical one. */
static inline int64_t gray_decode64(int64_t v)
{
    for (int64_t s = 1; s < 64; s <<= 1) v ^= v >> s;
    return v;
}

EXPORT void repro_z_encode(
    const int64_t *coords, int64_t m, int64_t d, int64_t k, int64_t *keys)
{
    for (int64_t r = 0; r < m; ++r)
        keys[r] = interleave_point(coords + r * d, d, k);
}

EXPORT void repro_z_decode(
    const int64_t *keys, int64_t m, int64_t d, int64_t k, int64_t *coords)
{
    for (int64_t r = 0; r < m; ++r)
        deinterleave_point(keys[r], d, k, coords + r * d);
}

EXPORT void repro_gray_encode(
    const int64_t *coords, int64_t m, int64_t d, int64_t k, int64_t *keys)
{
    for (int64_t r = 0; r < m; ++r)
        keys[r] = gray_decode64(interleave_point(coords + r * d, d, k));
}

EXPORT void repro_gray_decode(
    const int64_t *keys, int64_t m, int64_t d, int64_t k, int64_t *coords)
{
    for (int64_t r = 0; r < m; ++r) {
        int64_t g = keys[r] ^ (keys[r] >> 1);
        deinterleave_point(g, d, k, coords + r * d);
    }
}

/* Skilling's AxestoTranspose (per point) — the scalar original of the
 * vectorized port in repro.curves.hilbert. */
static void axes_to_transpose_point(int64_t *X, int64_t d, int64_t k)
{
    int64_t M = ((int64_t)1 << k) >> 1;
    for (int64_t Q = M; Q > 1; Q >>= 1) {
        int64_t P = Q - 1;
        for (int64_t i = 0; i < d; ++i) {
            if (X[i] & Q) {
                X[0] ^= P;
            } else {
                int64_t t = (X[0] ^ X[i]) & P;
                X[0] ^= t;
                X[i] ^= t;
            }
        }
    }
    for (int64_t i = 1; i < d; ++i) X[i] ^= X[i - 1];
    int64_t t = 0;
    for (int64_t Q = M; Q > 1; Q >>= 1)
        if (X[d - 1] & Q) t ^= Q - 1;
    for (int64_t i = 0; i < d; ++i) X[i] ^= t;
}

static void transpose_to_axes_point(int64_t *X, int64_t d, int64_t k)
{
    int64_t N = (int64_t)1 << k;
    int64_t t = X[d - 1] >> 1;
    for (int64_t i = d - 1; i > 0; --i) X[i] ^= X[i - 1];
    X[0] ^= t;
    for (int64_t Q = 2; Q < N; Q <<= 1) {
        int64_t P = Q - 1;
        for (int64_t i = d - 1; i >= 0; --i) {
            if (X[i] & Q) {
                X[0] ^= P;
            } else {
                int64_t t2 = (X[0] ^ X[i]) & P;
                X[0] ^= t2;
                X[i] ^= t2;
            }
        }
    }
}

EXPORT void repro_hilbert_encode(
    const int64_t *coords, int64_t m, int64_t d, int64_t k, int64_t *keys)
{
    int64_t X[REPRO_MAX_D];
    for (int64_t r = 0; r < m; ++r) {
        const int64_t *src = coords + r * d;
        for (int64_t i = 0; i < d; ++i) X[i] = src[i];
        axes_to_transpose_point(X, d, k);
        keys[r] = interleave_point(X, d, k);
    }
}

EXPORT void repro_hilbert_decode(
    const int64_t *keys, int64_t m, int64_t d, int64_t k, int64_t *coords)
{
    int64_t X[REPRO_MAX_D];
    for (int64_t r = 0; r < m; ++r) {
        deinterleave_point(keys[r], d, k, X);
        transpose_to_axes_point(X, d, k);
        int64_t *dst = coords + r * d;
        for (int64_t i = 0; i < d; ++i) dst[i] = X[i];
    }
}

/* Boustrophedon scan for any side: the emitted digit of an axis flips
 * direction with the parity of the higher original coordinates.
 * `top` is side^(d-1). */
static inline int64_t snake_point(
    const int64_t *x, int64_t d, int64_t side, int64_t top)
{
    int64_t key = 0, parity = 0, weight = top;
    for (int64_t axis = d - 1; axis >= 0; --axis) {
        int64_t digit = x[axis];
        int64_t eff = (parity % 2 == 0) ? digit : side - 1 - digit;
        key += eff * weight;
        parity += digit;
        weight /= side;
    }
    return key;
}

EXPORT void repro_snake_encode(
    const int64_t *coords, int64_t m, int64_t d, int64_t side,
    int64_t *keys)
{
    int64_t top = 1;
    for (int64_t i = 0; i < d - 1; ++i) top *= side;
    for (int64_t r = 0; r < m; ++r)
        keys[r] = snake_point(coords + r * d, d, side, top);
}

EXPORT void repro_snake_decode(
    const int64_t *keys, int64_t m, int64_t d, int64_t side,
    int64_t *coords)
{
    int64_t top = 1;
    for (int64_t i = 0; i < d - 1; ++i) top *= side;
    for (int64_t r = 0; r < m; ++r) {
        int64_t rest = keys[r], parity = 0, weight = top;
        int64_t *x = coords + r * d;
        for (int64_t axis = d - 1; axis >= 0; --axis) {
            int64_t eff = rest / weight;
            rest %= weight;
            int64_t digit = (parity % 2 == 0) ? eff : side - 1 - eff;
            x[axis] = digit;
            parity += digit;
            weight /= side;
        }
    }
}

/* ------------------------------------------------------------------ */
/* Key-grid slabs                                                      */
/* ------------------------------------------------------------------ */

/* A slab is key_grid()[lo:hi] for one universe: (hi-lo) * side^(d-1)
 * keys in C order, with 0 <= lo < hi <= side (the Python side returns
 * empty slabs itself).  The kernels below take the cell coordinates
 * from the output position, so no coordinate array exists anywhere. */

/* XOR-separable curves (Z, Gray): key(x) = XOR_a tab_a[x_a].
 * `tab` holds d tables back to back: axis 0 has `rows` entries (for
 * x_0 = lo .. hi-1), every other axis `side` entries.  Axis by axis,
 * out[i * len + v] = out[i] ^ tab_a[v] expands the prefix in place;
 * walking i downwards never overwrites an out[i] still to be read,
 * because every write lands at an index >= i * len >= i. */
EXPORT void repro_xor_slab(
    const int64_t *tab, int64_t d, int64_t side, int64_t rows,
    int64_t *out)
{
    int64_t n = 1;
    out[0] = 0;
    for (int64_t a = 0; a < d; ++a) {
        int64_t len = a == 0 ? rows : side;
        for (int64_t i = n - 1; i >= 0; --i) {
            int64_t base = out[i];
            int64_t *dst = out + i * len;
            for (int64_t v = len - 1; v >= 0; --v) dst[v] = base ^ tab[v];
        }
        tab += len;
        n *= len;
    }
}

/* Skilling's levels Q >= 2^m on the aligned sub-cube corner c.  Those
 * levels read only the bits >= m, and on the low m bits they act as a
 * signed axis permutation: `X0 ^= P` complements all low bits of X0,
 * the X0/Xi exchange swaps them.  So for l in [0, 2^m)^d the low bits
 * of X_i after these levels are l[perm[i]] ^ (flip[i] ? 2^m - 1 : 0).
 * The remaining levels, Gray step and final XOR act on the low bits
 * exactly as the k = m encode does, except that the final XOR mask
 * also complements every low bit when an odd number of the high bits
 * of the Gray-coded X_{d-1} are set.  Returns the key bits >= m*d of
 * every cell of the sub-cube; *parity receives that complement flag. */
static int64_t hilbert_corner(
    const int64_t *c, int64_t d, int64_t k, int64_t m,
    int64_t *perm, int64_t *flip, int64_t *parity)
{
    int64_t X[REPRO_MAX_D];
    int64_t low = ((int64_t)1 << m) - 1;
    for (int64_t i = 0; i < d; ++i) {
        X[i] = c[i];
        perm[i] = i;
        flip[i] = 0;
    }
    for (int64_t Q = ((int64_t)1 << k) >> 1; Q > low; Q >>= 1) {
        int64_t P = Q - 1;
        for (int64_t i = 0; i < d; ++i) {
            if (X[i] & Q) {
                X[0] ^= P;
                flip[0] ^= 1;
            } else {
                int64_t t = (X[0] ^ X[i]) & P;
                X[0] ^= t;
                X[i] ^= t;
                int64_t p = perm[0], f = flip[0];
                perm[0] = perm[i];
                flip[0] = flip[i];
                perm[i] = p;
                flip[i] = f;
            }
        }
    }
    for (int64_t i = 1; i < d; ++i) X[i] ^= X[i - 1];
    int64_t t = 0;
    for (int64_t Q = ((int64_t)1 << k) >> 1; Q > low; Q >>= 1)
        if (X[d - 1] & Q) t ^= Q - 1;
    *parity = (t & low) != 0;
    for (int64_t i = 0; i < d; ++i) X[i] = (X[i] ^ t) & ~low;
    return interleave_point(X, d, k);
}

/* Hilbert keys of one box of side 2^k, by aligned sub-cubes of side
 * 2^m.  The box is seen through a signed axis permutation: box cell b
 * has Hilbert coordinates h_j = F[j] ? 2^k - 1 - b[pi[j]] : b[pi[j]]
 * and key add + H(h), with add a multiple of 2^(k*d).  Per sub-cube
 * with Hilbert corner c,
 *   H(c + l) = H(c) | (T[sigma_c(l)] ^ (p_c ? 2^(m*d) - 1 : 0))
 * with T the k = m Hilbert keys of the local cube in C order.  `LT` is
 * d * 2^m scratch: per sub-cube, LT[a][v] is the T-index bits that the
 * box-local offset l_a = v contributes, so sigma_c(l) = OR_a LT[a][l_a];
 * the box map only relabels and flips those rows.  Box rows b_0 in
 * [lo, hi) are written, cell b at out + (b_0 - lo) * stride[0] +
 * sum_{a >= 1} b_a * stride[a], with stride[d-1] = 1. */
static void hilbert_box(
    const int64_t *T, int64_t *LT, int64_t d, int64_t k, int64_t m,
    const int64_t *pi, const int64_t *F, int64_t add,
    int64_t lo, int64_t hi, const int64_t *stride, int64_t *out)
{
    int64_t side = (int64_t)1 << k, cube = (int64_t)1 << m;
    int64_t c[REPRO_MAX_D], h[REPRO_MAX_D], perm[REPRO_MAX_D];
    int64_t flip[REPRO_MAX_D], l[REPRO_MAX_D], first[REPRO_MAX_D];
    int64_t last[REPRO_MAX_D];
    for (int64_t a = 0; a < d; ++a) {
        c[a] = 0;
        first[a] = 0;
        last[a] = cube;
    }
    c[0] = lo & ~(cube - 1);
    for (;;) {
        for (int64_t j = 0; j < d; ++j)
            h[j] = F[j] ? side - cube - c[pi[j]] : c[pi[j]];
        int64_t parity;
        /* H(c) has no bits below m*d and add none below k*d, so the
         * sum ORs with the local keys. */
        int64_t high = add + hilbert_corner(h, d, k, m, perm, flip, &parity);
        int64_t pmask = parity ? ((int64_t)1 << (m * d)) - 1 : 0;
        for (int64_t i = 0; i < d; ++i) {
            int64_t j = perm[i];
            int64_t shift = m * (d - 1 - i);
            int64_t f = (flip[i] ^ F[j]) ? cube - 1 : 0;
            int64_t *row = LT + pi[j] * cube;
            for (int64_t v = 0; v < cube; ++v) row[v] = (v ^ f) << shift;
        }
        first[0] = (lo > c[0] ? lo : c[0]) - c[0];
        last[0] = (hi < c[0] + cube ? hi : c[0] + cube) - c[0];
        int64_t origin = (c[0] - lo) * stride[0];
        for (int64_t a = 1; a < d; ++a) origin += c[a] * stride[a];
        for (int64_t a = 0; a < d; ++a) l[a] = first[a];
        const int64_t *inner = LT + (d - 1) * cube;
        for (;;) {
            int64_t idx = 0, off = origin;
            for (int64_t a = 0; a < d - 1; ++a) {
                idx |= LT[a * cube + l[a]];
                off += l[a] * stride[a];
            }
            for (int64_t v = first[d - 1]; v < last[d - 1]; ++v)
                out[off + v] = high | (T[idx | inner[v]] ^ pmask);
            int64_t a = d - 2;
            for (; a >= 0; --a) {
                if (++l[a] < last[a]) break;
                l[a] = first[a];
            }
            if (a < 0) break;
        }
        int64_t a = d - 1;
        for (; a > 0; --a) {
            c[a] += cube;
            if (c[a] < side) break;
            c[a] = 0;
        }
        if (a == 0) {
            c[0] += cube;
            if (c[0] >= hi) break;
        }
    }
}

/* Hilbert slab: the box of the whole grid, unpermuted.  T and LT as
 * in hilbert_box. */
EXPORT void repro_hilbert_slab(
    const int64_t *T, int64_t *LT, int64_t d, int64_t k, int64_t m,
    int64_t lo, int64_t hi, int64_t *out)
{
    int64_t side = (int64_t)1 << k;
    int64_t stride[REPRO_MAX_D], pi[REPRO_MAX_D], F[REPRO_MAX_D];
    stride[d - 1] = 1;
    for (int64_t a = d - 2; a >= 0; --a) stride[a] = stride[a + 1] * side;
    for (int64_t a = 0; a < d; ++a) {
        pi[a] = a;
        F[a] = 0;
    }
    hilbert_box(T, LT, d, k, m, pi, F, 0, lo, hi, stride, out);
}

/* The Moore curve of order k (side 2s, s = 2^(k-1)) on its cell x:
 * quadrant q holds keys [q s^2, (q+1) s^2); the left half reads its
 * local (u, v) as the Hilbert cell (v, s-1-u), the right half as
 * (s-1-v, u) — the layout of repro.curves.moore. */
static inline int64_t moore_point(const int64_t *x, int64_t k)
{
    int64_t h = k - 1, s = (int64_t)1 << h;
    int64_t right = x[0] >= s, top = x[1] >= s;
    int64_t u = x[0] - right * s, v = x[1] - top * s;
    int64_t X[2];
    X[0] = right ? s - 1 - v : v;
    X[1] = right ? u : s - 1 - u;
    axes_to_transpose_point(X, 2, h);
    int64_t q = right ? 3 - top : top;
    return q * s * s + interleave_point(X, 2, h);
}

EXPORT void repro_moore_encode(
    const int64_t *coords, int64_t m, int64_t d, int64_t k, int64_t *keys)
{
    (void)d;
    for (int64_t r = 0; r < m; ++r) keys[r] = moore_point(coords + 2 * r, k);
}

EXPORT void repro_moore_decode(
    const int64_t *keys, int64_t m, int64_t d, int64_t k, int64_t *coords)
{
    (void)d;
    int64_t h = k - 1, s = (int64_t)1 << h;
    for (int64_t r = 0; r < m; ++r) {
        int64_t q = keys[r] / (s * s), X[2];
        deinterleave_point(keys[r] % (s * s), 2, h, X);
        transpose_to_axes_point(X, 2, h);
        int64_t right = q >= 2, top = q == 1 || q == 2;
        int64_t *x = coords + 2 * r;
        x[0] = (right ? X[1] : s - 1 - X[1]) + right * s;
        x[1] = (right ? s - 1 - X[0] : X[0]) + top * s;
    }
}

/* Moore slab of the curve of order h + 1 (d = 2): per quadrant, the
 * rows of [lo, hi) it holds as one Hilbert box of order h (T, LT and m
 * as for that box). */
EXPORT void repro_moore_slab(
    const int64_t *T, int64_t *LT, int64_t d, int64_t h, int64_t m,
    int64_t lo, int64_t hi, int64_t *out)
{
    (void)d;
    int64_t s = (int64_t)1 << h;
    const int64_t stride[2] = {2 * s, 1}, pi[2] = {1, 0};
    const int64_t left[2] = {0, 1}, right[2] = {1, 0};
    for (int64_t qx = 0; qx < 2; ++qx) {
        int64_t blo = lo > qx * s ? lo : qx * s;
        int64_t bhi = hi < qx * s + s ? hi : qx * s + s;
        if (blo >= bhi) continue;
        for (int64_t qy = 0; qy < 2; ++qy) {
            int64_t q = qx ? 3 - qy : qy;
            hilbert_box(T, LT, 2, h, m, pi, qx ? right : left,
                        q * s * s, blo - qx * s, bhi - qx * s, stride,
                        out + (blo - lo) * stride[0] + qy * s);
        }
    }
}

/* Advance the C-order position x of a slab by one cell: the last axis
 * fastest, axis 0 (the slab's row) slowest. */
static inline void next_cell(int64_t *x, int64_t d, int64_t side)
{
    for (int64_t a = d - 1; a > 0; --a) {
        if (++x[a] < side) return;
        x[a] = 0;
    }
    ++x[0];
}

/* Snake slab: the per-point arithmetic above, with the coordinates
 * walked in C order from (lo, 0, ..., 0). */
EXPORT void repro_snake_slab(
    int64_t d, int64_t side, int64_t lo, int64_t hi, int64_t *out)
{
    int64_t x[REPRO_MAX_D];
    int64_t top = 1;
    for (int64_t i = 0; i < d - 1; ++i) top *= side;
    for (int64_t a = 0; a < d; ++a) x[a] = 0;
    x[0] = lo;
    int64_t total = (hi - lo) * top;
    for (int64_t r = 0; r < total; ++r) {
        out[r] = snake_point(x, d, side, top);
        next_cell(x, d, side);
    }
}

/* ------------------------------------------------------------------ */
/* Closed-form curves: simple, spiral, diagonal                        */
/* ------------------------------------------------------------------ */

/* Every key below is a sum of non-negative terms bounded by the final
 * key (< n <= 2^63), so no intermediate wraps; see docs/performance.md.
 * The Python side serves side >= 2 only. */

/* Simple curve (row-major): key = sum_a x_a side^a, by Horner. */
EXPORT void repro_simple_encode(
    const int64_t *coords, int64_t m, int64_t d, int64_t side,
    int64_t *keys)
{
    for (int64_t r = 0; r < m; ++r) {
        const int64_t *x = coords + r * d;
        int64_t key = 0;
        for (int64_t a = d - 1; a >= 0; --a) key = key * side + x[a];
        keys[r] = key;
    }
}

EXPORT void repro_simple_decode(
    const int64_t *keys, int64_t m, int64_t d, int64_t side,
    int64_t *coords)
{
    for (int64_t r = 0; r < m; ++r) {
        int64_t rest = keys[r];
        for (int64_t a = 0; a < d; ++a) {
            coords[r * d + a] = rest % side;
            rest /= side;
        }
    }
}

/* Simple slab: each line along the last axis is base + v * side^(d-1). */
EXPORT void repro_simple_slab(
    int64_t d, int64_t side, int64_t lo, int64_t hi, int64_t *out)
{
    if (d == 1) {
        for (int64_t v = lo; v < hi; ++v) *out++ = v;
        return;
    }
    int64_t x[REPRO_MAX_D];
    int64_t top = 1;
    for (int64_t i = 0; i < d - 1; ++i) top *= side;
    for (int64_t a = 0; a < d; ++a) x[a] = 0;
    x[0] = lo;
    int64_t lines = (hi - lo) * (top / side);
    for (int64_t i = 0; i < lines; ++i) {
        int64_t base = 0;
        for (int64_t a = d - 2; a >= 0; --a) base = base * side + x[a];
        for (int64_t v = 0; v < side; ++v) *out++ = base + v * top;
        x[d - 1] = side - 1;
        next_cell(x, d, side);
    }
}

/* Inward spiral on side s: ring r = min(x, y, s-1-x, s-1-y) starts at
 * 4r(s-r); the bottom and right edges (x >= y) sit (x-r) + (y-r) into
 * it, the top and left edges walk back from 4(s-2r-1). */
static inline int64_t spiral_point(int64_t x, int64_t y, int64_t s)
{
    int64_t lo = x < y ? x : y, hi = x > y ? x : y;
    int64_t r = lo < s - 1 - hi ? lo : s - 1 - hi;
    int64_t walked = x + y - 2 * r;
    return 4 * r * (s - r) + (x >= y ? walked : 4 * (s - 2 * r - 1) - walked);
}

EXPORT void repro_spiral_encode(
    const int64_t *coords, int64_t m, int64_t d, int64_t side,
    int64_t *keys)
{
    (void)d;
    for (int64_t r = 0; r < m; ++r)
        keys[r] = spiral_point(coords[2 * r], coords[2 * r + 1], side);
}

EXPORT void repro_spiral_decode(
    const int64_t *keys, int64_t m, int64_t d, int64_t side,
    int64_t *coords)
{
    (void)d;
    for (int64_t i = 0; i < m; ++i) {
        int64_t key = keys[i], lo = 0, hi = (side - 1) / 2;
        /* The ring: the largest r with 4r(s-r) <= key. */
        while (lo < hi) {
            int64_t mid = (lo + hi + 1) / 2;
            if (4 * mid * (side - mid) <= key) lo = mid;
            else hi = mid - 1;
        }
        int64_t off = key - 4 * lo * (side - lo), edge = side - 2 * lo - 1;
        int64_t forward = off <= 2 * edge;
        int64_t walked = forward ? off : 4 * edge - off;
        int64_t near = lo + (walked < edge ? walked : edge);
        int64_t far = lo + (walked > edge ? walked - edge : 0);
        coords[2 * i] = forward ? near : far;
        coords[2 * i + 1] = forward ? far : near;
    }
}

EXPORT void repro_spiral_slab(
    int64_t d, int64_t side, int64_t lo, int64_t hi, int64_t *out)
{
    (void)d;
    for (int64_t x = lo; x < hi; ++x)
        for (int64_t y = 0; y < side; ++y)
            *out++ = spiral_point(x, y, side);
}

/* Diagonal curve, 2-D: the cells with coordinate sum < t (triangular
 * numbers below the main anti-diagonal, n minus them above). */
static inline int64_t diagonal_below(int64_t t, int64_t s)
{
    if (t <= s) return t * (t + 1) / 2;
    int64_t j = 2 * s - 1 - t;
    return s * s - j * (j + 1) / 2;
}

/* Diagonal curve: key = Q_d(R_{d-1}) + sum_{a>=1} (Q_a(R_a + 1) -
 * Q_a(R_{a-1} + 1)) with R_a = x_0 + ... + x_a and Q the prefix tables
 * of repro.curves.diagonal.sum_prefix_tables (d rows of width
 * d(s-1) + 2; NULL for d = 2, which uses the closed form). */
static inline int64_t diagonal_point(
    const int64_t *x, int64_t d, int64_t s, const int64_t *Q)
{
    if (d == 2) {
        int64_t t = x[0] + x[1];
        return diagonal_below(t, s) + x[1] - (t >= s ? t - s + 1 : 0);
    }
    int64_t width = d * (s - 1) + 2, R = x[0], key = 0;
    for (int64_t a = 1; a < d; ++a) {
        const int64_t *row = Q + (a - 1) * width;
        int64_t prev = R;
        R += x[a];
        key += row[R + 1] - row[prev + 1];
    }
    return Q[(d - 1) * width + R] + key;
}

EXPORT void repro_diagonal_encode(
    const int64_t *coords, int64_t m, int64_t d, int64_t side,
    const int64_t *Q, int64_t *keys)
{
    for (int64_t r = 0; r < m; ++r)
        keys[r] = diagonal_point(coords + r * d, d, side, Q);
}

EXPORT void repro_diagonal_decode(
    const int64_t *keys, int64_t m, int64_t d, int64_t side,
    const int64_t *Q, int64_t *coords)
{
    int64_t width = d * (side - 1) + 2;
    const int64_t *top = Q ? Q + (d - 1) * width : 0;
    for (int64_t i = 0; i < m; ++i) {
        int64_t key = keys[i], *x = coords + i * d;
        /* The sum: the largest t whose cells below number <= key. */
        int64_t lo = 0, hi = d * (side - 1);
        while (lo < hi) {
            int64_t mid = (lo + hi + 1) / 2;
            int64_t below = top ? top[mid] : diagonal_below(mid, side);
            if (below <= key) lo = mid;
            else hi = mid - 1;
        }
        int64_t R = lo;
        if (d == 2) {
            int64_t y = key - diagonal_below(R, side)
                + (R >= side ? R - side + 1 : 0);
            x[0] = R - y;
            x[1] = y;
            continue;
        }
        int64_t rest = key - top[R];
        for (int64_t a = d - 1; a >= 1; --a) {
            /* x_a: the largest digit whose same-sum cells with a
             * smaller digit on this axis number <= rest. */
            const int64_t *row = Q + (a - 1) * width;
            int64_t start = row[R + 1];
            int64_t dlo = R - a * (side - 1), dhi = side - 1;
            if (dlo < 0) dlo = 0;
            if (dhi > R) dhi = R;
            while (dlo < dhi) {
                int64_t mid = (dlo + dhi + 1) / 2;
                if (start - row[R - mid + 1] <= rest) dlo = mid;
                else dhi = mid - 1;
            }
            rest -= start - row[R - dlo + 1];
            x[a] = dlo;
            R -= dlo;
        }
        x[0] = R;
    }
}

/* Diagonal slab: the per-point arithmetic, walked in C order. */
EXPORT void repro_diagonal_slab(
    const int64_t *Q, int64_t d, int64_t side, int64_t lo, int64_t hi,
    int64_t *out)
{
    int64_t x[REPRO_MAX_D];
    int64_t top = 1;
    for (int64_t i = 0; i < d - 1; ++i) top *= side;
    for (int64_t a = 0; a < d; ++a) x[a] = 0;
    x[0] = lo;
    int64_t total = (hi - lo) * top;
    for (int64_t r = 0; r < total; ++r) {
        out[r] = diagonal_point(x, d, side, Q);
        next_cell(x, d, side);
    }
}
