/* Compiled mirror of lorenz._deriv and lorenz._rk4, fused with the key
 * extraction of keystream.py's lower_bound_error and extract_bytes.
 *
 * The pure-Python kernel in lorenz.py is the bit-level specification; every
 * expression below repeats one Python line, operation for operation and in
 * the same order.  Bit identity needs each binary operation to be one IEEE-754
 * binary64 round-to-nearest-even operation, so lorenz.py builds this file
 * with -ffp-contract=off (no fused multiply-add) and -fno-fast-math (no
 * reassociation, no flush-to-zero), and refuses any platform that evaluates
 * double expressions in a wider format.
 *
 * Variants A and B are two independent orbits, integrated together in the
 * two lanes of one v2d vector: lane 0 is A, lane 1 is B.  An operation on
 * v2d is the same binary64 operation applied to each lane on its own (SSE2
 * on x86-64, NEON on aarch64), so each lane performs exactly the oracle's
 * operations in the oracle's order.  Lanes never mix, and no operation is
 * reordered in time or fused; the only per-lane difference is dy, where
 * both forms are computed and lane 0 keeps A's, lane 1 B's.
 * lorenz_key stores no orbit: it turns each sample of the keyed component
 * into a key byte and XORs it into the caller's byte buffer.  Its Python
 * counterpart, used without a compiler and by the self-check that decides
 * whether this file is used at all, is lorenz._key_python.
 *
 * count_bytes, the second entry point, is metrics.histogram's byte counter;
 * pair_moments, the third, sums the moments of metrics.adjacent_correlation.
 * Without this file histogram counts with np.bincount and the correlation
 * sums its moments with numpy, whose summation order pair_moments repeats.
 */

#include <float.h>
#include <math.h>
#include <stdint.h>
#include <string.h>

#if !defined(FLT_EVAL_METHOD) || FLT_EVAL_METHOD != 0
#error "the Lorenz kernel needs FLT_EVAL_METHOD == 0 (no excess precision)"
#endif

typedef double v2d __attribute__((vector_size(16)));

static void deriv(v2d x, v2d y, v2d z, v2d sigma, v2d rho, v2d beta,
                  v2d *dx, v2d *dy, v2d *dz)
{
    *dx = sigma * (y - x);
    v2d a = x * (rho - z) - y;
    v2d b = x * rho - x * z - y;
    *dy = (v2d){a[0], b[1]};
    *dz = x * y - beta * z;
}

static inline void rk4(v2d *x, v2d *y, v2d *z, v2d sigma, v2d rho, v2d beta, v2d h)
{
    const v2d half = {0.5, 0.5}, two = {2.0, 2.0}, six = {6.0, 6.0};
    v2d k1x, k1y, k1z, k2x, k2y, k2z, k3x, k3y, k3z, k4x, k4y, k4z;
    v2d h2 = h * half;
    deriv(*x, *y, *z, sigma, rho, beta, &k1x, &k1y, &k1z);
    deriv(*x + h2 * k1x, *y + h2 * k1y, *z + h2 * k1z,
          sigma, rho, beta, &k2x, &k2y, &k2z);
    deriv(*x + h2 * k2x, *y + h2 * k2y, *z + h2 * k2z,
          sigma, rho, beta, &k3x, &k3y, &k3z);
    deriv(*x + h * k3x, *y + h * k3y, *z + h * k3z,
          sigma, rho, beta, &k4x, &k4y, &k4z);
    v2d h6 = h / six;
    *x = *x + h6 * (k1x + two * k2x + two * k3x + k4x);
    *y = *y + h6 * (k1y + two * k2y + two * k3y + k4y);
    *z = *z + h6 * (k1z + two * k2z + two * k3z + k4z);
}

/* XOR key byte k into *p; 1 if k is zero, else 0. */
static int64_t xor_key(unsigned char *p, unsigned char k)
{
    *p ^= k;
    return k == 0;
}

/* XOR n key bytes into out after transient + n RK4 steps of both lanes from
 * state (A's x, y, z, then B's), and store in *count how many key bytes are
 * zero.  Every step gives delta = |a - b| * 0.5 of component c (0 = x,
 * 1 = y, 2 = z); the last n form the window.  With window == NULL each key
 * byte is the low byte of delta's binary64 bits (mantissa-lsb).  Otherwise
 * the window's deltas are stored there first, and each key byte is
 * floor((delta - lo) / (hi - lo) * 255.0) over the window's least and
 * greatest delta, or 0 when they are equal (minmax-scale).
 * Returns 0 and writes the final state back to state; 1 (variant A) or
 * 2 (variant B) for the first non-finite state, all three components checked
 * and A before B, with its step index in *count; or 3 if any delta is not
 * finite.  A non-finite state anywhere wins over a non-finite delta, as
 * integrate_pair runs before lower_bound_error looks at the deltas. */
int lorenz_key(double *state, double sigma, double rho, double beta, double h,
               int64_t transient, int64_t n, int c,
               unsigned char *out, double *window, int64_t *count)
{
    v2d x = {state[0], state[3]}, y = {state[1], state[4]}, z = {state[2], state[5]};
    const v2d s = {sigma, sigma}, r = {rho, rho}, b = {beta, beta}, hh = {h, h};
    int finite = 1;
    int64_t zeros = 0;
    for (int64_t i = -transient; i < n; i++) {
        rk4(&x, &y, &z, s, r, b, hh);
        for (int v = 0; v < 2; v++)
            if (!(isfinite(x[v]) && isfinite(y[v]) && isfinite(z[v]))) {
                *count = i + transient;
                return v + 1;
            }
        v2d v = c == 0 ? x : c == 1 ? y : z;
        double delta = fabs(v[0] - v[1]) * 0.5;
        if (!isfinite(delta))
            finite = 0;
        if (i < 0)
            continue;
        if (window) {
            window[i] = delta;
        } else {
            uint64_t bits;
            memcpy(&bits, &delta, sizeof bits);
            zeros += xor_key(out + i, (unsigned char)bits);
        }
    }
    if (!finite)
        return 3;
    if (window) {
        /* Every delta is finite and >= 0 here, so hi - lo is finite. */
        double lo = window[0], hi = window[0];
        for (int64_t i = 1; i < n; i++) {
            lo = window[i] < lo ? window[i] : lo;
            hi = window[i] > hi ? window[i] : hi;
        }
        /* The scaled value lies in [0, 255], where the cast's truncation is
         * numpy's floor. */
        double range = hi - lo;
        for (int64_t i = 0; i < n; i++)
            zeros += xor_key(out + i, hi == lo ? 0 : (unsigned char)((window[i] - lo) / range * 255.0));
    }
    *count = zeros;
    double final[6] = {x[0], y[0], z[0], x[1], y[1], z[1]};
    memcpy(state, final, sizeof final);
    return 0;
}

/* Add the count of each byte value among the n bytes at data into
 * counts[0..255].  Byte i goes to table i % 4, so a run of one value, as in
 * a smooth image, spreads its increments over four counters instead of
 * waiting on one. */
void count_bytes(const unsigned char *data, int64_t n, int64_t *counts)
{
    int64_t t[4][256];
    memset(t, 0, sizeof t);
    int64_t i = 0;
    for (; i + 4 <= n; i += 4) {
        t[0][data[i]]++;
        t[1][data[i + 1]]++;
        t[2][data[i + 2]]++;
        t[3][data[i + 3]]++;
    }
    for (; i < n; i++)
        t[0][data[i]]++;
    for (int v = 0; v < 256; v++)
        counts[v] += t[0][v] + t[1][v] + t[2][v] + t[3][v];
}

/* Pairs per block of metrics._tree_sum, and items per leaf of numpy's
 * pairwise sum. */
#define BLOCK 32768
#define LEAF 128

/* One direction's pairs: the rows x cols bytes at x and at y, both with row
 * stride `stride`, and each series' centring table, l[v] = (double)v - mean,
 * numpy's uint8 to float64 cast followed by its subtraction. */
struct pairs {
    const unsigned char *x, *y;
    int64_t cols, stride;
    double lx[256], ly[256];
};

/* The sum of the n bytes at p.  The even and the odd bytes of each 64-bit
 * word go into four 16-bit lanes, which take 128 words (at most 65,280 each)
 * before they are added up. */
static int64_t byte_sum(const unsigned char *p, int64_t n)
{
    const uint64_t even = 0x00ff00ff00ff00ffu;
    int64_t sum = 0, i = 0;
    while (n - i >= 8) {
        uint64_t lanes = 0, w;
        for (int k = 0; k < 128 && n - i >= 8; k++, i += 8) {
            memcpy(&w, p + i, sizeof w);
            lanes += (w & even) + (w >> 8 & even);
        }
        for (int k = 0; k < 64; k += 16)
            sum += (int64_t)(lanes >> k & 0xffff);
    }
    while (i < n)
        sum += p[i++];
    return sum;
}

/* The mean of the rows x cols bytes at p: an exact integer sum, divided once. */
static double mean(const unsigned char *p, int64_t rows, int64_t cols, int64_t stride)
{
    int64_t sum = 0;
    for (int64_t i = 0; i < rows; i++)
        sum += byte_sum(p + i * stride, cols);
    return (double)sum / (double)(rows * cols);
}

/* ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)) of numpy's eight
 * accumulators r0 .. r7, held two by two in r[0] .. r[3]. */
static double combine(const v2d r[4])
{
    return ((r[0][0] + r[0][1]) + (r[1][0] + r[1][1]))
        + ((r[2][0] + r[2][1]) + (r[3][0] + r[3][1]));
}

/* Into s, the sums of (x - mx)^2, (y - my)^2 and (x - mx)(y - my) over pairs
 * lo .. lo + n - 1 in row-major order, n <= LEAF, added as numpy's
 * pairwise_sum adds a leaf: below 8 items one by one from 0.0; otherwise in
 * eight accumulators seeded with the first eight items and strided by eight,
 * combined pairwise, and then the remaining items one by one. */
static void leaf(const struct pairs *p, int64_t lo, int n, double s[3])
{
    unsigned char bx[LEAF], by[LEAF];
    int64_t row = lo / p->cols, col = lo % p->cols;
    const unsigned char *x = p->x + row * p->stride + col, *y = p->y + row * p->stride + col;
    if (col + n > p->cols) {
        /* The pairs run past the end of a row: copy them into one run. */
        for (int k = 0; k < n; row++, col = 0) {
            int run = p->cols - col < n - k ? (int)(p->cols - col) : n - k;
            memcpy(bx + k, p->x + row * p->stride + col, run);
            memcpy(by + k, p->y + row * p->stride + col, run);
            k += run;
        }
        x = bx;
        y = by;
    }
    const double *lx = p->lx, *ly = p->ly;
    double sxx = 0.0, syy = 0.0, sxy = 0.0;
    int unrolled = n < 8 ? 0 : n - n % 8;
    if (unrolled) {
        /* The first eight items seed the accumulators. */
        v2d xx[4], yy[4], xy[4];
        for (int i = 0; i < unrolled; i += 8)
            for (int j = 0; j < 4; j++) {
                const unsigned char *u = x + i + 2 * j, *w = y + i + 2 * j;
                v2d a = {lx[u[0]], lx[u[1]]}, b = {ly[w[0]], ly[w[1]]};
                xx[j] = i ? xx[j] + a * a : a * a;
                yy[j] = i ? yy[j] + b * b : b * b;
                xy[j] = i ? xy[j] + a * b : a * b;
            }
        sxx = combine(xx);
        syy = combine(yy);
        sxy = combine(xy);
    }
    for (int i = unrolled; i < n; i++) {
        sxx += lx[x[i]] * lx[x[i]];
        syy += ly[y[i]] * ly[y[i]];
        sxy += lx[x[i]] * ly[y[i]];
    }
    s[0] = sxx;
    s[1] = syy;
    s[2] = sxy;
}

/* The sums of leaf over pairs lo .. lo + n - 1 along numpy's pairwise tree,
 * which above LEAF items splits n at n / 2 - (n / 2) % 8 and adds the sums of
 * the two halves.  metrics._tree_sum splits the same way above BLOCK pairs
 * (limit == BLOCK), where each block's numpy .sum() adds the pairwise sum to
 * the identity 0.0.  That addition only turns a -0.0 block sum into +0.0,
 * which no moment sum shows: a -0.0 sum needs every product to be -0.0, a
 * +0.0 centred value times a negative one, so that no centred value of
 * either series is positive, which their means rule out.  No self-check can
 * see it; it stays to mirror numpy operation for operation. */
static void tree(const struct pairs *p, int64_t lo, int64_t n, int64_t limit, double s[3])
{
    if (n > limit) {
        int64_t half = n / 2 - (n / 2) % 8;
        double t[3];
        tree(p, lo, half, limit, s);
        tree(p, lo + half, n - half, limit, t);
        for (int k = 0; k < 3; k++)
            s[k] = s[k] + t[k];
    } else if (limit == BLOCK) {
        tree(p, lo, n, LEAF, s);
        for (int k = 0; k < 3; k++)
            s[k] = 0.0 + s[k];
    } else {
        leaf(p, lo, (int)n, s);
    }
}

/* Store in moments the population moment sums (sxx, syy, sxy) of the pairs
 * (x[i * stride + j], y[i * stride + j]), 0 <= i < rows, 0 <= j < cols, bit
 * for bit as metrics.adjacent_correlation sums them with numpy.  Each call
 * keeps its state on its own stack, so threads may call it at once. */
void pair_moments(const unsigned char *x, const unsigned char *y, int64_t rows,
                  int64_t cols, int64_t stride, double *moments)
{
    struct pairs p = {x, y, cols, stride, {0}, {0}};
    double mx = mean(x, rows, cols, stride), my = mean(y, rows, cols, stride);
    for (int i = 0; i < 256; i++) {
        p.lx[i] = (double)i - mx;
        p.ly[i] = (double)i - my;
    }
    tree(&p, 0, rows * cols, BLOCK, moments);
}
