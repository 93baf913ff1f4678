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
 * lorenz_key, the one entry point, stores no orbit: it turns each sample of
 * the keyed component into a key byte and XORs it into the caller's byte
 * buffer.  Its Python counterpart, used without a compiler and by the
 * self-check that decides whether this file is used at all, is
 * lorenz._key_python.
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
