/* Compiled mirror of lorenz._deriv, lorenz._rk4 and the integrate_pair loop.
 *
 * The pure-Python kernel in lorenz.py is the bit-level specification; every
 * expression below repeats one Python line, operation for operation and in
 * the same order.  Bit identity needs each binary operation to be one IEEE-754
 * binary64 round-to-nearest-even operation, so lorenz.py builds this file
 * with -ffp-contract=off (no fused multiply-add) and -fno-fast-math (no
 * reassociation, no flush-to-zero), and refuses any platform that evaluates
 * double expressions in a wider format.  Do not vectorise or reassociate.
 * lorenz_pair integrates all three components of both orbits and writes
 * only the requested one, two doubles per step, through one pointer into the
 * caller's C-contiguous float64 buffer, integrate_pair's (n_steps, 2) array.
 */

#include <float.h>
#include <math.h>
#include <stdint.h>

#if !defined(FLT_EVAL_METHOD) || FLT_EVAL_METHOD != 0
#error "the Lorenz kernel needs FLT_EVAL_METHOD == 0 (no excess precision)"
#endif

static void deriv(double x, double y, double z,
                  double sigma, double rho, double beta, int expanded,
                  double *dx, double *dy, double *dz)
{
    *dx = sigma * (y - x);
    if (expanded)
        *dy = x * rho - x * z - y;
    else
        *dy = x * (rho - z) - y;
    *dz = x * y - beta * z;
}

static void rk4(double *x, double *y, double *z,
                double sigma, double rho, double beta, double h, int expanded)
{
    double k1x, k1y, k1z, k2x, k2y, k2z, k3x, k3y, k3z, k4x, k4y, k4z;
    double h2 = h * 0.5;
    deriv(*x, *y, *z, sigma, rho, beta, expanded, &k1x, &k1y, &k1z);
    deriv(*x + h2 * k1x, *y + h2 * k1y, *z + h2 * k1z,
          sigma, rho, beta, expanded, &k2x, &k2y, &k2z);
    deriv(*x + h2 * k2x, *y + h2 * k2y, *z + h2 * k2z,
          sigma, rho, beta, expanded, &k3x, &k3y, &k3z);
    deriv(*x + h * k3x, *y + h * k3y, *z + h * k3z,
          sigma, rho, beta, expanded, &k4x, &k4y, &k4z);
    double h6 = h / 6.0;
    *x = *x + h6 * (k1x + 2.0 * k2x + 2.0 * k3x + k4x);
    *y = *y + h6 * (k1y + 2.0 * k2y + 2.0 * k3y + k4y);
    *z = *z + h6 * (k1z + 2.0 * k2z + 2.0 * k3z + k4z);
}

/* Write two doubles per step to out: component c (0 = x, 1 = y, 2 = z) of
 * variant A, then of variant B.  Returns 0, or 1 (variant A) / 2 (variant B)
 * for the first non-finite state, with its step index in *bad_step; all three
 * components are checked, A before B in each step. */
int lorenz_pair(double x0, double y0, double z0,
                double sigma, double rho, double beta, double h,
                int64_t n_steps, int c, double *out, int64_t *bad_step)
{
    double xa = x0, ya = y0, za = z0;
    double xb = x0, yb = y0, zb = z0;
    for (int64_t n = 0; n < n_steps; n++, out += 2) {
        rk4(&xa, &ya, &za, sigma, rho, beta, h, 0);
        if (!(isfinite(xa) && isfinite(ya) && isfinite(za))) {
            *bad_step = n;
            return 1;
        }
        rk4(&xb, &yb, &zb, sigma, rho, beta, h, 1);
        if (!(isfinite(xb) && isfinite(yb) && isfinite(zb))) {
            *bad_step = n;
            return 2;
        }
        out[0] = c == 0 ? xa : c == 1 ? ya : za;
        out[1] = c == 0 ? xb : c == 1 ? yb : zb;
    }
    return 0;
}
