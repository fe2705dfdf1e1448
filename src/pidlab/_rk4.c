/* simulate's RK4 loop (pidlab/plant.py, _python_steps) in C.
 *
 * Each step takes _python_steps' operations in _python_steps' order, on
 * IEEE doubles, so a run is bit for bit the Python loop's: pidlab.kernel
 * builds this file with -ffp-contract=off, so that no a * b + c becomes
 * one fused multiply-add rounded once, and checks the result against the
 * Python loop before first use.
 */
#include <float.h>
#include <stddef.h>

/* Operations in double must round to double, as Python's floats do; x87
 * arithmetic keeps them in extended precision. */
#if !defined(FLT_EVAL_METHOD) || FLT_EVAL_METHOD != 0
#error "double arithmetic is not evaluated in double"
#endif

/* Steps k = start, ..., end - 1 of one run, each writing sample k + 1 of xs
 * and vs. state holds (x, v, q) before step start and is left holding them
 * after step end - 1. c is (kp, ki, kd, a1, a2, dt, clamp). in[i] is the
 * i-th of plant._inputs' ten step arrays (noise, r0, rd0, rm, rdm, r1, rd1,
 * u0, um, u1), whose entry k is in[i][k * stride[i]]: a stride of 0 is a
 * broadcast zero, 2 a view of the half-step reference. */
void rk4_steps(ptrdiff_t start, ptrdiff_t end, double *state, const double *c,
               const double *const *in, const ptrdiff_t *stride,
               double *xs, double *vs)
{
    const double kp = c[0], ki = c[1], kd = c[2], a1 = c[3], a2 = c[4], dt = c[5];
    const double high = c[6], low = -c[6];
    const double half = 0.5 * dt, sixth = dt / 6.0;
    double x = state[0], v = state[1], q = state[2];
    ptrdiff_t k;

    for (k = start; k < end; k++) {
        const double nk = in[0][k * stride[0]];
        const double r0 = in[1][k * stride[1]], rd0 = in[2][k * stride[2]];
        const double rm = in[3][k * stride[3]], rdm = in[4][k * stride[4]];
        const double r1 = in[5][k * stride[5]], rd1 = in[6][k * stride[6]];
        const double u0 = in[7][k * stride[7]], um = in[8][k * stride[8]];
        const double u1 = in[9][k * stride[9]];
        double xv, v2, v3, vv, e1, e2, e3, e, acc1, acc2, acc3, acc;

        /* stage 1 */
        e1 = r0 - (x + nk);
        acc1 = kp * e1 + ki * q + kd * (rd0 - v) + u0 - a2 * v - a1 * x;
        /* stage 2 */
        xv = x + half * v;
        v2 = v + half * acc1;
        e2 = rm - (xv + nk);
        acc2 = kp * e2 + ki * (q + half * e1) + kd * (rdm - v2) + um - a2 * v2 - a1 * xv;
        /* stage 3 */
        xv = x + half * v2;
        v3 = v + half * acc2;
        e3 = rm - (xv + nk);
        acc3 = kp * e3 + ki * (q + half * e2) + kd * (rdm - v3) + um - a2 * v3 - a1 * xv;
        /* stage 4 */
        xv = x + dt * v3;
        vv = v + dt * acc3;
        e = r1 - (xv + nk);
        acc = kp * e + ki * (q + dt * e3) + kd * (rd1 - vv) + u1 - a2 * vv - a1 * xv;

        x += sixth * (v + 2.0 * (v2 + v3) + vv);
        v += sixth * (acc1 + 2.0 * (acc2 + acc3) + acc);
        q += sixth * (e1 + 2.0 * (e2 + e3) + e);
        /* a NaN fails both tests and passes, as in the Python loop */
        if (x > high)
            x = high;
        else if (x < low)
            x = low;
        if (v > high)
            v = high;
        else if (v < low)
            v = low;
        xs[k + 1] = x;
        vs[k + 1] = v;
    }
    state[0] = x;
    state[1] = v;
    state[2] = q;
}
