/* What both stage kernels of the compiled library share: the problem,
 * index access of either width, the losses' derivatives and the
 * elastic-net prox, each with the bits of its numpy statement.
 *
 *   - the logistic derivative takes expit(u) = 1 / (1 + exp(-u)), as
 *     scipy.special.expit does;
 *   - the prox is sign(v) * max(|v| - t, 0), then divided by 1 + t*l2 where
 *     that is not 1.  It is taken in select form, copysign of the clamped
 *     magnitude, which has numpy's bits: +0.0 where v is +-0.0 (numpy's
 *     sign is 0 there), -0.0 where a negative v is clamped (-1 * 0.0), and
 *     a NaN v kept NaN, since the clamp's r < 0.0 passes a NaN r as
 *     np.maximum does (fmax would drop it).  No branch depends on v, so
 *     the dense kernel's O(d) prox loops vectorise.
 */

#ifndef DASVRDA_KERNELS_H
#define DASVRDA_KERNELS_H

#include <math.h>
#include <stdint.h>

/* The losses; stage_loop.py uses the same numbers. */
enum { SQUARED = 0, LOGISTIC = 1, SMOOTHED_HINGE = 2 };

/* A problem, as stage_loop.Handle, which stage_loop.py builds and checks
 * once and whose arrays it makes read-only: its CSR rows, n labels, the
 * longest row's length, the loss, its nu (else 0) and the elastic net. */
struct problem {
    const void *indptr, *indices;   /* int64 if wide, else int32 */
    const double *data, *labels;
    int64_t n, d, row_max;
    int wide, loss;
    double nu, l1, l2;
};

/* Entry i of an index array of either width. */
static inline int64_t at(const void *a, int wide, int64_t i)
{
    return wide ? ((const int64_t *)a)[i] : (int64_t)((const int32_t *)a)[i];
}

/* d psi / dt at margin t, as losses.py's vectorized derivatives. */
static inline double derivative(int loss, double nu, double t, double label)
{
    if (loss == SQUARED)
        return t - label;
    if (loss == LOGISTIC)
        return -label * (1.0 / (1.0 + exp(-(-label * t))));
    double z = label * t;
    if (z >= 1.0)
        return 0.0;
    if (z <= 1.0 - nu)
        return -label;
    return -label * (1.0 - z) / nu;
}

/* problem.prox_elastic_net of one coordinate, at threshold scale * l1
 * and shrink 1 + scale * l2. */
static inline double prox(double v, double thresh, double shrink)
{
    double u = v;
    if (thresh > 0) {
        double r = fabs(v) - thresh;
        r = r < 0.0 ? 0.0 : r;
        u = v == 0.0 ? 0.0 : copysign(r, v);
    }
    if (shrink != 1.0)
        u /= shrink;
    return u;
}

#endif
