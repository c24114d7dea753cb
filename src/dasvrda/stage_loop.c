/* All m steps of one dense inner stage in one call: the compiled path of
 * stage_loop.py, whose numpy skeleton states the same arithmetic and is
 * its test oracle.
 *
 * The bits are the skeleton's on the csr form of the batch products:
 *
 *   - built with -O2 -ffp-contract=off and no fast-math, so no product is
 *     fused into an addition and no sum is reordered;
 *   - A[rows] @ p and A[rows].T @ v add their products one at a time,
 *     rows in order and entries in stored order, each output starting from
 *     +0.0, as scipy's csr_matvec and csc_matvec do;
 *   - the gradient estimate keeps the association B(p) + (grad - B(anchor));
 *   - the derivatives and the prox are kernels.h's.
 *
 * The caller checks every shape, type and index bound first.
 */

#include <string.h>

#include "kernels.h"

/* Stage kinds; stage_loop.py uses the same numbers. */
enum { ACC = 0, DASVRG = 1, SVRG = 2 };

/* g = A[rows].T @ (psi'(A[rows] @ p) w / b) + (grad - A[rows].T @ dxb),
 * written to by; bx and t are scratch. */
static void gradient(int loss, double nu, int64_t b, int64_t d, int wide,
                    const void *indptr, const void *indices, const double *data,
                    const int64_t *rows, const double *lab,
                    const double *w, const double *dxb, const double *grad,
                    const double *p, double *by, double *bx, double *t)
{
    for (int64_t r = 0; r < b; r++) {
        int64_t hi = at(indptr, wide, rows[r] + 1);
        double s = 0.0;
        for (int64_t e = at(indptr, wide, rows[r]); e < hi; e++)
            s += data[e] * p[at(indices, wide, e)];
        t[r] = s;
    }
    memset(by, 0, (size_t)d * sizeof(double));
    memset(bx, 0, (size_t)d * sizeof(double));
    for (int64_t r = 0; r < b; r++) {
        double dy = derivative(loss, nu, t[r], lab[r]);
        if (w)
            dy = w[r] * dy;
        dy = dy / (double)b;
        int64_t lo = at(indptr, wide, rows[r]), hi = at(indptr, wide, rows[r] + 1);
        for (int64_t e = lo; e < hi; e++) {
            int64_t c = at(indices, wide, e);
            by[c] += data[e] * dy;
            bx[c] += data[e] * dxb[r];
        }
    }
    for (int64_t j = 0; j < d; j++)
        by[j] = by[j] + (grad[j] - bx[j]);
}

/* Runs steps 1..m of a stage of the given kind on the rows idx (m x b),
 * their labels lab, weights w (NULL: all one) and anchor terms dxb.
 *
 *   ACC:    x, z (in/out), z0 (in), gbar (in/out);
 *   DASVRG: x, z (in/out);
 *   SVRG:   x (in/out), z (in/out) the sum of the iterates.
 *
 * y, by, bx (d each) and t (b) are scratch. */
void dasvrda_dense_stage(int kind, int loss, double nu, int64_t m, int64_t b,
                        int64_t d, int wide, const void *indptr,
                        const void *indices, const double *data,
                        const int64_t *idx, const double *lab, const double *w,
                        const double *dxb, const double *grad, double eta,
                        double l1, double l2, double *x, double *z,
                        const double *z0, double *gbar, double *y, double *by,
                        double *bx, double *t)
{
    for (int64_t k = 1; k <= m; k++) {
        int64_t off = (k - 1) * b;
        double inv = 1.0 / ((double)(k + 1) / 2.0), keep = 1.0 - inv;
        const double *p = x;
        if (kind != SVRG) {
            for (int64_t j = 0; j < d; j++)
                y[j] = keep * x[j] + inv * z[j];
            p = y;
        }
        gradient(loss, nu, b, d, wide, indptr, indices, data, idx + off, lab + off,
                 w ? w + off : NULL, dxb + off, grad, p, by, bx, t);
        const double *g = by;
        if (kind == ACC) {
            double step = eta * ((double)(k * (k + 1)) / 4.0);
            double thresh = step * l1, shrink = 1.0 + step * l2;
            for (int64_t j = 0; j < d; j++) {
                gbar[j] = keep * gbar[j] + inv * g[j];
                z[j] = prox(z0[j] - step * gbar[j], thresh, shrink);
                x[j] = keep * x[j] + inv * z[j];
            }
        } else if (kind == DASVRG) {
            double step = eta * ((double)k / 2.0);
            double thresh = step * l1, shrink = 1.0 + step * l2;
            for (int64_t j = 0; j < d; j++) {
                z[j] = prox(z[j] - step * g[j], thresh, shrink);
                x[j] = keep * x[j] + inv * z[j];
            }
        } else {
            double thresh = eta * l1, shrink = 1.0 + eta * l2;
            for (int64_t j = 0; j < d; j++) {
                x[j] = prox(x[j] - eta * g[j], thresh, shrink);
                z[j] += x[j];
            }
        }
    }
}
