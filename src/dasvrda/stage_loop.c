/* All m steps of one dense inner stage in one call: the compiled path of
 * stage_loop.py, whose numpy skeleton states the same arithmetic and is
 * its test oracle.
 *
 * The bits are the skeleton's on the csr form of the batch products:
 *
 *   - built with -O3 -ffp-contract=off and no fast-math, so no product is
 *     fused into an addition and no sum is reordered (GCC vectorises the
 *     elementwise O(d) loops, whose bits do not move, and no reduction);
 *   - A[rows] @ y and A[rows].T @ v add their products one at a time,
 *     rows in order and entries in stored order, each output starting from
 *     +0.0, as scipy's csr_matvec and csc_matvec do;
 *   - the gradient estimate keeps the association B(y) + (grad - B(anchor));
 *   - the derivatives and the prox are kernels.h's.
 *
 * stage_loop.py checks the problem once, and a stage's rows and vectors.
 */

#include <string.h>

#include "kernels.h"

/* Stage kinds; stage_loop.py uses the same numbers. */
enum { ACC = 0, DASVRG = 1, SVRG = 2 };

/* Runs steps 1..m of a stage of the given kind on p's rows idx (m x b),
 * with weights w (n entries, NULL: all one), the anchor's derivatives
 * derivs (n entries) and its gradient grad.
 *
 *   ACC:    x, z (in/out), z0 (in), gbar (in/out);
 *   DASVRG: x, z (in/out);
 *   SVRG:   x (in/out), z (in/out) the sum of the iterates.
 *
 * y, by, bx (d each) and t (b) are scratch. */
void dasvrda_dense_stage(const struct problem *p, int kind, int64_t m, int64_t b,
                         const int64_t *idx, const double *w, const double *derivs,
                         const double *grad, double eta, double *x, double *z,
                         const double *z0, double *gbar, double *y, double *by,
                         double *bx, double *t)
{
    const void *indptr = p->indptr, *indices = p->indices;
    const double *data = p->data, *labels = p->labels;
    int64_t d = p->d;
    int wide = p->wide;
    for (int64_t k = 1; k <= m; k++) {
        double inv = 1.0 / ((double)(k + 1) / 2.0), keep = 1.0 - inv;
        const double *pt = x;
        if (kind != SVRG) {
            for (int64_t j = 0; j < d; j++)
                y[j] = keep * x[j] + inv * z[j];
            pt = y;
        }
        /* g = A[rows].T @ (psi'(A[rows] @ pt) w / b)
         *     + (grad - A[rows].T @ (derivs[rows] w / b)), in by. */
        const int64_t *rows = idx + (k - 1) * b;
        for (int64_t r = 0; r < b; r++) {
            int64_t hi = at(indptr, wide, rows[r] + 1);
            double s = 0.0;
            for (int64_t e = at(indptr, wide, rows[r]); e < hi; e++)
                s += data[e] * pt[at(indices, wide, e)];
            t[r] = s;
        }
        memset(by, 0, (size_t)d * sizeof(double));
        memset(bx, 0, (size_t)d * sizeof(double));
        for (int64_t r = 0; r < b; r++) {
            int64_t row = rows[r];
            double wr = w ? w[row] : 1.0;   /* times 1.0: the bits of no weight */
            double dy = wr * derivative(p->loss, p->nu, t[r], labels[row]) / (double)b;
            double dx = derivs[row] * wr / (double)b;
            int64_t lo = at(indptr, wide, row), hi = at(indptr, wide, row + 1);
            for (int64_t e = lo; e < hi; e++) {
                int64_t c = at(indices, wide, e);
                by[c] += data[e] * dy;
                bx[c] += data[e] * dx;
            }
        }
        for (int64_t j = 0; j < d; j++)
            by[j] = by[j] + (grad[j] - bx[j]);
        const double *g = by;
        double step = kind == ACC ? eta * ((double)(k * (k + 1)) / 4.0)
                      : kind == DASVRG ? eta * ((double)k / 2.0) : eta;
        double thresh = step * p->l1, shrink = 1.0 + step * p->l2;
        if (kind == ACC) {
            for (int64_t j = 0; j < d; j++) {
                gbar[j] = keep * gbar[j] + inv * g[j];
                z[j] = prox(z0[j] - step * gbar[j], thresh, shrink);
                x[j] = keep * x[j] + inv * z[j];
            }
        } else if (kind == DASVRG) {
            for (int64_t j = 0; j < d; j++) {
                z[j] = prox(z[j] - step * g[j], thresh, shrink);
                x[j] = keep * x[j] + inv * z[j];
            }
        } else {
            for (int64_t j = 0; j < d; j++) {
                x[j] = prox(x[j] - step * g[j], thresh, shrink);
                z[j] += x[j];
            }
        }
    }
}
