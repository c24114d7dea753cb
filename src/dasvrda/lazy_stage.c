/* All m steps of one lazy inner stage, and its final sweep, in one call:
 * the compiled path of lazy.py, whose LazyStage states the same
 * arithmetic and is its test oracle.
 *
 * It keeps LazyStage's structure, and so its bits:
 *
 *   - each step gathers the distinct columns of its rows, catches them up
 *     with catch_up's closed form to the iteration before it, runs the
 *     plain recurrence on them and writes their state back as their last
 *     touch;
 *   - a step's products take the csr form's order (rows in order, entries
 *     in stored order, sums from +0.0), with 1/theta_k taken as 2.0/(k+1);
 *   - the sweep is the closed form on every coordinate, to iteration m;
 *   - every expression keeps numpy's association, and the build has
 *     -ffp-contract=off and no fast-math.
 *
 * Each coordinate's arithmetic depends on its own state only, so the
 * order of a step's columns (first seen here, sorted in LazyStage)
 * moves no bit.  stage_loop.py checks the problem once, and a stage's
 * rows and arrays.
 *
 * A shortcut for inactive coordinates.  On sparse elastic-net data most
 * coordinates start at 0 with an anchor gradient inside the l1 threshold,
 * and the soft threshold holds them there.  catch_up skips both run
 * searches of such a coordinate (kj == 0, z0 == +-0, g_sum == +-0 and
 * |tg| <= l1) and takes a total of +0.0, which is exact:
 *
 *   - kj == 0 gives tp_kj == 0, and with g_sum == +-0, c3 == +-0;
 *   - c1 and c2 share the factor 0.25 * eta, eta >= 0 (a negative step
 *     is rejected before the call) and rounding is monotone, so |tg| <= l1
 *     gives both slopes c1 + c2 >= 0 and -(c1 - c2) >= 0, or NaN;
 *   - so +-0 > a (x^2 - x) +- 0 is false at every index x >= 2, and the
 *     early return and the root-and-nudge path of both branch_run calls
 *     end with empty runs; both terms are 0.0, and total is +0.0.
 *
 * A NaN tg fails the test and takes the general path.  The shortcut
 * serves the sweep and each step's first touch of a column; lazy.py's
 * catch_up has none, and is its oracle.
 */

#include "kernels.h"

/* A step's columns sit anywhere in the d-vectors of the stage state, so
 * its catch-up waits on memory unless it asks for them ahead. */
#if defined(__GNUC__)
#define PREFETCH(p) __builtin_prefetch(p)
#else
#define PREFETCH(p) ((void)0)
#endif
#define AHEAD 16

/* theta_k theta_{k-1}, as solvers.theta_pair and lazy._theta_pairs. */
static double theta_pair(int64_t k)
{
    return k < 1 ? 0.0 : (double)(k * (k + 1)) / 4.0;
}

/* lazy.lazy_z of one coordinate. */
static double lazy_z(double z0, double g_sum, double tg, double eta, double l1,
                     double l2, double tp_now, double tp_kj)
{
    double drift = g_sum + (tp_now - tp_kj) * tg;
    double scale = eta * tp_now;
    return prox(z0 - eta * drift, scale * l1, 1.0 + scale * l2);
}

/* z0 > a (x^2 - x) + c3 at the index x. */
static int holds(double a, double c3, double z0, int64_t x)
{
    double xf = (double)x;
    return z0 > a * (xf * xf - xf) + c3;
}

/* lazy.branch_runs of one entry: its run [*start, *stop) in [lo, hi]. */
static inline void branch_run(double a, double c3, double z0, int64_t lo,
                              int64_t hi, int64_t *start, int64_t *stop)
{
    *start = lo;
    *stop = holds(a, c3, z0, lo) ? hi + 1 : lo;
    double disc = a * a + 4.0 * a * (z0 - c3);
    if (!(a != 0.0 && disc > 0.0))
        return;
    double root = 0.5 + sqrt(disc) / (2.0 * fabs(a));
    int low = a > 0.0;
    /* fmin's and fmax's rules, with no libm call: a NaN v takes the top,
     * and v is no NaN at the bottom. */
    double v = floor(root) + 1.0, top = (double)(hi + 1), bottom = (double)lo;
    v = v < top ? v : top;
    v = v > bottom ? v : bottom;
    int64_t split = (int64_t)v;
    while (split > lo && holds(a, c3, z0, split - 1) != low)
        split--;
    while (split <= hi && holds(a, c3, z0, split) == low)
        split++;
    *start = low ? lo : split;
    *stop = low ? split : hi + 1;
}

/* One nonzero branch's term of the primal catch-up, from the prefix
 * tables s and q. */
static double branch_term(int64_t start, int64_t stop, double base, double eta,
                          double slope, const double *s, const double *q)
{
    if (stop <= start)
        return 0.0;
    double ds = s[stop - 1] - s[start - 1], dq = q[stop - 1] - q[start - 1];
    return base * ds - eta * slope * dq;
}

/* lazy.catch_up of one coordinate last touched at kj < target: its
 * (x, z) at iteration target. */
static inline void catch_up(double x_last, double z0, double g_sum, double tg,
                            int64_t kj, int64_t target, const double *s,
                            const double *q, double eta, double l1, double l2,
                            double *x, double *z)
{
    double tp_kj = theta_pair(kj), tp_now = theta_pair(target);
    *z = lazy_z(z0, g_sum, tg, eta, l1, l2, tp_now, tp_kj);
    if (kj == 0 && z0 == 0.0 && g_sum == 0.0 && fabs(tg) <= l1) {
        /* Both runs are empty (see the header): the total is +0.0. */
        *x = (tp_kj * x_last + 0.0) / tp_now;
        return;
    }
    double c1 = 0.25 * eta * tg, c2 = 0.25 * eta * l1;
    double c3 = eta * (g_sum - tp_kj * tg);
    int64_t sp, ep, sn, en;
    branch_run(c1 + c2, c3, z0, kj + 2, target + 1, &sp, &ep);
    branch_run(-(c1 - c2), -c3, -z0, kj + 2, target + 1, &sn, &en);
    double base = z0 - c3;
    double total = (0.0 + branch_term(sp, ep, base, eta, tg + l1, s, q))
        + branch_term(sn, en, base, eta, tg - l1, s, q);
    *x = (tp_kj * x_last + total) / tp_now;
}

/* Runs steps 1..m of a lazy stage on prob's rows idx (m x b) and then
 * sweeps every coordinate to iteration m; returns the sum over its steps
 * of the distinct columns each step touched.
 *
 *   derivs (the anchor's) and w (NULL: all one) have n entries;
 *   tg (the anchor gradient) and z0 (the start) have d;
 *   s and q are the prefix tables, m + 2 entries each;
 *   x_last, z_last, g_sum and k_last (d each) are the last-touch state, in
 *   and out: the sweep leaves every coordinate last touched at m, and so
 *   x_last and z_last the final point.
 *
 * Scratch: slot (d, every entry -1 on entry and on return) numbers the
 * step's columns; cols (cap) and u (4 cap) hold their columns and state,
 * cap at least any step's distinct columns. */
int64_t dasvrda_lazy_stage(const struct problem *prob, int64_t m, int64_t b,
                           const int64_t *idx, const double *w,
                           const double *derivs, const double *tg,
                           const double *z0, double eta, const double *s,
                           const double *q, double *x_last, double *z_last,
                           double *g_sum, int64_t *k_last, int64_t *slot, int64_t cap, int64_t *cols, double *u)
{
    const void *indptr = prob->indptr, *indices = prob->indices;
    const double *data = prob->data, *labels = prob->labels;
    double l1 = prob->l1, l2 = prob->l2;
    int wide = prob->wide;
    double *ux = u, *ug = u + cap, *up = u + 2 * cap, *ugp = u + 3 * cap;
    int64_t touched = 0;
    for (int64_t k = 1; k <= m; k++) {
        const int64_t *rows = idx + (k - 1) * b;
        /* The step's distinct columns, in the order first seen. */
        int64_t n_cols = 0;
        for (int64_t r = 0; r < b; r++) {
            int64_t hi = at(indptr, wide, rows[r] + 1);
            for (int64_t e = at(indptr, wide, rows[r]); e < hi; e++) {
                int64_t c = at(indices, wide, e);
                if (slot[c] < 0) {
                    slot[c] = n_cols;
                    cols[n_cols++] = c;
                }
            }
        }
        touched += n_cols;
        /* Caught up to iteration k - 1, the gradient sum with it, and the
         * interpolated point. */
        double tp_prev = theta_pair(k - 1);
        double inv = 2.0 / (double)(k + 1), keep = 1.0 - inv;
        for (int64_t p = 0; p < n_cols; p++) {
            int64_t c = cols[p];
            if (p + AHEAD < n_cols) {
                int64_t f = cols[p + AHEAD];
                PREFETCH(x_last + f);
                PREFETCH(z_last + f);
                PREFETCH(g_sum + f);
                PREFETCH(k_last + f);
                PREFETCH(z0 + f);
                PREFETCH(tg + f);
            }
            double zc = z_last[c];
            ux[p] = x_last[c];
            if (k_last[c] < k - 1)
                catch_up(x_last[c], z0[c], g_sum[c], tg[c], k_last[c], k - 1, s, q,
                         eta, l1, l2, &ux[p], &zc);
            ug[p] = g_sum[c] + (tp_prev - theta_pair(k_last[c])) * tg[c];
            up[p] = keep * ux[p] + inv * zc;
            ugp[p] = 0.0;
        }
        for (int64_t r = 0; r < b; r++) {
            int64_t lo = at(indptr, wide, rows[r]);
            int64_t hi = at(indptr, wide, rows[r] + 1);
            double t = 0.0;
            for (int64_t e = lo; e < hi; e++)
                t += data[e] * up[slot[at(indices, wide, e)]];
            double delta = derivative(prob->loss, prob->nu, t, labels[rows[r]])
                - derivs[rows[r]];
            if (w)
                delta = w[rows[r]] * delta;
            delta = delta / (double)b;
            for (int64_t e = lo; e < hi; e++)
                ugp[slot[at(indices, wide, e)]] += data[e] * delta;
        }
        /* The recurrence, written back as the columns' last touch. */
        double half_k = 0.5 * (double)k, tp = theta_pair(k);
        for (int64_t p = 0; p < n_cols; p++) {
            int64_t c = cols[p];
            double g = ug[p] + half_k * (ugp[p] + tg[c]);
            double zc = lazy_z(z0[c], g, tg[c], eta, l1, l2, tp, tp);
            x_last[c] = keep * ux[p] + inv * zc;
            z_last[c] = zc;
            g_sum[c] = g;
            k_last[c] = k;
            slot[c] = -1;
        }
    }
    double tp_m = theta_pair(m);
    for (int64_t c = 0; c < prob->d; c++) {
        if (k_last[c] < m) {
            catch_up(x_last[c], z0[c], g_sum[c], tg[c], k_last[c], m, s, q, eta, l1,
                     l2, &x_last[c], &z_last[c]);
            g_sum[c] = g_sum[c] + (tp_m - theta_pair(k_last[c])) * tg[c];
            k_last[c] = m;
        }
    }
    return touched;
}
