/* Compiled inner loop for the precoder-stage fixed-point iteration.
 *
 * Iterates f <- normalize(Bbar^-1 Abar f) for the stacked precoder f of K
 * columns f_j, each of N entries.  Abar is block diagonal with one repeated
 * block lambda A, and Bbar's k-th block is B - h_k h_k^H / qb_k, where
 *   A = sum_k G_k / qa_k + (sigma^2/P) sum_k (1/qa_k) I,
 *   B = sum_k G_k / qb_k + (sigma^2/P) sum_k (1/qb_k) I.
 * One Cholesky factor of B per iteration solves the 2K right-hand sides
 * lambda A f_k -> y_k and h_k -> z_k, and Sherman-Morrison gives
 * Bbar_k^-1 lambda A f_k = y_k + z_k (h_k^H y_k) / s_k, s_k = qb_k - h_k^H z_k.
 * Bbar_k is positive definite exactly when B is and s_k > 0.  gpris._kernel
 * builds this file into the same shared library as the RIS loop and calls
 * it through ctypes; gpi_precoder.gpi_matrices is the numpy reference it
 * mirrors.
 *
 * P independent lanes run one after another in a single call, each on its
 * own quadratics and iterate and each with its own iteration count, so a
 * lane's result does not depend on the others.
 *
 * Layout, all row-major complex128 as interleaved (re, im) doubles:
 *   h              (P, K, N) estimated effective channels h_k
 *   g              (P, K, N, N) Hermitian blocks G_k = h_k h_k^H + Xi_k
 *   f              (P, K, N) unit-norm column-stacked iterates, in place
 *   iters          (P,) iteration count of each lane, negative on failure
 *   block          (P,) on failure, the Bbar block that is not positive
 *                  definite, or -1 when a quadratic form is not positive
 *   residual       (P,) ||Bbar^-1 Abar f - lambda f|| / lambda at the exit
 *   work           gpris_precoder_loop_work(K, N) doubles of scratch
 */
#include <math.h>
#include <stddef.h>

/* Scratch of one image computation, before the image itself. */
static size_t image_work(int k_users, int n)
{
    size_t k = (size_t)k_users, nn = (size_t)n;
    /* u | B | y | z, all complex, then qa, qb and their inverses */
    return 2 * (k * k * nn + nn * nn + 2 * k * nn) + 4 * k;
}

long gpris_precoder_loop_work(int k_users, int n)
{
    return (long)(image_work(k_users, n) + 2 * (size_t)k_users * n);
}

/* v <- B^-1 v for the lower Cholesky factor l of B (N x N). */
static void cho_solve(int n, const double *restrict l, double *restrict v)
{
    for (int i = 0; i < n; ++i) {
        double ar = v[2 * i], ai = v[2 * i + 1];
        for (int p = 0; p < i; ++p) {
            const double *lip = l + 2 * ((size_t)i * n + p);
            ar -= lip[0] * v[2 * p] - lip[1] * v[2 * p + 1];
            ai -= lip[0] * v[2 * p + 1] + lip[1] * v[2 * p];
        }
        const double d = l[2 * ((size_t)i * n + i)];
        v[2 * i] = ar / d;
        v[2 * i + 1] = ai / d;
    }
    for (int i = n - 1; i >= 0; --i) {
        double ar = v[2 * i], ai = v[2 * i + 1];
        for (int p = i + 1; p < n; ++p) {
            /* acc -= conj(l[p,i]) * v[p] */
            const double *lpi = l + 2 * ((size_t)p * n + i);
            ar -= lpi[0] * v[2 * p] + lpi[1] * v[2 * p + 1];
            ai -= lpi[0] * v[2 * p + 1] - lpi[1] * v[2 * p];
        }
        const double d = l[2 * ((size_t)i * n + i)];
        v[2 * i] = ar / d;
        v[2 * i + 1] = ai / d;
    }
}

/* Image x = Bbar(f)^-1 Abar(f) f of one lane, unnormalized, and lambda_BS
 * at f.  Returns 0 on failure with *block set as in the layout above. */
static int precoder_image(int k_users, int n, const double *restrict h,
                          const double *restrict g, double noise_over_p,
                          const double *restrict f, double *restrict x,
                          double *restrict lam, int *restrict block,
                          double *restrict work)
{
    const size_t nn = (size_t)n;
    const size_t kn = (size_t)k_users * nn;
    double *restrict u = work;              /* (K, K, N): G_k f_j */
    double *restrict bm = u + 2 * k_users * kn;
    double *restrict y = bm + 2 * nn * nn;
    double *restrict z = y + 2 * kn;
    double *restrict qa = z + 2 * kn;
    double *restrict qb = qa + k_users;
    double *restrict iqa = qb + k_users;
    double *restrict iqb = iqa + k_users;
    double power = 0.0;
    for (size_t i = 0; i < 2 * kn; ++i)
        power += f[i] * f[i];
    /* the block matvecs G_k f_j serve both the quadratic forms and A f */
    for (int k = 0; k < k_users; ++k) {
        const double *gk = g + 2 * (size_t)k * nn * nn;
        double acc = 0.0;
        for (int j = 0; j < k_users; ++j) {
            const double *fj = f + 2 * (size_t)j * nn;
            double *ukj = u + 2 * ((size_t)k * k_users + j) * nn;
            for (size_t a = 0; a < nn; ++a) {
                const double *row = gk + 2 * a * nn;
                double sr = 0.0, si = 0.0;
                for (size_t b = 0; b < nn; ++b) {
                    sr += row[2 * b] * fj[2 * b] - row[2 * b + 1] * fj[2 * b + 1];
                    si += row[2 * b] * fj[2 * b + 1] + row[2 * b + 1] * fj[2 * b];
                }
                ukj[2 * a] = sr;
                ukj[2 * a + 1] = si;
                acc += fj[2 * a] * sr + fj[2 * a + 1] * si;
            }
        }
        /* signal |h_k^H f_k|^2 */
        const double *hk = h + 2 * (size_t)k * nn;
        const double *fk = f + 2 * (size_t)k * nn;
        double tr = 0.0, ti = 0.0;
        for (size_t a = 0; a < nn; ++a) {
            tr += hk[2 * a] * fk[2 * a] + hk[2 * a + 1] * fk[2 * a + 1];
            ti += hk[2 * a] * fk[2 * a + 1] - hk[2 * a + 1] * fk[2 * a];
        }
        qa[k] = acc + noise_over_p * power;
        qb[k] = qa[k] - (tr * tr + ti * ti);
        if (qa[k] <= 0.0 || qb[k] <= 0.0) {
            *block = -1;
            return 0;
        }
    }
    double prod = 1.0, sum_ia = 0.0, sum_ib = 0.0;
    for (int k = 0; k < k_users; ++k) {
        prod *= qa[k] / qb[k];
        iqa[k] = 1.0 / qa[k];
        iqb[k] = 1.0 / qb[k];
        sum_ia += iqa[k];
        sum_ib += iqb[k];
    }
    *lam = prod;
    /* right-hand sides lambda A f_j, and h_j */
    const double diag_a = noise_over_p * sum_ia;
    for (int j = 0; j < k_users; ++j) {
        const double *fj = f + 2 * (size_t)j * nn;
        double *yj = y + 2 * (size_t)j * nn;
        for (size_t a = 0; a < nn; ++a) {
            double sr = 0.0, si = 0.0;
            for (int k = 0; k < k_users; ++k) {
                const double *ukj = u + 2 * ((size_t)k * k_users + j) * nn;
                sr += ukj[2 * a] * iqa[k];
                si += ukj[2 * a + 1] * iqa[k];
            }
            yj[2 * a] = prod * (sr + diag_a * fj[2 * a]);
            yj[2 * a + 1] = prod * (si + diag_a * fj[2 * a + 1]);
        }
    }
    for (size_t i = 0; i < 2 * kn; ++i)
        z[i] = h[i];
    /* lower triangle of B, then its Cholesky factor in place */
    const double diag_b = noise_over_p * sum_ib;
    for (size_t a = 0; a < nn; ++a) {
        for (size_t b = 0; b <= a; ++b) {
            double sr = 0.0, si = 0.0;
            for (int k = 0; k < k_users; ++k) {
                const double *gab = g + 2 * (((size_t)k * nn + a) * nn + b);
                sr += gab[0] * iqb[k];
                si += gab[1] * iqb[k];
            }
            bm[2 * (a * nn + b)] = sr;
            bm[2 * (a * nn + b) + 1] = si;
        }
        bm[2 * (a * nn + a)] += diag_b;
    }
    for (size_t j = 0; j < nn; ++j) {
        double d = bm[2 * (j * nn + j)];
        for (size_t p = 0; p < j; ++p) {
            const double *ljp = bm + 2 * (j * nn + p);
            d -= ljp[0] * ljp[0] + ljp[1] * ljp[1];
        }
        /* Bbar_k lies below B, so every block fails with it */
        if (!(d > 0.0)) {
            *block = 0;
            return 0;
        }
        d = sqrt(d);
        bm[2 * (j * nn + j)] = d;
        bm[2 * (j * nn + j) + 1] = 0.0;
        for (size_t i = j + 1; i < nn; ++i) {
            double *lij = bm + 2 * (i * nn + j);
            double ar = lij[0], ai = lij[1];
            for (size_t p = 0; p < j; ++p) {
                /* acc -= l[i,p] * conj(l[j,p]) */
                const double *lip = bm + 2 * (i * nn + p);
                const double *ljp = bm + 2 * (j * nn + p);
                ar -= lip[0] * ljp[0] + lip[1] * ljp[1];
                ai -= lip[1] * ljp[0] - lip[0] * ljp[1];
            }
            lij[0] = ar / d;
            lij[1] = ai / d;
        }
    }
    for (int j = 0; j < k_users; ++j) {
        cho_solve(n, bm, y + 2 * (size_t)j * nn);
        cho_solve(n, bm, z + 2 * (size_t)j * nn);
    }
    /* Sherman-Morrison: x_j = y_j + z_j (h_j^H y_j) / s_j */
    for (int j = 0; j < k_users; ++j) {
        const double *hj = h + 2 * (size_t)j * nn;
        const double *yj = y + 2 * (size_t)j * nn;
        const double *zj = z + 2 * (size_t)j * nn;
        double *xj = x + 2 * (size_t)j * nn;
        double hyr = 0.0, hyi = 0.0, hz = 0.0;
        for (size_t a = 0; a < nn; ++a) {
            hyr += hj[2 * a] * yj[2 * a] + hj[2 * a + 1] * yj[2 * a + 1];
            hyi += hj[2 * a] * yj[2 * a + 1] - hj[2 * a + 1] * yj[2 * a];
            hz += hj[2 * a] * zj[2 * a] + hj[2 * a + 1] * zj[2 * a + 1];
        }
        const double s = qb[j] - hz;
        if (s <= 0.0) {
            *block = j;
            return 0;
        }
        const double cr = hyr / s, ci = hyi / s;
        for (size_t a = 0; a < nn; ++a) {
            xj[2 * a] = yj[2 * a] + (zj[2 * a] * cr - zj[2 * a + 1] * ci);
            xj[2 * a + 1] = yj[2 * a + 1] + (zj[2 * a] * ci + zj[2 * a + 1] * cr);
        }
    }
    return 1;
}

/* One lane: returns the iteration count, or minus it on failure (f is then
 * left at the previous iterate). */
static int precoder_lane(int k_users, int n, const double *restrict h,
                         const double *restrict g, double noise_over_p,
                         double *restrict f, double tol, int max_iters,
                         int *restrict block, double *restrict residual,
                         double *restrict work)
{
    const size_t len = 2 * (size_t)k_users * n;
    double *restrict x = work + image_work(k_users, n);
    double lam;
    int iters = 0;
    for (int it = 0; it < max_iters; ++it) {
        ++iters;
        if (!precoder_image(k_users, n, h, g, noise_over_p, f, x, &lam, block,
                            work))
            return -iters;
        double nrm = 0.0;
        for (size_t i = 0; i < len; ++i)
            nrm += x[i] * x[i];
        const double inv_nrm = 1.0 / sqrt(nrm);
        /* the step, minimized over the +-f sign ambiguity */
        double minus = 0.0, plus = 0.0;
        for (size_t i = 0; i < len; ++i) {
            const double v = x[i] * inv_nrm;
            minus += (v - f[i]) * (v - f[i]);
            plus += (v + f[i]) * (v + f[i]);
            f[i] = v;
        }
        if (sqrt(minus < plus ? minus : plus) <= tol)
            break;
    }
    if (!precoder_image(k_users, n, h, g, noise_over_p, f, x, &lam, block,
                        work))
        return -iters;
    double res = 0.0;
    for (size_t i = 0; i < len; ++i)
        res += (x[i] - lam * f[i]) * (x[i] - lam * f[i]);
    *residual = sqrt(res) / fabs(lam);
    return iters;
}

/* Runs every lane; returns the number of lanes with a negative count. */
int gpris_precoder_loop(int p_lanes, int k_users, int n,
                        const double *restrict h, const double *restrict g,
                        double noise_over_p, double *restrict f, double tol,
                        int max_iters, int *restrict iters,
                        int *restrict block, double *restrict residual,
                        double *restrict work)
{
    const size_t kn = (size_t)k_users * n;
    int failed = 0;
    for (int p = 0; p < p_lanes; ++p) {
        block[p] = -1;
        residual[p] = NAN;
        iters[p] = precoder_lane(k_users, n, h + 2 * p * kn,
                                 g + 2 * p * kn * n, noise_over_p,
                                 f + 2 * p * kn, tol, max_iters, block + p,
                                 residual + p, work);
        if (iters[p] < 0)
            ++failed;
    }
    return failed;
}
