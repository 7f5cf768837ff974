/* Compiled inner loop for the RIS-stage fixed-point iteration.
 *
 * Iterates w <- normalize(Dbar^-1 Cbar w) on split re/im storage with the
 * RIS index innermost (struct-of-arrays), so every inner loop runs over L
 * independent blocks and vectorizes without reassociating a reduction.
 * gpris._kernel builds this file into a shared library on first use and
 * calls it through ctypes; gpi_ris.ris_gpi_matrices is the numpy reference
 * it mirrors.
 *
 * P independent lanes (one per penalty weight mu) run one after another in
 * a single call, each on its own blocks, iterate and mu, and each with its
 * own iteration count, so a lane's result does not depend on the others.
 *
 * Layout, all row-major float64 (int for iters):
 *   cr/ci          (P, K, M, M, L) per-user per-RIS C_k blocks
 *   ur/ui          (P, K, M, L) signal columns with C_k - D_k = u_k u_k^H, so
 *                  the D quadratic form is a rank-one correction of the C one
 *                  and each lane forms its D_k blocks once, in the scratch
 *   mu             (P,) penalty weight of each lane
 *   wr/wi          (P, M, L) unit-norm iterates, updated in place
 *   iters          (P,) iteration count of each lane, negative when a
 *                  denominator block of that lane is not positive definite
 *   residual       (P,) fixed-point residual of each lane at its exit
 *   work           gpris_ris_loop_work(K, M, L) doubles of scratch
 */
#include <math.h>
#include <stddef.h>

/* Scratch of one image computation. */
static size_t image_work(int k_users, int m, int l_ris)
{
    size_t k = (size_t)k_users, mm = (size_t)m, l = (size_t)l_ris;
    /* iqc, iqd | ycr, yci | cwr, cwi, exp_c, exp_d | dbr, dbi | sr, si, tr, ti */
    return 2 * k + 2 * k * mm * l + 4 * mm * l + 2 * mm * mm * l + 4 * l;
}

long gpris_ris_loop_work(int k_users, int m, int l_ris)
{
    /* the image scratch, then the lane's D blocks (re, im) */
    return (long)(image_work(k_users, m, l_ris)
                  + 2 * (size_t)k_users * m * m * l_ris);
}

/* Image Dbar(w)^-1 Cbar(w) w of one lane's iterate, unnormalized, left in
 * the scratch at image_re(work) (real parts, then the M*L imaginary parts);
 * returns 0 when a denominator block is not positive definite. */
static int ris_image(int k_users, int m, int l_ris,
                     const double *restrict cr, const double *restrict ci,
                     const double *restrict dr, const double *restrict di,
                     const double *restrict ur, const double *restrict ui,
                     double noise_over_p, double inv_rs_ln2, double mu,
                     double tau, double alpha1, double alpha2,
                     const double *restrict wr, const double *restrict wi,
                     double *restrict work)
{
    const size_t l = (size_t)l_ris;
    const size_t ml = (size_t)m * l;
    double *restrict iqc = work;
    double *restrict iqd = iqc + k_users;
    double *restrict ycr = iqd + k_users;
    double *restrict yci = ycr + (size_t)k_users * ml;
    double *restrict cwr = yci + (size_t)k_users * ml;
    double *restrict cwi = cwr + ml;
    double *restrict exp_c = cwi + ml;
    double *restrict exp_d = exp_c + ml;
    double *restrict dbr = exp_d + ml;
    double *restrict dbi = dbr + (size_t)m * ml;
    double *restrict sr = dbi + (size_t)m * ml;
    double *restrict si = sr + l;
    double *restrict tr = si + l;
    double *restrict ti = tr + l;
    /* block matvecs y = C_k w reused for both the quadratic forms and
     * the Cbar image (Cbar itself is never assembled); w^H D_k w is the
     * rank-one correction w^H C_k w - |u_k^H w|^2 */
    for (int kk = 0; kk < k_users; ++kk) {
        for (size_t ll = 0; ll < l; ++ll) {
            sr[ll] = 0.0;     /* running Re(w^H C_k w) per block */
            tr[ll] = 0.0;     /* Re/Im of u_k^H w per block */
            ti[ll] = 0.0;
        }
        for (int a = 0; a < m; ++a) {
            double *restrict yr = ycr + ((size_t)kk * m + a) * l;
            double *restrict yi = yci + ((size_t)kk * m + a) * l;
            const double *wra = wr + (size_t)a * l;
            const double *wia = wi + (size_t)a * l;
            for (size_t ll = 0; ll < l; ++ll) {
                yr[ll] = 0.0;
                yi[ll] = 0.0;
            }
            for (int b = 0; b < m; ++b) {
                const double *crv = cr + (((size_t)kk * m + a) * m + b) * l;
                const double *civ = ci + (((size_t)kk * m + a) * m + b) * l;
                const double *wrb = wr + (size_t)b * l;
                const double *wib = wi + (size_t)b * l;
                for (size_t ll = 0; ll < l; ++ll) {
                    yr[ll] += crv[ll] * wrb[ll] - civ[ll] * wib[ll];
                    yi[ll] += crv[ll] * wib[ll] + civ[ll] * wrb[ll];
                }
            }
            const double *urv = ur + ((size_t)kk * m + a) * l;
            const double *uiv = ui + ((size_t)kk * m + a) * l;
            for (size_t ll = 0; ll < l; ++ll) {
                sr[ll] += wra[ll] * yr[ll] + wia[ll] * yi[ll];
                tr[ll] += urv[ll] * wra[ll] + uiv[ll] * wia[ll];
                ti[ll] += urv[ll] * wia[ll] - uiv[ll] * wra[ll];
            }
        }
        double acc_c = 0.0;
        double acc_u = 0.0;
        for (size_t ll = 0; ll < l; ++ll) {
            acc_c += sr[ll];
            acc_u += tr[ll] * tr[ll] + ti[ll] * ti[ll];
        }
        iqc[kk] = 1.0 / (acc_c + noise_over_p);
        iqd[kk] = 1.0 / (acc_c - acc_u + noise_over_p);
    }
    double sum_inv_c = 0.0;
    double sum_inv_d = 0.0;
    for (int kk = 0; kk < k_users; ++kk) {
        sum_inv_c += iqc[kk];
        sum_inv_d += iqd[kk];
    }
    /* penalty softmax(-|w_i|^2 / alpha2) and softmax(alpha1 |w_i|^2) */
    double pen_c = 0.0;
    double pen_d = 0.0;
    if (mu > 0.0) {
        double xmax = -1.0e300;
        double xmin = 1.0e300;
        for (size_t i = 0; i < ml; ++i) {
            double xi = wr[i] * wr[i] + wi[i] * wi[i];
            if (xi > xmax)
                xmax = xi;
            if (xi < xmin)
                xmin = xi;
        }
        double zc = 0.0;
        double zd = 0.0;
        for (size_t i = 0; i < ml; ++i) {
            double xi = wr[i] * wr[i] + wi[i] * wi[i];
            double ec = exp(-(xi - xmin) / alpha2);
            double ed = exp(alpha1 * (xi - xmax));
            exp_c[i] = ec;
            exp_d[i] = ed;
            zc += ec;
            zd += ed;
        }
        pen_c = mu / (tau * zc);
        pen_d = mu / (tau * zd);
    }
    const double diag_c = inv_rs_ln2 * noise_over_p * sum_inv_c;
    const double diag_d = inv_rs_ln2 * noise_over_p * sum_inv_d;
    /* image (Cbar w) from the cached matvecs, penalty folded in */
    for (int a = 0; a < m; ++a) {
        for (size_t ll = 0; ll < l; ++ll) {
            sr[ll] = 0.0;
            si[ll] = 0.0;
        }
        for (int kk = 0; kk < k_users; ++kk) {
            const double *yr = ycr + ((size_t)kk * m + a) * l;
            const double *yi = yci + ((size_t)kk * m + a) * l;
            const double q = iqc[kk];
            for (size_t ll = 0; ll < l; ++ll) {
                sr[ll] += yr[ll] * q;
                si[ll] += yi[ll] * q;
            }
        }
        const size_t row = (size_t)a * l;
        for (size_t ll = 0; ll < l; ++ll) {
            double extra = diag_c;
            if (mu > 0.0)
                extra += pen_c * exp_c[row + ll];
            cwr[row + ll] = inv_rs_ln2 * sr[ll] + extra * wr[row + ll];
            cwi[row + ll] = inv_rs_ln2 * si[ll] + extra * wi[row + ll];
        }
    }
    /* Dbar blocks, assembled batched for the solve */
    for (int a = 0; a < m; ++a) {
        for (int b = 0; b < m; ++b) {
            double *restrict br = dbr + ((size_t)a * m + b) * l;
            double *restrict bi = dbi + ((size_t)a * m + b) * l;
            for (size_t ll = 0; ll < l; ++ll) {
                br[ll] = 0.0;
                bi[ll] = 0.0;
            }
            for (int kk = 0; kk < k_users; ++kk) {
                const double *drv = dr + (((size_t)kk * m + a) * m + b) * l;
                const double *dv = di + (((size_t)kk * m + a) * m + b) * l;
                const double q = iqd[kk];
                for (size_t ll = 0; ll < l; ++ll) {
                    br[ll] += drv[ll] * q;
                    bi[ll] += dv[ll] * q;
                }
            }
            for (size_t ll = 0; ll < l; ++ll) {
                br[ll] *= inv_rs_ln2;
                bi[ll] *= inv_rs_ln2;
            }
        }
        double *restrict diag = dbr + ((size_t)a * m + a) * l;
        for (size_t ll = 0; ll < l; ++ll) {
            double extra = diag_d;
            if (mu > 0.0)
                extra += pen_d * exp_d[(size_t)a * l + ll];
            diag[ll] += extra;
        }
    }
    /* batched in-place lower Cholesky of all L blocks at once */
    for (int j = 0; j < m; ++j) {
        const double *djj = dbr + ((size_t)j * m + j) * l;
        for (size_t ll = 0; ll < l; ++ll)
            sr[ll] = djj[ll];
        for (int p = 0; p < j; ++p) {
            const double *jr = dbr + ((size_t)j * m + p) * l;
            const double *ji = dbi + ((size_t)j * m + p) * l;
            for (size_t ll = 0; ll < l; ++ll)
                sr[ll] -= jr[ll] * jr[ll] + ji[ll] * ji[ll];
        }
        for (size_t ll = 0; ll < l; ++ll) {
            if (sr[ll] <= 0.0)
                return 0;
            sr[ll] = sqrt(sr[ll]);
            dbr[((size_t)j * m + j) * l + ll] = sr[ll];
            si[ll] = 1.0 / sr[ll];
        }
        for (int i = j + 1; i < m; ++i) {
            double *restrict av = dbr + ((size_t)i * m + j) * l;
            double *restrict bv = dbi + ((size_t)i * m + j) * l;
            for (size_t ll = 0; ll < l; ++ll) {
                tr[ll] = av[ll];
                ti[ll] = bv[ll];
            }
            for (int p = 0; p < j; ++p) {
                const double *ir = dbr + ((size_t)i * m + p) * l;
                const double *ii = dbi + ((size_t)i * m + p) * l;
                const double *jr = dbr + ((size_t)j * m + p) * l;
                const double *ji = dbi + ((size_t)j * m + p) * l;
                /* acc -= a[i,p] * conj(a[j,p]) */
                for (size_t ll = 0; ll < l; ++ll) {
                    tr[ll] -= ir[ll] * jr[ll] + ii[ll] * ji[ll];
                    ti[ll] -= ii[ll] * jr[ll] - ir[ll] * ji[ll];
                }
            }
            for (size_t ll = 0; ll < l; ++ll) {
                av[ll] = tr[ll] * si[ll];
                bv[ll] = ti[ll] * si[ll];
            }
        }
    }
    /* forward substitution L y = Cbar w */
    for (int i = 0; i < m; ++i) {
        const size_t row = (size_t)i * l;
        for (size_t ll = 0; ll < l; ++ll) {
            tr[ll] = cwr[row + ll];
            ti[ll] = cwi[row + ll];
        }
        for (int p = 0; p < i; ++p) {
            const double *ir = dbr + ((size_t)i * m + p) * l;
            const double *ii = dbi + ((size_t)i * m + p) * l;
            const size_t col = (size_t)p * l;
            for (size_t ll = 0; ll < l; ++ll) {
                tr[ll] -= ir[ll] * cwr[col + ll] - ii[ll] * cwi[col + ll];
                ti[ll] -= ir[ll] * cwi[col + ll] + ii[ll] * cwr[col + ll];
            }
        }
        const double *dii = dbr + ((size_t)i * m + i) * l;
        for (size_t ll = 0; ll < l; ++ll) {
            double inv = 1.0 / dii[ll];
            cwr[row + ll] = tr[ll] * inv;
            cwi[row + ll] = ti[ll] * inv;
        }
    }
    /* backward substitution L^H z = y */
    for (int i = m - 1; i >= 0; --i) {
        const size_t row = (size_t)i * l;
        for (size_t ll = 0; ll < l; ++ll) {
            tr[ll] = cwr[row + ll];
            ti[ll] = cwi[row + ll];
        }
        for (int p = i + 1; p < m; ++p) {
            const double *pr = dbr + ((size_t)p * m + i) * l;
            const double *pi = dbi + ((size_t)p * m + i) * l;
            const size_t col = (size_t)p * l;
            /* acc -= conj(a[p,i]) * z[p] */
            for (size_t ll = 0; ll < l; ++ll) {
                tr[ll] -= pr[ll] * cwr[col + ll] + pi[ll] * cwi[col + ll];
                ti[ll] -= pr[ll] * cwi[col + ll] - pi[ll] * cwr[col + ll];
            }
        }
        const double *dii = dbr + ((size_t)i * m + i) * l;
        for (size_t ll = 0; ll < l; ++ll) {
            double inv = 1.0 / dii[ll];
            cwr[row + ll] = tr[ll] * inv;
            cwi[row + ll] = ti[ll] * inv;
        }
    }
    return 1;
}

static double *image_re(double *work, int k_users, int m, int l_ris)
{
    return work + 2 * (size_t)k_users * (1 + (size_t)m * l_ris);
}

/* One lane: returns the iteration count, or minus it when a denominator
 * block is not positive definite (w is then left at the previous iterate).
 * On success *residual is ||Dbar^-1 Cbar w - w|| at the returned w, the
 * lambda-free fixed-point residual. */
static int ris_loop_lane(int k_users, int m, int l_ris,
                         const double *restrict cr, const double *restrict ci,
                         const double *restrict ur, const double *restrict ui,
                         double noise_over_p, double inv_rs_ln2, double mu,
                         double tau, double alpha1, double alpha2,
                         double *restrict wr, double *restrict wi,
                         double tol, int max_iters, double *restrict residual,
                         double *restrict work)
{
    const size_t l = (size_t)l_ris;
    const size_t ml = (size_t)m * l;
    const double *cwr = image_re(work, k_users, m, l_ris);
    const double *cwi = cwr + ml;
    double *restrict dr = work + image_work(k_users, m, l_ris);
    double *restrict di = dr + (size_t)k_users * m * ml;
    /* D_k = C_k - u_k u_k^H, the u products as numpy's u * conj(u) */
    for (int kk = 0; kk < k_users; ++kk) {
        for (int a = 0; a < m; ++a) {
            const double *ura = ur + ((size_t)kk * m + a) * l;
            const double *uia = ui + ((size_t)kk * m + a) * l;
            for (int b = 0; b < m; ++b) {
                const double *urb = ur + ((size_t)kk * m + b) * l;
                const double *uib = ui + ((size_t)kk * m + b) * l;
                const size_t at = (((size_t)kk * m + a) * m + b) * l;
                for (size_t ll = 0; ll < l; ++ll) {
                    dr[at + ll] = cr[at + ll]
                        - (ura[ll] * urb[ll] + uia[ll] * uib[ll]);
                    di[at + ll] = ci[at + ll]
                        - (uia[ll] * urb[ll] - ura[ll] * uib[ll]);
                }
            }
        }
    }
    int iters = 0;
    for (int it = 0; it < max_iters; ++it) {
        ++iters;
        if (!ris_image(k_users, m, l_ris, cr, ci, dr, di, ur, ui, noise_over_p,
                       inv_rs_ln2, mu, tau, alpha1, alpha2, wr, wi, work))
            return -iters;
        double nrm = 0.0;
        for (size_t i = 0; i < ml; ++i)
            nrm += cwr[i] * cwr[i] + cwi[i] * cwi[i];
        const double inv_nrm = 1.0 / sqrt(nrm);
        double step = 0.0;
        for (size_t i = 0; i < ml; ++i) {
            double vr = cwr[i] * inv_nrm;
            double vi = cwi[i] * inv_nrm;
            step += (vr - wr[i]) * (vr - wr[i]) + (vi - wi[i]) * (vi - wi[i]);
            wr[i] = vr;
            wi[i] = vi;
        }
        if (sqrt(step) <= tol)
            break;
    }
    if (!ris_image(k_users, m, l_ris, cr, ci, dr, di, ur, ui, noise_over_p,
                   inv_rs_ln2, mu, tau, alpha1, alpha2, wr, wi, work))
        return -iters;
    double res = 0.0;
    for (size_t i = 0; i < ml; ++i)
        res += (cwr[i] - wr[i]) * (cwr[i] - wr[i])
               + (cwi[i] - wi[i]) * (cwi[i] - wi[i]);
    *residual = sqrt(res);
    return iters;
}

/* Runs every lane; returns the number of lanes with a negative count. */
int gpris_ris_loop(int p_lanes, int k_users, int m, int l_ris,
                   const double *restrict cr, const double *restrict ci,
                   const double *restrict ur, const double *restrict ui,
                   double noise_over_p, double inv_rs_ln2,
                   const double *restrict mu, double tau, double alpha1,
                   double alpha2, double *restrict wr, double *restrict wi,
                   double tol, int max_iters, int *restrict iters,
                   double *restrict residual, double *restrict work)
{
    const size_t ml = (size_t)m * l_ris;
    const size_t kml = (size_t)k_users * ml;
    const size_t kmml = kml * m;
    int failed = 0;
    for (int p = 0; p < p_lanes; ++p) {
        iters[p] = ris_loop_lane(k_users, m, l_ris, cr + p * kmml,
                                 ci + p * kmml, ur + p * kml, ui + p * kml,
                                 noise_over_p, inv_rs_ln2, mu[p], tau, alpha1,
                                 alpha2, wr + p * ml, wi + p * ml, tol,
                                 max_iters, residual + p, work);
        if (iters[p] < 0)
            ++failed;
    }
    return failed;
}
