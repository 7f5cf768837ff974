/* Compiled inner loop for the RIS-stage fixed-point iteration.
 *
 * Iterates w <- normalize(Dbar^-1 Cbar w).  gpris._kernel builds this file
 * into a shared library on first use and calls it through ctypes;
 * gpi_ris.ris_gpi_matrices is the numpy reference it mirrors.
 *
 * P independent lanes (one per penalty weight mu) run one after another in
 * a single call, each on its own blocks, iterate and mu, and each with its
 * own iteration count, so a lane's result does not depend on the others.
 *
 * Inputs are read as numpy holds them, complex128 as interleaved (re, im)
 * doubles in C order (int for iters):
 *   c              (P, K, L, M, M) per-user per-RIS C_k blocks, lane stride
 *                  c_stride complex entries (0 when every lane shares them)
 *   u              (P, K, L, M) signal columns with C_k - D_k = u_k u_k^H,
 *                  lane stride u_stride, so the D quadratic form is a
 *                  rank-one correction of the C one
 *   mu             (P,) penalty weight of each lane
 *   w              (P, L*M) unit-norm iterates, updated in place
 *   iters          (P,) iteration count of each lane, negative when a
 *                  denominator block of that lane is not positive definite
 *   residual       (P,) fixed-point residual of each lane at its exit
 *   seconds        wall time of the call (monotonic clock)
 *   work           gpris_ris_loop_work(K, M, L) doubles of scratch
 *
 * Each lane is first copied into scratch with real and imaginary parts split
 * and the RIS index innermost, so the L blocks are computed side by side
 * (lanes that share their blocks share one copy).  Every inner loop runs
 * over independent outputs, the (row, RIS) entries of the matvecs, of the
 * Cbar image and of the Dbar blocks, and the right-looking Cholesky updates
 * each trailing row over its (column, RIS) entries; each output keeps its
 * accumulation order, so no reduction is reassociated:
 *   ct             (K, M, M, L) C_k by columns, ct[k][b][a][l] = C_kl[a, b]
 *   d              (K, T, L) lower triangles of D_k = C_k - u_k u_k^H, rows
 *                  packed (T = M(M+1)/2 entries per block)
 *   us, ws         (K, M, L) and (M, L)
 */
#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <time.h>

/* offset of row a of a packed lower triangle */
#define TRI(a) ((size_t)(a) * ((size_t)(a) + 1) / 2)

/* Split re/im arrays of one lane's inputs and of one image computation. */
struct lane {
    double *ctr, *cti, *dr, *di, *ur, *ui, *wr, *wi;
};

struct image {
    double *iqc, *iqd, *ycr, *yci, *cwr, *cwi, *exp_c, *exp_d, *dbr, *dbi,
        *colr, *coli, *sr, *si, *tr, *ti;
};

/* Lay out both in the scratch (when given); returns the doubles it needs. */
static size_t carve(int k_users, int m, int l_ris, double *work,
                    struct lane *ln, struct image *im)
{
    const size_t k = (size_t)k_users, l = (size_t)l_ris;
    const size_t ml = (size_t)m * l, mml = (size_t)m * ml;
    const size_t tl = TRI(m) * l;
    /* each array starts on a 64-byte boundary: a vector that loads a
     * whole row of an aligned array then never straddles two cache lines */
    double *base = work ? (double *)(((uintptr_t)work + 63) & ~(uintptr_t)63)
                        : NULL;
    size_t used = 0;
#define TAKE(field, n) \
    (field = base ? base + used : NULL, used += ((n) + 7) / 8 * 8)
    TAKE(ln->ctr, k * mml);
    TAKE(ln->cti, k * mml);
    TAKE(ln->dr, k * tl);
    TAKE(ln->di, k * tl);
    TAKE(ln->ur, k * ml);
    TAKE(ln->ui, k * ml);
    TAKE(ln->wr, ml);
    TAKE(ln->wi, ml);
    TAKE(im->iqc, k);
    TAKE(im->iqd, k);
    TAKE(im->ycr, k * ml);
    TAKE(im->yci, k * ml);
    TAKE(im->cwr, ml);
    TAKE(im->cwi, ml);
    TAKE(im->exp_c, ml);
    TAKE(im->exp_d, ml);
    TAKE(im->dbr, tl);
    TAKE(im->dbi, tl);
    TAKE(im->colr, ml);
    TAKE(im->coli, ml);
    TAKE(im->sr, l);
    TAKE(im->si, l);
    TAKE(im->tr, l);
    TAKE(im->ti, l);
#undef TAKE
    return used + 7;  /* the slack for the alignment */
}

long gpris_ris_loop_work(int k_users, int m, int l_ris)
{
    struct lane ln;
    struct image im;
    return (long)carve(k_users, m, l_ris, NULL, &ln, &im);
}

/* Copy one lane's C_k and u_k into the split layout and form the lower
 * triangles of D_k = C_k - u_k u_k^H, the u products as numpy's u * conj(u). */
static void load_blocks(int k_users, int m, int l_ris, const double *restrict c,
                        const double *restrict u, const struct lane *ln)
{
    const size_t l = (size_t)l_ris, mm = (size_t)m;
    for (int kk = 0; kk < k_users; ++kk) {
        for (size_t ll = 0; ll < l; ++ll) {
            const double *blk = c + 2 * (((size_t)kk * l + ll) * mm * mm);
            const double *uv = u + 2 * (((size_t)kk * l + ll) * mm);
            for (size_t a = 0; a < mm; ++a) {
                ln->ur[((size_t)kk * mm + a) * l + ll] = uv[2 * a];
                ln->ui[((size_t)kk * mm + a) * l + ll] = uv[2 * a + 1];
                for (size_t b = 0; b < mm; ++b) {
                    const size_t at = (((size_t)kk * mm + b) * mm + a) * l + ll;
                    ln->ctr[at] = blk[2 * (a * mm + b)];
                    ln->cti[at] = blk[2 * (a * mm + b) + 1];
                }
            }
        }
    }
    const size_t tl = TRI(m) * l;
    for (int kk = 0; kk < k_users; ++kk) {
        for (size_t a = 0; a < mm; ++a) {
            const double *ura = ln->ur + ((size_t)kk * mm + a) * l;
            const double *uia = ln->ui + ((size_t)kk * mm + a) * l;
            for (size_t b = 0; b <= a; ++b) {
                const double *urb = ln->ur + ((size_t)kk * mm + b) * l;
                const double *uib = ln->ui + ((size_t)kk * mm + b) * l;
                const size_t from = (((size_t)kk * mm + b) * mm + a) * l;
                const size_t to = kk * tl + (TRI(a) + b) * l;
                for (size_t ll = 0; ll < l; ++ll) {
                    ln->dr[to + ll] = ln->ctr[from + ll]
                        - (ura[ll] * urb[ll] + uia[ll] * uib[ll]);
                    ln->di[to + ll] = ln->cti[from + ll]
                        - (uia[ll] * urb[ll] - ura[ll] * uib[ll]);
                }
            }
        }
    }
}

/* Image Dbar(w)^-1 Cbar(w) w of one lane's iterate, unnormalized, left in
 * im->cwr / im->cwi; returns 0 when a denominator block is not positive
 * definite. */
static int ris_image(int k_users, int m, int l_ris, const struct lane *ln,
                     const struct image *im, double noise_over_p,
                     double inv_rs_ln2, double mu, double tau, double alpha1,
                     double alpha2)
{
    const size_t l = (size_t)l_ris, mm = (size_t)m;
    const size_t ml = mm * l, tl = TRI(m) * l;
    const double *restrict wr = ln->wr;
    const double *restrict wi = ln->wi;
    double *restrict iqc = im->iqc;
    double *restrict iqd = im->iqd;
    double *restrict cwr = im->cwr;
    double *restrict cwi = im->cwi;
    double *restrict dbr = im->dbr;
    double *restrict dbi = im->dbi;
    double *restrict sr = im->sr;
    double *restrict si = im->si;
    double *restrict tr = im->tr;
    double *restrict ti = im->ti;
    /* block matvecs y = C_k w reused for both the quadratic forms and
     * the Cbar image (Cbar itself is never assembled); w^H D_k w is the
     * rank-one correction w^H C_k w - |u_k^H w|^2 */
    for (int kk = 0; kk < k_users; ++kk) {
        double *restrict yr = im->ycr + (size_t)kk * ml;
        double *restrict yi = im->yci + (size_t)kk * ml;
        for (size_t i = 0; i < ml; ++i) {
            yr[i] = 0.0;
            yi[i] = 0.0;
        }
        for (size_t b = 0; b < mm; ++b) {
            const double *restrict crv = ln->ctr + ((size_t)kk * mm + b) * ml;
            const double *restrict civ = ln->cti + ((size_t)kk * mm + b) * ml;
            const double *restrict wrb = wr + b * l;
            const double *restrict wib = wi + b * l;
            for (size_t a = 0; a < mm; ++a) {
                const size_t row = a * l;
                for (size_t ll = 0; ll < l; ++ll) {
                    yr[row + ll] += crv[row + ll] * wrb[ll]
                                    - civ[row + ll] * wib[ll];
                    yi[row + ll] += crv[row + ll] * wib[ll]
                                    + civ[row + ll] * wrb[ll];
                }
            }
        }
        for (size_t ll = 0; ll < l; ++ll) {
            sr[ll] = 0.0;     /* running Re(w^H C_k w) per block */
            tr[ll] = 0.0;     /* Re/Im of u_k^H w per block */
            ti[ll] = 0.0;
        }
        for (size_t a = 0; a < mm; ++a) {
            const double *wra = wr + a * l;
            const double *wia = wi + a * l;
            const double *yra = yr + a * l;
            const double *yia = yi + a * l;
            const double *urv = ln->ur + ((size_t)kk * mm + a) * l;
            const double *uiv = ln->ui + ((size_t)kk * mm + a) * l;
            for (size_t ll = 0; ll < l; ++ll) {
                sr[ll] += wra[ll] * yra[ll] + wia[ll] * yia[ll];
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
            im->exp_c[i] = ec;
            im->exp_d[i] = ed;
            zc += ec;
            zd += ed;
        }
        pen_c = mu / (tau * zc);
        pen_d = mu / (tau * zd);
    }
    const double diag_c = inv_rs_ln2 * noise_over_p * sum_inv_c;
    const double diag_d = inv_rs_ln2 * noise_over_p * sum_inv_d;
    /* image (Cbar w) from the cached matvecs, penalty folded in */
    for (size_t i = 0; i < ml; ++i) {
        cwr[i] = 0.0;
        cwi[i] = 0.0;
    }
    for (int kk = 0; kk < k_users; ++kk) {
        const double *restrict yr = im->ycr + (size_t)kk * ml;
        const double *restrict yi = im->yci + (size_t)kk * ml;
        const double q = iqc[kk];
        for (size_t i = 0; i < ml; ++i) {
            cwr[i] += yr[i] * q;
            cwi[i] += yi[i] * q;
        }
    }
    for (size_t i = 0; i < ml; ++i) {
        double extra = diag_c;
        if (mu > 0.0)
            extra += pen_c * im->exp_c[i];
        cwr[i] = inv_rs_ln2 * cwr[i] + extra * wr[i];
        cwi[i] = inv_rs_ln2 * cwi[i] + extra * wi[i];
    }
    /* lower triangles of the Dbar blocks, assembled batched for the solve */
    for (size_t j = 0; j < tl; ++j) {
        dbr[j] = 0.0;
        dbi[j] = 0.0;
    }
    for (int kk = 0; kk < k_users; ++kk) {
        const double *restrict drv = ln->dr + (size_t)kk * tl;
        const double *restrict div = ln->di + (size_t)kk * tl;
        const double q = iqd[kk];
        for (size_t j = 0; j < tl; ++j) {
            dbr[j] += drv[j] * q;
            dbi[j] += div[j] * q;
        }
    }
    for (size_t j = 0; j < tl; ++j) {
        dbr[j] *= inv_rs_ln2;
        dbi[j] *= inv_rs_ln2;
    }
    for (size_t a = 0; a < mm; ++a) {
        double *restrict diag = dbr + (TRI(a) + a) * l;
        for (size_t ll = 0; ll < l; ++ll) {
            double extra = diag_d;
            if (mu > 0.0)
                extra += pen_d * im->exp_d[a * l + ll];
            diag[ll] += extra;
        }
    }
    /* batched in-place lower Cholesky of all L blocks at once, right-looking:
     * each entry takes its updates in the same order as the left-looking
     * dot products would */
    double *restrict colr = im->colr;
    double *restrict coli = im->coli;
    for (size_t j = 0; j < mm; ++j) {
        double *restrict djj = dbr + (TRI(j) + j) * l;
        for (size_t ll = 0; ll < l; ++ll) {
            if (djj[ll] <= 0.0)
                return 0;
            djj[ll] = sqrt(djj[ll]);
            si[ll] = 1.0 / djj[ll];
        }
        /* scale column j, and keep a contiguous copy of it */
        for (size_t i = j + 1; i < mm; ++i) {
            double *restrict av = dbr + (TRI(i) + j) * l;
            double *restrict bv = dbi + (TRI(i) + j) * l;
            for (size_t ll = 0; ll < l; ++ll) {
                av[ll] = av[ll] * si[ll];
                bv[ll] = bv[ll] * si[ll];
                colr[i * l + ll] = av[ll];
                coli[i * l + ll] = bv[ll];
            }
        }
        /* a[i, k] -= a[i, j] * conj(a[k, j]) for j < k <= i */
        for (size_t i = j + 1; i < mm; ++i) {
            const double *ir = colr + i * l;
            const double *ii = coli + i * l;
            double *restrict rowr = dbr + TRI(i) * l;
            double *restrict rowi = dbi + TRI(i) * l;
            for (size_t k = j + 1; k <= i; ++k) {
                const double *jr = colr + k * l;
                const double *ji = coli + k * l;
                double *restrict ar = rowr + k * l;
                double *restrict ai = rowi + k * l;
                for (size_t ll = 0; ll < l; ++ll) {
                    ar[ll] -= ir[ll] * jr[ll] + ii[ll] * ji[ll];
                    ai[ll] -= ii[ll] * jr[ll] - ir[ll] * ji[ll];
                }
            }
        }
    }
    /* forward substitution L y = Cbar w */
    for (size_t i = 0; i < mm; ++i) {
        const size_t row = i * l;
        for (size_t ll = 0; ll < l; ++ll) {
            tr[ll] = cwr[row + ll];
            ti[ll] = cwi[row + ll];
        }
        for (size_t p = 0; p < i; ++p) {
            const double *ir = dbr + (TRI(i) + p) * l;
            const double *ii = dbi + (TRI(i) + p) * l;
            const size_t col = p * l;
            for (size_t ll = 0; ll < l; ++ll) {
                tr[ll] -= ir[ll] * cwr[col + ll] - ii[ll] * cwi[col + ll];
                ti[ll] -= ir[ll] * cwi[col + ll] + ii[ll] * cwr[col + ll];
            }
        }
        const double *dii = dbr + (TRI(i) + i) * l;
        for (size_t ll = 0; ll < l; ++ll) {
            double inv = 1.0 / dii[ll];
            cwr[row + ll] = tr[ll] * inv;
            cwi[row + ll] = ti[ll] * inv;
        }
    }
    /* backward substitution L^H z = y */
    for (size_t i = mm; i-- > 0;) {
        const size_t row = i * l;
        for (size_t ll = 0; ll < l; ++ll) {
            tr[ll] = cwr[row + ll];
            ti[ll] = cwi[row + ll];
        }
        for (size_t p = i + 1; p < mm; ++p) {
            const double *pr = dbr + (TRI(p) + i) * l;
            const double *pi = dbi + (TRI(p) + i) * l;
            const size_t col = p * l;
            /* acc -= conj(a[p,i]) * z[p] */
            for (size_t ll = 0; ll < l; ++ll) {
                tr[ll] -= pr[ll] * cwr[col + ll] + pi[ll] * cwi[col + ll];
                ti[ll] -= pr[ll] * cwi[col + ll] - pi[ll] * cwr[col + ll];
            }
        }
        const double *dii = dbr + (TRI(i) + i) * l;
        for (size_t ll = 0; ll < l; ++ll) {
            double inv = 1.0 / dii[ll];
            cwr[row + ll] = tr[ll] * inv;
            cwi[row + ll] = ti[ll] * inv;
        }
    }
    return 1;
}

/* One lane: returns the iteration count, or minus it when a denominator
 * block is not positive definite (w is then left at the previous iterate).
 * On success *residual is ||Dbar^-1 Cbar w - w|| at the returned w, the
 * lambda-free fixed-point residual. */
static int ris_loop_lane(int k_users, int m, int l_ris, const struct lane *ln,
                         const struct image *im, double noise_over_p,
                         double inv_rs_ln2, double mu, double tau,
                         double alpha1, double alpha2, double tol,
                         int max_iters, double *restrict residual)
{
    const size_t ml = (size_t)m * l_ris;
    const double *cwr = im->cwr;
    const double *cwi = im->cwi;
    double *restrict wr = ln->wr;
    double *restrict wi = ln->wi;
    int iters = 0;
    for (int it = 0; it < max_iters; ++it) {
        ++iters;
        if (!ris_image(k_users, m, l_ris, ln, im, noise_over_p, inv_rs_ln2, mu,
                       tau, alpha1, alpha2))
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
    if (!ris_image(k_users, m, l_ris, ln, im, noise_over_p, inv_rs_ln2, mu,
                   tau, alpha1, alpha2))
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
                   const double *restrict c, long c_stride,
                   const double *restrict u, long u_stride,
                   double noise_over_p, double inv_rs_ln2,
                   const double *restrict mu, double tau, double alpha1,
                   double alpha2, double *restrict w, double tol,
                   int max_iters, int *restrict iters,
                   double *restrict residual, double *restrict seconds,
                   double *restrict work)
{
    const size_t l = (size_t)l_ris, mm = (size_t)m, ml = mm * l;
    struct timespec t0, t1;
    clock_gettime(CLOCK_MONOTONIC, &t0);
    struct lane ln;
    struct image im;
    carve(k_users, m, l_ris, work, &ln, &im);
    int failed = 0;
    for (int p = 0; p < p_lanes; ++p) {
        /* lanes that share their blocks reuse the previous lane's copy */
        if (p == 0 || c_stride != 0 || u_stride != 0)
            load_blocks(k_users, m, l_ris, c + 2 * (size_t)p * c_stride,
                        u + 2 * (size_t)p * u_stride, &ln);
        double *wp = w + 2 * (size_t)p * ml;
        for (size_t ll = 0; ll < l; ++ll)
            for (size_t a = 0; a < mm; ++a) {
                ln.wr[a * l + ll] = wp[2 * (ll * mm + a)];
                ln.wi[a * l + ll] = wp[2 * (ll * mm + a) + 1];
            }
        iters[p] = ris_loop_lane(k_users, m, l_ris, &ln, &im, noise_over_p,
                                 inv_rs_ln2, mu[p], tau, alpha1, alpha2, tol,
                                 max_iters, residual + p);
        for (size_t ll = 0; ll < l; ++ll)
            for (size_t a = 0; a < mm; ++a) {
                wp[2 * (ll * mm + a)] = ln.wr[a * l + ll];
                wp[2 * (ll * mm + a) + 1] = ln.wi[a * l + ll];
            }
        if (iters[p] < 0)
            ++failed;
    }
    clock_gettime(CLOCK_MONOTONIC, &t1);
    *seconds = (double)(t1.tv_sec - t0.tv_sec) + 1e-9 * (t1.tv_nsec - t0.tv_nsec);
    return failed;
}
