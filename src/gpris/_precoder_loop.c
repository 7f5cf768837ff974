/* Compiled inner loop for the precoder-stage fixed-point iteration.
 *
 * Iterates f <- normalize(Bbar^-1 Abar f) for the stacked precoder f of K
 * columns f_j, each of N entries, under isotropic errors: user k's block is
 * G_k = h_k h_k^H + xi_k I.  Abar is block diagonal with one repeated block
 * lambda A, and Bbar's k-th block is B - h_k h_k^H / qb_k, where
 *   A = sum_k h_k h_k^H / qa_k + sum_k (xi_k + sigma^2/P) / qa_k I,
 *   B = sum_k h_k h_k^H / qb_k + sum_k (xi_k + sigma^2/P) / qb_k I,
 * so the quadratic forms and A f_j follow from the K^2 products
 * t_kj = h_k^H f_j.  One Cholesky factor of B per iteration solves the 2K
 * right-hand sides lambda A f_k -> y_k and h_k -> z_k, and Sherman-Morrison
 * gives Bbar_k^-1 lambda A f_k = y_k + z_k (h_k^H y_k) / s_k with
 * s_k = qb_k - h_k^H z_k.
 * Bbar_k is positive definite exactly when B is and s_k > 0.  gpris._kernel
 * builds this file into the same shared library as the RIS loop and calls
 * it through ctypes; gpi_precoder.gpi_matrices, on the dense blocks G_k, is
 * the numpy reference it mirrors.
 *
 * One call runs the loop of one lane; a batch of lanes (run_gpi_precoder's
 * lane axis) is a call per lane.
 *
 * Layout, all row-major complex128 as interleaved (re, im) doubles:
 *   h              (K, N) estimated effective channels h_k
 *   xi             real (K,) error scales xi_k
 *   f              (K, N) unit-norm column-stacked iterate, in place
 *   block          on failure, the Bbar block that is not positive
 *                  definite, or -1 when a quadratic form is not positive
 *   step           the last step the loop took, the smaller of
 *                  ||f_t - f_{t-1}|| and ||f_t + f_{t-1}||; left as it was
 *                  when it took none
 *   work           gpris_precoder_loop_work(K, N) doubles of scratch,
 *                  zeroed (see below)
 * and the return value is the iteration count, negative on failure.
 *
 * The lane's h and f are first copied into scratch with real and imaginary
 * parts split and each row of N entries padded to whole strips of W = 8.
 * The sums of B's columns (over the users), of the Cholesky columns (over
 * the earlier columns) and of each row of the triangular solves (over the
 * earlier rows, for all 2K right-hand sides, padded to whole strips too)
 * are held in registers a strip at a time and stored once, and every
 * output keeps its accumulation order.  The strips run over padding as
 * well, which the caller zeroes and no output reads: B's column b and the
 * factor's column j from the strip that holds their diagonal, where the
 * entries above it are left as the strip computed them, to the padded N.
 */
#include <math.h>

#include "_loops.h"

/* Split re/im arrays of one lane's inputs (and its xi, in place) and of
 * one image computation. */
struct lane {
    double *hr, *hi, *fr, *fi;
    const double *xi;
};

struct image {
    double *tr, *ti, *br, *bi, *vr, *vi, *outr, *outi, *qa, *qb, *iqa, *iqb;
};

/* Lay out both in the scratch (when given); returns the doubles it needs. */
static size_t carve(int k_users, int n, double *work, struct lane *ln,
                    struct image *im)
{
    const size_t k = (size_t)k_users, nn = (size_t)n, np = PAD(n);
    struct carver c = carver(work);
    ln->hr = take(&c, k * np);  /* (K, N) rows padded to np */
    ln->hi = take(&c, k * np);
    ln->fr = take(&c, k * np);  /* (K, N) likewise */
    ln->fi = take(&c, k * np);
    im->tr = take(&c, k * k);  /* (K, K): t_kj = h_k^H f_j */
    im->ti = take(&c, k * k);
    im->br = take(&c, nn * np);  /* B, then its factor, by padded columns */
    im->bi = take(&c, nn * np);
    im->vr = take(&c, nn * PAD(2 * k));  /* (N, 2K): the y_j, then the z_j */
    im->vi = take(&c, nn * PAD(2 * k));
    im->outr = take(&c, k * nn);  /* (K, N) the image */
    im->outi = take(&c, k * nn);
    im->qa = take(&c, k);
    im->qb = take(&c, k);
    im->iqa = take(&c, k);
    im->iqb = take(&c, k);
    return c.used + 7;
}

long gpris_precoder_loop_work(int k_users, int n)
{
    struct lane ln;
    struct image im;
    return (long)carve(k_users, n, NULL, &ln, &im);
}

/* Image x = Bbar(f)^-1 Abar(f) f of one lane, unnormalized, in im->outr /
 * im->outi.  Returns 0 on failure with *block set as in the layout above. */
static int precoder_image(int k_users, int n, const struct lane *ln,
                          const struct image *im, double noise_over_p,
                          int *restrict block)
{
    const size_t k = (size_t)k_users, nn = (size_t)n, np = PAD(n);
    const size_t rs = PAD(2 * k);  /* the row stride of v */
    const double *restrict fr = ln->fr;
    const double *restrict fi = ln->fi;
    const double *restrict hr = ln->hr;
    const double *restrict hi = ln->hi;
    const double *restrict xi = ln->xi;
    double *restrict tr = im->tr;
    double *restrict ti = im->ti;
    double *restrict qa = im->qa;
    double *restrict qb = im->qb;
    double *restrict iqa = im->iqa;
    double *restrict iqb = im->iqb;
    double *restrict br = im->br;
    double *restrict bi = im->bi;
    double *restrict vr = im->vr;
    double *restrict vi = im->vi;
    double power = 0.0;
    for (size_t kk = 0; kk < k; ++kk)
        for (size_t a = kk * np; a < kk * np + nn; ++a) {
            power += fr[a] * fr[a];
            power += fi[a] * fi[a];
        }
    /* the products t_kj = h_k^H f_j serve both the quadratic forms and A f */
    for (size_t kk = 0; kk < k; ++kk) {
        const double *hkr = hr + kk * np, *hki = hi + kk * np;
        double acc = 0.0;
        for (size_t j = 0; j < k; ++j) {
            const double *fjr = fr + j * np, *fji = fi + j * np;
            double t_re = 0.0, t_im = 0.0;
            for (size_t a = 0; a < nn; ++a) {
                t_re += hkr[a] * fjr[a] + hki[a] * fji[a];
                t_im += hkr[a] * fji[a] - hki[a] * fjr[a];
            }
            tr[kk * k + j] = t_re;
            ti[kk * k + j] = t_im;
            acc += t_re * t_re + t_im * t_im;
        }
        const double signal = tr[kk * k + kk] * tr[kk * k + kk]
                              + ti[kk * k + kk] * ti[kk * k + kk];
        qa[kk] = acc + (xi[kk] + noise_over_p) * power;
        qb[kk] = qa[kk] - signal;
        if (qa[kk] <= 0.0 || qb[kk] <= 0.0) {
            *block = -1;
            return 0;
        }
    }
    double prod = 1.0, diag_a = 0.0, diag_b = 0.0;
    for (size_t kk = 0; kk < k; ++kk) {
        prod *= qa[kk] / qb[kk];
        iqa[kk] = 1.0 / qa[kk];
        iqb[kk] = 1.0 / qb[kk];
        diag_a += (xi[kk] + noise_over_p) * iqa[kk];
        diag_b += (xi[kk] + noise_over_p) * iqb[kk];
    }
    /* right-hand sides lambda A f_j (columns j of v), and h_j (K + j):
     * a strip of rows, each summing h_k t_kj / qa_k over the users */
    for (size_t j = 0; j < k; ++j)
        for (size_t a0 = 0; a0 < nn; a0 += W) {
            vd sr = {0}, si = {0};
            for (size_t kk = 0; kk < k; ++kk) {
                const double cr = tr[kk * k + j] * iqa[kk];
                const double ci = ti[kk * k + j] * iqa[kk];
                const vd hkr = ld(hr + kk * np + a0);
                const vd hki = ld(hi + kk * np + a0);
                sr += hkr * cr - hki * ci;
                si += hkr * ci + hki * cr;
            }
            sr = prod * (sr + diag_a * ld(fr + j * np + a0));
            si = prod * (si + diag_a * ld(fi + j * np + a0));
            for (size_t a = a0; a < nn && a < a0 + W; ++a) {
                vr[a * rs + j] = sr[a - a0];
                vi[a * rs + j] = si[a - a0];
                vr[a * rs + k + j] = hr[j * np + a];
                vi[a * rs + k + j] = hi[j * np + a];
            }
        }
    /* lower triangle of B by columns: column b, a strip of rows at a time,
     * each summing h_k conj(h_k[b]) / qb_k over the users */
    for (size_t b = 0; b < nn; ++b)
        for (size_t a0 = b / W * W; a0 < np; a0 += W) {
            vd xr = {0}, xq = {0};
            for (size_t kk = 0; kk < k; ++kk) {
                const double wr = hr[kk * np + b] * iqb[kk];
                const double wi = -(hi[kk * np + b] * iqb[kk]);
                const vd hkr = ld(hr + kk * np + a0);
                const vd hki = ld(hi + kk * np + a0);
                xr += hkr * wr - hki * wi;
                xq += hkr * wi + hki * wr;
            }
            if (a0 <= b)
                xr[b - a0] += diag_b;
            st(br + b * np + a0, xr);
            st(bi + b * np + a0, xq);
        }
    /* its Cholesky factor in place, left-looking: column j takes
     * l[i,j] = (b[i,j] - sum_p l[i,p] conj(l[j,p])) / l[j,j] for i > j, and
     * in its first strip the same sum gives l[j,j]^2 */
    for (size_t j = 0; j < nn; ++j) {
        double d = 0.0;
        for (size_t i0 = j / W * W; i0 < np; i0 += W) {
            vd xr = ld(br + j * np + i0), xq = ld(bi + j * np + i0);
            for (size_t p = 0; p < j; ++p) {
                const double ljr = br[p * np + j], lji = bi[p * np + j];
                const vd pr = ld(br + p * np + i0), pi = ld(bi + p * np + i0);
                xr -= pr * ljr + pi * lji;
                xq -= pi * ljr - pr * lji;
            }
            if (i0 <= j) {
                d = xr[j - i0];
                /* Bbar_k lies below B, so every block fails with it */
                if (!(d > 0.0)) {
                    *block = 0;
                    return 0;
                }
                d = sqrt(d);
            }
            xr = xr / d;
            xq = xq / d;
            if (i0 <= j) {
                xr[j - i0] = d;
                xq[j - i0] = 0.0;
            }
            st(br + j * np + i0, xr);
            st(bi + j * np + i0, xq);
        }
    }
    /* all 2K right-hand sides through B^-1 = L^-H L^-1, a strip of them at
     * a time: row i of L y = v, then row i of L^H z = y from the last */
    for (size_t i = 0; i < nn; ++i) {
        const double d = br[i * np + i];
        for (size_t r = 0; r < rs; r += W) {
            vd xr = ld(vr + i * rs + r), xq = ld(vi + i * rs + r);
            for (size_t p = 0; p < i; ++p) {
                const double lr = br[p * np + i], li = bi[p * np + i];
                const vd pr = ld(vr + p * rs + r), pi = ld(vi + p * rs + r);
                xr -= lr * pr - li * pi;
                xq -= lr * pi + li * pr;
            }
            st(vr + i * rs + r, xr / d);
            st(vi + i * rs + r, xq / d);
        }
    }
    for (size_t i = nn; i-- > 0;) {
        const double d = br[i * np + i];
        for (size_t r = 0; r < rs; r += W) {
            vd xr = ld(vr + i * rs + r), xq = ld(vi + i * rs + r);
            for (size_t p = i + 1; p < nn; ++p) {
                /* acc -= conj(l[p,i]) * v[p] */
                const double lr = br[i * np + p], li = bi[i * np + p];
                const vd pr = ld(vr + p * rs + r), pi = ld(vi + p * rs + r);
                xr -= lr * pr + li * pi;
                xq -= lr * pi - li * pr;
            }
            st(vr + i * rs + r, xr / d);
            st(vi + i * rs + r, xq / d);
        }
    }
    /* Sherman-Morrison: x_j = y_j + z_j (h_j^H y_j) / s_j */
    for (size_t j = 0; j < k; ++j) {
        const double *hjr = hr + j * np, *hji = hi + j * np;
        double hyr = 0.0, hyi = 0.0, hz = 0.0;
        for (size_t a = 0; a < nn; ++a) {
            const double yr = vr[a * rs + j], yi = vi[a * rs + j];
            const double zr = vr[a * rs + k + j], zi = vi[a * rs + k + j];
            hyr += hjr[a] * yr + hji[a] * yi;
            hyi += hjr[a] * yi - hji[a] * yr;
            hz += hjr[a] * zr + hji[a] * zi;
        }
        const double s = qb[j] - hz;
        if (s <= 0.0) {
            *block = (int)j;
            return 0;
        }
        const double cr = hyr / s, ci = hyi / s;
        /* ivdep: the outputs never alias the inputs, so gcc vectorizes the
         * loop without a run-time overlap check (no reassociation) */
        #pragma GCC ivdep
        for (size_t a = 0; a < nn; ++a) {
            const double zr = vr[a * rs + k + j], zi = vi[a * rs + k + j];
            im->outr[j * nn + a] = vr[a * rs + j] + (zr * cr - zi * ci);
            im->outi[j * nn + a] = vi[a * rs + j] + (zr * ci + zi * cr);
        }
    }
    return 1;
}

/* Runs the lane; returns its iteration count, or minus it on failure (f is
 * then left at the previous iterate). */
int gpris_precoder_loop(int k_users, int n, const double *restrict h,
                        const double *restrict xi, double noise_over_p,
                        double *restrict f, double tol, int max_iters,
                        int *restrict block, double *restrict step,
                        double *restrict work)
{
    const size_t k = (size_t)k_users, nn = (size_t)n, kn = k * nn;
    const size_t np = PAD(n);  /* the padded rows of the split h and f */
    struct lane ln;
    struct image im;
    carve(k_users, n, work, &ln, &im);
    ln.xi = xi;
    double *restrict fr = ln.fr;
    double *restrict fi = ln.fi;
    const double *restrict xr = im.outr;
    const double *restrict xim = im.outi;
    for (size_t j = 0, i = 0; j < k; ++j)
        for (size_t a = j * np; a < j * np + nn; ++a, ++i) {
            ln.hr[a] = h[2 * i];
            ln.hi[a] = h[2 * i + 1];
            fr[a] = f[2 * i];
            fi[a] = f[2 * i + 1];
        }
    *block = -1;
    int iters = 0;
    for (int it = 0; it < max_iters; ++it) {
        ++iters;
        if (!precoder_image(k_users, n, &ln, &im, noise_over_p, block)) {
            iters = -iters;
            break;
        }
        double nrm = 0.0;
        for (size_t i = 0; i < kn; ++i) {
            nrm += xr[i] * xr[i];
            nrm += xim[i] * xim[i];
        }
        const double inv_nrm = 1.0 / sqrt(nrm);
        /* the step, minimized over the +-f sign ambiguity */
        double minus = 0.0, plus = 0.0;
        for (size_t j = 0, i = 0; j < k; ++j)
            for (size_t a = j * np; a < j * np + nn; ++a, ++i) {
                const double v = xr[i] * inv_nrm, w = xim[i] * inv_nrm;
                minus += (v - fr[a]) * (v - fr[a]);
                plus += (v + fr[a]) * (v + fr[a]);
                minus += (w - fi[a]) * (w - fi[a]);
                plus += (w + fi[a]) * (w + fi[a]);
                fr[a] = v;
                fi[a] = w;
            }
        *step = sqrt(minus < plus ? minus : plus);
        if (*step <= tol)
            break;
    }
    for (size_t j = 0, i = 0; j < k; ++j)
        for (size_t a = j * np; a < j * np + nn; ++a, ++i) {
            f[2 * i] = fr[a];
            f[2 * i + 1] = fi[a];
        }
    return iters;
}
