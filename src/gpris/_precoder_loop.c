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
 *   work           gpris_precoder_loop_work(K, N) doubles of scratch
 * and the return value is the iteration count, negative on failure.
 *
 * The lane's h and f are first copied into scratch with real and imaginary
 * parts split, so every inner loop runs over independent outputs
 * (the rows of a matvec, of a Cholesky column, or of all 2K right-hand sides
 * of a triangular solve) and each output keeps its accumulation order.
 * "ivdep" tells gcc that such a loop's outputs never alias its inputs, so
 * it vectorizes the loop without a run-time overlap check; it licenses no
 * reassociation.
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
    const size_t k = (size_t)k_users, nn = (size_t)n;
    struct carver c = carver(work);
    ln->hr = take(&c, k * nn);  /* (K, N) */
    ln->hi = take(&c, k * nn);
    ln->fr = take(&c, k * nn);  /* (K, N) */
    ln->fi = take(&c, k * nn);
    im->tr = take(&c, k * k);  /* (K, K): t_kj = h_k^H f_j */
    im->ti = take(&c, k * k);
    im->br = take(&c, nn * nn);  /* B, then its factor, by columns */
    im->bi = take(&c, nn * nn);
    im->vr = take(&c, nn * 2 * k);  /* (N, 2K): the y_j, then the z_j */
    im->vi = take(&c, nn * 2 * k);
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
    const size_t k = (size_t)k_users, nn = (size_t)n, kn = k * nn;
    const size_t r2 = 2 * k;  /* right-hand sides per row of v */
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
    for (size_t i = 0; i < kn; ++i) {
        power += fr[i] * fr[i];
        power += fi[i] * fi[i];
    }
    /* the products t_kj = h_k^H f_j serve both the quadratic forms and A f */
    for (size_t kk = 0; kk < k; ++kk) {
        const double *hkr = hr + kk * nn, *hki = hi + kk * nn;
        double acc = 0.0;
        for (size_t j = 0; j < k; ++j) {
            const double *fjr = fr + j * nn, *fji = fi + j * nn;
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
    /* right-hand sides lambda A f_j (columns j of v), and h_j (K + j) */
    double *restrict sr = im->outr;  /* the image is not formed yet */
    double *restrict si = im->outi;
    for (size_t j = 0; j < k; ++j) {
        for (size_t a = 0; a < nn; ++a) {
            sr[a] = 0.0;
            si[a] = 0.0;
        }
        for (size_t kk = 0; kk < k; ++kk) {
            /* h_k t_kj / qa_k */
            const double *restrict hkr = hr + kk * nn;
            const double *restrict hki = hi + kk * nn;
            const double cr = tr[kk * k + j] * iqa[kk];
            const double ci = ti[kk * k + j] * iqa[kk];
            #pragma GCC ivdep
            for (size_t a = 0; a < nn; ++a) {
                sr[a] += hkr[a] * cr - hki[a] * ci;
                si[a] += hkr[a] * ci + hki[a] * cr;
            }
        }
        #pragma GCC ivdep
        for (size_t a = 0; a < nn; ++a) {
            vr[a * r2 + j] = prod * (sr[a] + diag_a * fr[j * nn + a]);
            vi[a * r2 + j] = prod * (si[a] + diag_a * fi[j * nn + a]);
            vr[a * r2 + k + j] = hr[j * nn + a];
            vi[a * r2 + k + j] = hi[j * nn + a];
        }
    }
    /* lower triangle of B by columns, then its Cholesky factor in place */
    for (size_t b = 0; b < nn; ++b) {
        double *restrict cr = br + b * nn;
        double *restrict ci = bi + b * nn;
        for (size_t a = b; a < nn; ++a) {
            cr[a] = 0.0;
            ci[a] = 0.0;
        }
        for (size_t kk = 0; kk < k; ++kk) {
            /* h_k conj(h_k[b]) / qb_k */
            const double *restrict hkr = hr + kk * nn;
            const double *restrict hki = hi + kk * nn;
            const double wr = hkr[b] * iqb[kk], wi = -(hki[b] * iqb[kk]);
            #pragma GCC ivdep
            for (size_t a = b; a < nn; ++a) {
                cr[a] += hkr[a] * wr - hki[a] * wi;
                ci[a] += hkr[a] * wi + hki[a] * wr;
            }
        }
        cr[b] += diag_b;
    }
    for (size_t j = 0; j < nn; ++j) {
        double *restrict cr = br + j * nn;
        double *restrict ci = bi + j * nn;
        double d = cr[j];
        for (size_t p = 0; p < j; ++p) {
            const double ljr = br[p * nn + j], lji = bi[p * nn + j];
            d -= ljr * ljr + lji * lji;
        }
        /* Bbar_k lies below B, so every block fails with it */
        if (!(d > 0.0)) {
            *block = 0;
            return 0;
        }
        d = sqrt(d);
        cr[j] = d;
        ci[j] = 0.0;
        for (size_t p = 0; p < j; ++p) {
            /* l[i,j] -= l[i,p] * conj(l[j,p]) for i > j */
            const double *restrict pr = br + p * nn;
            const double *restrict pi = bi + p * nn;
            const double ljr = pr[j], lji = pi[j];
            #pragma GCC ivdep
            for (size_t i = j + 1; i < nn; ++i) {
                cr[i] -= pr[i] * ljr + pi[i] * lji;
                ci[i] -= pi[i] * ljr - pr[i] * lji;
            }
        }
        #pragma GCC ivdep
        for (size_t i = j + 1; i < nn; ++i) {
            cr[i] = cr[i] / d;
            ci[i] = ci[i] / d;
        }
    }
    /* all 2K right-hand sides through B^-1 = L^-H L^-1 in one pass */
    for (size_t i = 0; i < nn; ++i) {
        double *restrict ar = vr + i * r2;
        double *restrict ai = vi + i * r2;
        for (size_t p = 0; p < i; ++p) {
            const double lr = br[p * nn + i], li = bi[p * nn + i];
            const double *restrict pr = vr + p * r2;
            const double *restrict pi = vi + p * r2;
            #pragma GCC ivdep
            for (size_t r = 0; r < r2; ++r) {
                ar[r] -= lr * pr[r] - li * pi[r];
                ai[r] -= lr * pi[r] + li * pr[r];
            }
        }
        const double d = br[i * nn + i];
        #pragma GCC ivdep
        for (size_t r = 0; r < r2; ++r) {
            ar[r] = ar[r] / d;
            ai[r] = ai[r] / d;
        }
    }
    for (size_t i = nn; i-- > 0;) {
        double *restrict ar = vr + i * r2;
        double *restrict ai = vi + i * r2;
        for (size_t p = i + 1; p < nn; ++p) {
            /* acc -= conj(l[p,i]) * v[p] */
            const double lr = br[i * nn + p], li = bi[i * nn + p];
            const double *restrict pr = vr + p * r2;
            const double *restrict pi = vi + p * r2;
            #pragma GCC ivdep
            for (size_t r = 0; r < r2; ++r) {
                ar[r] -= lr * pr[r] + li * pi[r];
                ai[r] -= lr * pi[r] - li * pr[r];
            }
        }
        const double d = br[i * nn + i];
        #pragma GCC ivdep
        for (size_t r = 0; r < r2; ++r) {
            ar[r] = ar[r] / d;
            ai[r] = ai[r] / d;
        }
    }
    /* Sherman-Morrison: x_j = y_j + z_j (h_j^H y_j) / s_j */
    for (size_t j = 0; j < k; ++j) {
        const double *hjr = hr + j * nn, *hji = hi + j * nn;
        double hyr = 0.0, hyi = 0.0, hz = 0.0;
        for (size_t a = 0; a < nn; ++a) {
            const double yr = vr[a * r2 + j], yi = vi[a * r2 + j];
            const double zr = vr[a * r2 + k + j], zi = vi[a * r2 + k + j];
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
        #pragma GCC ivdep
        for (size_t a = 0; a < nn; ++a) {
            const double zr = vr[a * r2 + k + j], zi = vi[a * r2 + k + j];
            im->outr[j * nn + a] = vr[a * r2 + j] + (zr * cr - zi * ci);
            im->outi[j * nn + a] = vi[a * r2 + j] + (zr * ci + zi * cr);
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
    const size_t kn = (size_t)k_users * (size_t)n;
    struct lane ln;
    struct image im;
    carve(k_users, n, work, &ln, &im);
    ln.xi = xi;
    double *restrict fr = ln.fr;
    double *restrict fi = ln.fi;
    const double *restrict xr = im.outr;
    const double *restrict xim = im.outi;
    for (size_t i = 0; i < kn; ++i) {
        ln.hr[i] = h[2 * i];
        ln.hi[i] = h[2 * i + 1];
        fr[i] = f[2 * i];
        fi[i] = f[2 * i + 1];
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
        for (size_t i = 0; i < kn; ++i) {
            const double v = xr[i] * inv_nrm, w = xim[i] * inv_nrm;
            minus += (v - fr[i]) * (v - fr[i]);
            plus += (v + fr[i]) * (v + fr[i]);
            minus += (w - fi[i]) * (w - fi[i]);
            plus += (w + fi[i]) * (w + fi[i]);
            fr[i] = v;
            fi[i] = w;
        }
        *step = sqrt(minus < plus ? minus : plus);
        if (*step <= tol)
            break;
    }
    for (size_t i = 0; i < kn; ++i) {
        f[2 * i] = fr[i];
        f[2 * i + 1] = fi[i];
    }
    return iters;
}
