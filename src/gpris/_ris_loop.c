/* Compiled inner loop for the RIS-stage fixed-point iteration.
 *
 * Iterates w <- normalize(Dbar^-1 Cbar w), the penalty weight mu normalized
 * by tau = 1/(LM).  gpris._kernel builds this file
 * into a shared library on first use and calls it through ctypes;
 * gpi_ris.ris_gpi_matrices is the numpy reference it mirrors.
 *
 * P independent lanes (one per penalty weight mu) run in a single call, each
 * on its own blocks, iterate and mu, and each with its own iteration count.
 * They advance G at a time (gpris._kernel picks G from P and L), one lane
 * per slot of a group whose blocks sit side by side in the scratch:
 *   - a lane exits in the pass whose step meets the tolerance or reaches
 *     the iteration cap, or whose denominator block is not positive
 *     definite; it writes back its iterate and count, and the next queued
 *     lane is loaded into its slot; the slots freed by one image are
 *     refilled in one pass over the scratch;
 *   - once the queue is empty, the last occupied slot moves into the freed
 *     one, so the occupied slots are always the first n and every loop runs
 *     over their n*L (slot, RIS) columns alone: an idle slot is never
 *     computed and never reports.
 * With G = 1 this is the loop of one lane at a time, with the same
 * arithmetic.
 *
 * Inputs are read as numpy holds them, complex128 as interleaved (re, im)
 * doubles in C order (int for iters):
 *   c              (P, K, L, M, M) per-user per-RIS C_k blocks
 *   u              (P, K, L, M) signal columns with C_k - D_k = u_k u_k^H,
 *                  so the D quadratic form is a rank-one correction of the
 *                  C one
 *   shared         nonzero when every lane has the same blocks: c and u
 *                  then hold one lane's, (K, L, M, M) and (K, L, M)
 *   fill, ctx      NULL, or the source of the blocks in place of c and u
 *                  (see _round.c): as lane p enters slot g,
 *                  fill(ctx, p, S, ctr, cti, dr, di, ur, ui) writes the
 *                  lane's C_k, packed D_k and u_k into the slot arrays
 *                  below, each pointer at the slot's first column g*L, so
 *                  that entry (row, l) of the lane is at [row * S + l]
 *   mu             (P,) penalty weight of each lane
 *   w              (P, L*M) unit-norm iterates, updated in place
 *   iters          (P,) iteration count of each lane, negative when a
 *                  denominator block of that lane is not positive definite
 *   step           (P,) the last step each lane took, ||w_t - w_{t-1}||;
 *                  a lane that took none leaves its entry as it was
 *   seconds        wall time of the call (monotonic clock)
 *   work           gpris_ris_loop_work(G, K, M, L) doubles of scratch
 *
 * A lane is copied into its slot with real and imaginary parts split and
 * the (slot, RIS) column innermost: column x = g*L + l holds block l of
 * slot g, and each row has S columns, the G*L rounded up to a multiple of
 * W = 8 (S = 8 for one slot of L = 2, say).  Shared blocks, from either
 * source, are filled or loaded only as a slot is first occupied, and stay
 * there across refills and compaction.
 * Every inner loop runs over independent outputs, the (row, column) entries
 * of the matvecs, of the Cbar image and of the Dbar blocks, and the
 * right-looking Cholesky updates each trailing row over its columns; each
 * output keeps its accumulation order.  The matvecs, the quadratic forms,
 * Cbar w and Dbar run over strips of 8 columns whose sums (over b, over a,
 * over the users) stay in registers and are stored once.  A strip runs
 * over padding columns as well, which nothing else touches (the caller
 * zeroes the scratch, so they hold no stray bits) and nothing reads.  So
 * does the penalty (see penalty below), whose max, min and exp sums are
 * each column's over the rows, then a lane's over its columns in order.
 * The Cholesky, the solves and every other per-lane reduction (the
 * quadratic forms over a lane's blocks, the norm and the step) run over the
 * occupied columns alone, a lane's reductions over its own columns in the
 * order of a lone lane.  So a lane's reductions run in an order set by L
 * and M alone, and each lane's w, count and step are bit for bit those of
 * a one-lane call, whatever G and its neighbours.  The slot arrays:
 *   ct             (K, M, M, S) C_k by columns, ct[k][b][a][x] = C_kl[a, b]
 *   d              (K, T, S) lower triangles of D_k = C_k - u_k u_k^H, rows
 *                  packed (T = M(M+1)/2 entries per block)
 *   us, ws         (K, M, S) and (M, S)
 * and the image's, (K, M, S) for the matvecs, (T, S) for Dbar and (M, S),
 * (K, S) or (S) for the rest: S((3K + 1)M^2 + (5K + 7)M + 2K + 8) doubles
 * in all (each array rounded up to 8).  That is 7.0 MB at K=4, L=2, M=64
 * (G=8, S=16), 3.5 MB for one lane there (S=8) and 0.27 MB at K=4, L=8,
 * M=8 (G=4), and all a call needs: a fill writes its lane into the slot,
 * with no staging copy.
 */
#include <math.h>
#include <time.h>

#include "_loops.h"

/* Split re/im arrays of the group's inputs and of one image computation. */
struct group {
    double *ctr, *cti, *dr, *di, *ur, *ui, *wr, *wi;
};

struct image {
    double *qc, *qd, *ycr, *yci, *cwr, *cwi, *exc, *exd, *dbr, *dbi, *sr, *tr,
        *ti, *mu, *xmax, *xmin, *zc, *zd;
};

/* The row stride S of the slot arrays: the group's G*L columns, rounded up
 * to whole strips. */
static size_t stride(int g_slots, int l_ris)
{
    return PAD((size_t)g_slots * (size_t)l_ris);
}

/* Lay out both in the scratch (when given); returns the doubles it needs. */
static size_t carve(int g_slots, int k_users, int m, int l_ris, double *work,
                    struct group *gr, struct image *im)
{
    const size_t k = (size_t)k_users, s = stride(g_slots, l_ris);
    const size_t ms = (size_t)m * s, mms = (size_t)m * ms;
    const size_t ts = TRI(m) * s;
    struct carver c = carver(work);
    gr->ctr = take(&c, k * mms);
    gr->cti = take(&c, k * mms);
    gr->dr = take(&c, k * ts);
    gr->di = take(&c, k * ts);
    gr->ur = take(&c, k * ms);
    gr->ui = take(&c, k * ms);
    gr->wr = take(&c, ms);
    gr->wi = take(&c, ms);
    im->qc = take(&c, k * s);
    im->qd = take(&c, k * s);
    im->ycr = take(&c, k * ms);
    im->yci = take(&c, k * ms);
    im->cwr = take(&c, ms);
    im->cwi = take(&c, ms);
    im->exc = take(&c, ms);
    im->exd = take(&c, ms);
    im->dbr = take(&c, ts);
    im->dbi = take(&c, ts);
    im->sr = take(&c, s);
    im->tr = take(&c, s);
    im->ti = take(&c, s);
    im->mu = take(&c, s);  /* the penalty's, each column its slot's */
    im->xmax = take(&c, s);
    im->xmin = take(&c, s);
    im->zc = take(&c, s);
    im->zd = take(&c, s);
    return c.used + 7;
}

long gpris_ris_loop_work(int g_slots, int k_users, int m, int l_ris)
{
    struct group gr;
    struct image im;
    return (long)carve(g_slots, k_users, m, l_ris, NULL, &gr, &im);
}

/* Copy the C_k and u_k of nb lanes, lane i's into the columns from at[i] of
 * the split layout (row stride s), and form the lower triangles of
 * D_k = C_k - u_k u_k^H there, the u products as numpy's u * conj(u).  The
 * loops write the scratch in order, each row for all nb lanes at once, so
 * a batch of refills shares one pass over the slot arrays. */
static void load_blocks(int k_users, int m, int l_ris, size_t s, int nb,
                        const size_t *at, const double *const *c,
                        const double *const *u, const struct group *gr)
{
    const size_t l = (size_t)l_ris, mm = (size_t)m, mm2 = 2 * mm * mm;
    const size_t ts = TRI(m) * s;
    for (int kk = 0; kk < k_users; ++kk) {
        const size_t ck = (size_t)kk * l * mm2, uk = 2 * (size_t)kk * l * mm;
        for (size_t a = 0; a < mm; ++a)
            for (int i = 0; i < nb; ++i) {
                double *ura = gr->ur + ((size_t)kk * mm + a) * s + at[i];
                double *uia = gr->ui + ((size_t)kk * mm + a) * s + at[i];
                for (size_t ll = 0; ll < l; ++ll) {
                    ura[ll] = u[i][uk + 2 * (ll * mm + a)];
                    uia[ll] = u[i][uk + 2 * (ll * mm + a) + 1];
                }
            }
        for (size_t b = 0; b < mm; ++b)
            for (size_t a = 0; a < mm; ++a)
                for (int i = 0; i < nb; ++i) {
                    const size_t row = (((size_t)kk * mm + b) * mm + a) * s;
                    const double *src = c[i] + ck + 2 * (a * mm + b);
                    double *cr = gr->ctr + row + at[i];
                    double *ci = gr->cti + row + at[i];
                    for (size_t ll = 0; ll < l; ++ll) {
                        cr[ll] = src[ll * mm2];
                        ci[ll] = src[ll * mm2 + 1];
                    }
                }
        for (size_t a = 0; a < mm; ++a)
            for (size_t b = 0; b <= a; ++b)
                for (int i = 0; i < nb; ++i) {
                    const double *ura = gr->ur + ((size_t)kk * mm + a) * s + at[i];
                    const double *uia = gr->ui + ((size_t)kk * mm + a) * s + at[i];
                    const double *urb = gr->ur + ((size_t)kk * mm + b) * s + at[i];
                    const double *uib = gr->ui + ((size_t)kk * mm + b) * s + at[i];
                    const double *src = c[i] + ck + 2 * (a * mm + b);
                    double *dr = gr->dr + kk * ts + (TRI(a) + b) * s + at[i];
                    double *di = gr->di + kk * ts + (TRI(a) + b) * s + at[i];
                    for (size_t ll = 0; ll < l; ++ll) {
                        dr[ll] = src[ll * mm2]
                            - (ura[ll] * urb[ll] + uia[ll] * uib[ll]);
                        di[ll] = src[ll * mm2 + 1]
                            - (uia[ll] * urb[ll] - ura[ll] * uib[ll]);
                    }
                }
    }
}

/* Copy the l columns from `from` to `to` of each of `rows` rows. */
static void move_columns(double *x, size_t rows, size_t s, size_t from,
                         size_t to, size_t l)
{
    for (size_t r = 0; r < rows; ++r)
        memcpy(x + r * s + to, x + r * s + from, l * sizeof *x);
}

/* The products of block k over the columns x < nv: the matvec
 * y = C_k w, its b-walk in runs of BB rows (one run for M <= BB, whose sums
 * never leave the registers), then w^H y and u_k^H w into sr, tr and ti.
 * Each sum runs over b or a in the order of the loops below. */
#define BB 8
static void strip_products(size_t mm, size_t s, size_t nv, const double *ctr,
                           const double *cti, const double *ur,
                           const double *ui, const double *wr,
                           const double *wi, double *yr, double *yi,
                           double *sr, double *tr, double *ti)
{
    const size_t ms = mm * s;
    for (size_t b0 = 0; b0 < mm; b0 += BB) {
        const size_t b1 = b0 + BB < mm ? b0 + BB : mm;
        for (size_t a = 0; a < mm; ++a)
            for (size_t x = 0; x < nv; x += W) {
                const size_t i = a * s + x;
                vd accr = {0}, acci = {0};
                if (b0) {
                    accr = ld(yr + i);
                    acci = ld(yi + i);
                }
                for (size_t b = b0; b < b1; ++b) {
                    const vd cr = ld(ctr + b * ms + i), ci = ld(cti + b * ms + i);
                    const vd wrb = ld(wr + b * s + x), wib = ld(wi + b * s + x);
                    accr += cr * wrb - ci * wib;
                    acci += cr * wib + ci * wrb;
                }
                st(yr + i, accr);
                st(yi + i, acci);
            }
    }
    for (size_t x = 0; x < nv; x += W) {
        vd q = {0}, pr = {0}, pi = {0};
        for (size_t a = 0; a < mm; ++a) {
            const size_t i = a * s + x;
            const vd wra = ld(wr + i), wia = ld(wi + i);
            const vd ura = ld(ur + i), uia = ld(ui + i);
            q += wra * ld(yr + i) + wia * ld(yi + i);
            pr += ura * wra + uia * wia;
            pi += ura * wia - uia * wra;
        }
        st(sr + x, q);
        st(tr + x, pr);
        st(ti + x, pi);
    }
}

/* Cbar w and Dbar over the columns x < nv, each entry's sum
 * over the users held in registers: Cbar w = f sum_k qc_k y_k + exc w and
 * Dbar = (sum_k qd_k D_k) f + diag(exd), with f = 1/(r_sigma ln 2). */
static void strip_cbar_dbar(int k_users, size_t mm, size_t s, size_t nv,
                            const struct group *gr, const struct image *im,
                            double f)
{
    const size_t ms = mm * s, ts = TRI(mm) * s;
    for (size_t a = 0; a < mm; ++a)
        for (size_t x = 0; x < nv; x += W) {
            const size_t i = a * s + x;
            vd accr = {0}, acci = {0};
            for (int kk = 0; kk < k_users; ++kk) {
                const vd q = ld(im->qc + (size_t)kk * s + x);
                accr += ld(im->ycr + (size_t)kk * ms + i) * q;
                acci += ld(im->yci + (size_t)kk * ms + i) * q;
            }
            const vd ex = ld(im->exc + i);
            st(im->cwr + i, f * accr + ex * ld(gr->wr + i));
            st(im->cwi + i, f * acci + ex * ld(gr->wi + i));
        }
    for (size_t a = 0; a < mm; ++a)
        for (size_t b = 0; b <= a; ++b)
            for (size_t x = 0; x < nv; x += W) {
                const size_t i = (TRI(a) + b) * s + x;
                vd accr = {0}, acci = {0};
                for (int kk = 0; kk < k_users; ++kk) {
                    const vd q = ld(im->qd + (size_t)kk * s + x);
                    accr += ld(gr->dr + (size_t)kk * ts + i) * q;
                    acci += ld(gr->di + (size_t)kk * ts + i) * q;
                }
                accr = accr * f;
                if (a == b)
                    accr += ld(im->exd + a * s + x);
                st(im->dbr + i, accr);
                st(im->dbi + i, acci * f);
            }
}

/* whether a strip of columns holds a slot with mu > 0 */
static int penalized(const double *mu)
{
    int any = 0;
    for (size_t t = 0; t < W; ++t)
        any |= mu[t] > 0.0;
    return any;
}

/* The diagonal shifts of the first n slots in exc and exd: each column's
 * noise terms, `noise` = noise_over_p / (r_sigma ln 2) times its slot's
 * sums over the users of 1/(w^H C_k w) and 1/(w^H D_k w), and the penalty,
 * mu / tau times softmax(-|w_i|^2 / alpha2) and softmax(alpha1 |w_i|^2)
 * over the slot's entries.  The penalty runs over strips of W columns, each
 * column with its own slot's mu, xmin and xmax, and only in the strips that
 * hold a slot with mu > 0: a slot with mu = 0 computes no exp.  Each
 * column's max, min and sums run over the rows in order, and a slot's over
 * its columns in order, so they depend on L and M alone; the max and min
 * are exact in any order.  Kept out of line: inlined into ris_image, it
 * slowed the mu = 0 image by about 1 % at G = 1, L = 8 and 16. */
static __attribute__((noinline)) void
penalty(int k_users, size_t mm, size_t s, int n_slots, size_t l,
        const struct group *gr, const struct image *im, double noise,
        double tau, const double *mu, double alpha1, double alpha2)
{
    const size_t nw = (size_t)n_slots * l, nv = PAD(nw);
    int any = 0;
    for (int g = 0; g < n_slots; ++g)
        any |= mu[g] > 0.0;
    if (any) {
        for (int g = 0; g < n_slots; ++g)
            for (size_t x = (size_t)g * l; x < (size_t)(g + 1) * l; ++x)
                im->mu[x] = mu[g];
        for (size_t x = nw; x < nv; ++x)
            im->mu[x] = 0.0;
        /* each column's max and min, then its slot's in their place */
        for (size_t x = 0; x < nv; x += W) {
            if (!penalized(im->mu + x))
                continue;
            vd hi = (vd){0} - 1.0e300, lo = (vd){0} + 1.0e300;
            for (size_t i = x; i < mm * s; i += s) {
                const vd wr = ld(gr->wr + i), wi = ld(gr->wi + i);
                const vd xi = wr * wr + wi * wi;
                hi = pick(xi > hi, xi, hi);
                lo = pick(xi < lo, xi, lo);
            }
            st(im->xmax + x, hi);
            st(im->xmin + x, lo);
        }
        for (size_t o = 0; o < nw; o += l) {
            if (!(im->mu[o] > 0.0))
                continue;
            double xmax = -1.0e300, xmin = 1.0e300;
            for (size_t x = o; x < o + l; ++x) {
                if (im->xmax[x] > xmax)
                    xmax = im->xmax[x];
                if (im->xmin[x] < xmin)
                    xmin = im->xmin[x];
            }
            for (size_t x = o; x < o + l; ++x) {
                im->xmax[x] = xmax;
                im->xmin[x] = xmin;
            }
        }
        /* the exps and each column's sums of them, then its slot's
         * mu / (tau z) in their place */
        for (size_t x = 0; x < nv; x += W) {
            if (!penalized(im->mu + x))
                continue;
            const vd xmax = ld(im->xmax + x), xmin = ld(im->xmin + x);
            vd zc = {0}, zd = {0};
            for (size_t a = 0; a < mm; ++a) {
                const size_t i = a * s + x;
                const vd wr = ld(gr->wr + i), wi = ld(gr->wi + i);
                const vd xi = wr * wr + wi * wi;
                const vd ec = vexp(-(xi - xmin) / alpha2);
                const vd ed = vexp(alpha1 * (xi - xmax));
                st(im->exc + i, ec);
                st(im->exd + i, ed);
                zc += ec;
                zd += ed;
            }
            st(im->zc + x, zc);
            st(im->zd + x, zd);
        }
        for (size_t o = 0; o < nw; o += l) {
            const double m = im->mu[o];
            if (!(m > 0.0))
                continue;
            double zc = 0.0, zd = 0.0;
            for (size_t x = o; x < o + l; ++x) {
                zc += im->zc[x];
                zd += im->zd[x];
            }
            const double pen_c = m / (tau * zc), pen_d = m / (tau * zd);
            for (size_t x = o; x < o + l; ++x) {
                im->zc[x] = pen_c;
                im->zd[x] = pen_d;
            }
        }
    }
    for (size_t x = 0; x < nv; x += W) {
        vd dc = {0}, dd = {0};
        for (int kk = 0; kk < k_users; ++kk) {
            dc += ld(im->qc + (size_t)kk * s + x);
            dd += ld(im->qd + (size_t)kk * s + x);
        }
        dc = noise * dc;
        dd = noise * dd;
        if (!any || !penalized(im->mu + x)) {
            for (size_t a = 0; a < mm; ++a) {
                st(im->exc + a * s + x, dc);
                st(im->exd + a * s + x, dd);
            }
            continue;
        }
        const vi on = ld(im->mu + x) > 0.0;
        const vd pc = ld(im->zc + x), pd = ld(im->zd + x);
        for (size_t a = 0; a < mm; ++a) {
            const size_t i = a * s + x;
            st(im->exc + i, pick(on, dc + pc * ld(im->exc + i), dc));
            st(im->exd + i, pick(on, dd + pd * ld(im->exd + i), dd));
        }
    }
}

/* Image Dbar(w)^-1 Cbar(w) w of the iterates of the first n slots,
 * unnormalized, left in im->cwr / im->cwi; ok[g] is cleared when a
 * denominator block of slot g is not positive definite (that slot's
 * columns are then meaningless, and no other slot's are touched). */
static void ris_image(int k_users, int m, int l_ris, int n_slots, size_t s,
                      const struct group *gr, const struct image *im,
                      double noise_over_p, double inv_rs_ln2,
                      const double *mu, double alpha1, double alpha2,
                      int *ok)
{
    const size_t l = (size_t)l_ris, mm = (size_t)m, nw = (size_t)n_slots * l;
    const size_t ms = mm * s;
    const double tau = 1.0 / (double)(l_ris * m);
    /* the products run over whole strips: the idle and padding columns up
     * to the last strip's end are computed as well, and nothing reads them */
    const size_t nv = PAD(nw);
    const double *restrict wr = gr->wr;
    const double *restrict wi = gr->wi;
    double *restrict qc = im->qc;
    double *restrict qd = im->qd;
    double *restrict cwr = im->cwr;
    double *restrict cwi = im->cwi;
    double *restrict dbr = im->dbr;
    double *restrict dbi = im->dbi;
    double *restrict sr = im->sr;
    double *restrict tr = im->tr;
    double *restrict ti = im->ti;
    /* block matvecs y = C_k w reused for both the quadratic forms and
     * the Cbar image (Cbar itself is never assembled); w^H D_k w is the
     * rank-one correction w^H C_k w - |u_k^H w|^2 */
    for (int kk = 0; kk < k_users; ++kk) {
        const double *ctr = gr->ctr + (size_t)kk * mm * ms;
        const double *cti = gr->cti + (size_t)kk * mm * ms;
        const double *ur = gr->ur + (size_t)kk * ms;
        const double *ui = gr->ui + (size_t)kk * ms;
        double *yr = im->ycr + (size_t)kk * ms, *yi = im->yci + (size_t)kk * ms;
        strip_products(mm, s, nv, ctr, cti, ur, ui, wr, wi, yr, yi, sr, tr,
                       ti);
        /* each slot's 1/(w^H C_k w), 1/(w^H D_k w), spread over its columns */
        for (size_t g = 0; g < (size_t)n_slots; ++g) {
            const size_t o = g * l;
            double acc_c = 0.0;
            double acc_u = 0.0;
            for (size_t ll = 0; ll < l; ++ll) {
                acc_c += sr[o + ll];
                acc_u += tr[o + ll] * tr[o + ll] + ti[o + ll] * ti[o + ll];
            }
            const double iqc = 1.0 / (acc_c + noise_over_p);
            const double iqd = 1.0 / (acc_c - acc_u + noise_over_p);
            for (size_t ll = 0; ll < l; ++ll) {
                qc[(size_t)kk * s + o + ll] = iqc;
                qd[(size_t)kk * s + o + ll] = iqd;
            }
        }
    }
    penalty(k_users, mm, s, n_slots, l, gr, im, inv_rs_ln2 * noise_over_p,
            tau, mu, alpha1, alpha2);
    /* the image Cbar w from the cached matvecs, and the lower triangles of
     * the Dbar blocks for the solve, the diagonal shifts folded into both */
    strip_cbar_dbar(k_users, mm, s, nv, gr, im, inv_rs_ln2);
    /* batched in-place lower Cholesky of all the blocks at once,
     * right-looking: each entry takes its updates in the same order as the
     * left-looking dot products would; the factor's diagonal holds the
     * reciprocals of its entries, which the solves multiply by */
    for (size_t j = 0; j < mm; ++j) {
        double *restrict djj = dbr + (TRI(j) + j) * s;
        for (size_t g = 0; g < (size_t)n_slots; ++g) {
            int bad = 0;
            for (size_t ll = 0; ll < l; ++ll)
                bad |= djj[g * l + ll] <= 0.0;
            ok[g] &= !bad;
        }
        for (size_t x = 0; x < nw; ++x)
            djj[x] = 1.0 / sqrt(djj[x]);
        /* scale column j */
        for (size_t i = j + 1; i < mm; ++i) {
            double *restrict av = dbr + (TRI(i) + j) * s;
            double *restrict bv = dbi + (TRI(i) + j) * s;
            for (size_t x = 0; x < nw; ++x) {
                av[x] = av[x] * djj[x];
                bv[x] = bv[x] * djj[x];
            }
        }
        /* a[i, k] -= a[i, j] * conj(a[k, j]) for j < k <= i */
        for (size_t i = j + 1; i < mm; ++i) {
            const double *ir = dbr + (TRI(i) + j) * s;
            const double *ii = dbi + (TRI(i) + j) * s;
            for (size_t k = j + 1; k <= i; ++k) {
                const double *jr = dbr + (TRI(k) + j) * s;
                const double *ji = dbi + (TRI(k) + j) * s;
                double *restrict ar = dbr + (TRI(i) + k) * s;
                double *restrict ai = dbi + (TRI(i) + k) * s;
                for (size_t x = 0; x < nw; ++x) {
                    ar[x] -= ir[x] * jr[x] + ii[x] * ji[x];
                    ai[x] -= ii[x] * jr[x] - ir[x] * ji[x];
                }
            }
        }
    }
    /* forward substitution L y = Cbar w, row i of y in place */
    for (size_t i = 0; i < mm; ++i) {
        double *restrict yr = cwr + i * s;
        double *restrict yi = cwi + i * s;
        for (size_t p = 0; p < i; ++p) {
            const double *ir = dbr + (TRI(i) + p) * s;
            const double *ii = dbi + (TRI(i) + p) * s;
            const double *zr = cwr + p * s, *zi = cwi + p * s;
            for (size_t x = 0; x < nw; ++x) {
                yr[x] -= ir[x] * zr[x] - ii[x] * zi[x];
                yi[x] -= ir[x] * zi[x] + ii[x] * zr[x];
            }
        }
        const double *inv = dbr + (TRI(i) + i) * s;
        for (size_t x = 0; x < nw; ++x) {
            yr[x] = yr[x] * inv[x];
            yi[x] = yi[x] * inv[x];
        }
    }
    /* backward substitution L^H z = y, row i of z in place */
    for (size_t i = mm; i-- > 0;) {
        double *restrict yr = cwr + i * s;
        double *restrict yi = cwi + i * s;
        for (size_t p = i + 1; p < mm; ++p) {
            const double *pr = dbr + (TRI(p) + i) * s;
            const double *pi = dbi + (TRI(p) + i) * s;
            const double *zr = cwr + p * s, *zi = cwi + p * s;
            /* z[i] -= conj(a[p,i]) * z[p] */
            for (size_t x = 0; x < nw; ++x) {
                yr[x] -= pr[x] * zr[x] + pi[x] * zi[x];
                yi[x] -= pr[x] * zi[x] - pi[x] * zr[x];
            }
        }
        const double *inv = dbr + (TRI(i) + i) * s;
        for (size_t x = 0; x < nw; ++x) {
            yr[x] = yr[x] * inv[x];
            yi[x] = yi[x] * inv[x];
        }
    }
}

/* Runs every lane; returns the number of lanes with a negative count.
 *
 * A lane's count is its number of fixed-point steps, or minus it when a
 * denominator block is not positive definite (w is then left at the
 * previous iterate).  With max_iters <= 0 every lane passes through its
 * slot untouched, with count 0. */
int gpris_ris_loop(int p_lanes, int g_slots, int k_users, int m, int l_ris,
                   const double *restrict c, const double *restrict u,
                   int shared, gpris_ris_fill *fill, void *ctx,
                   double noise_over_p, double inv_rs_ln2,
                   const double *restrict mu, double alpha1, double alpha2,
                   double *restrict w, double tol, int max_iters,
                   int *restrict iters, double *restrict step,
                   double *restrict seconds, double *restrict work)
{
    const size_t l = (size_t)l_ris, mm = (size_t)m, ml = mm * l;
    const size_t s = stride(g_slots, l_ris), k = (size_t)k_users;
    /* a slot's entries, row by row; one run when it fills the rows */
    const size_t lrows = s == l ? 1 : mm, lcols = s == l ? ml : l;
    /* each lane's blocks, in complex entries (the same ones when shared) */
    const size_t c_lane = shared ? 0 : k * ml * mm;
    const size_t u_lane = shared ? 0 : k * ml;
    struct timespec t0, t1;
    clock_gettime(CLOCK_MONOTONIC, &t0);
    struct group gr;
    struct image im;
    carve(g_slots, k_users, m, l_ris, work, &gr, &im);
    /* per slot: its lane (-1 when free), steps so far, its mu and the
     * image's positive-definite flag */
    int lane[g_slots], count[g_slots], ok[g_slots];
    double mus[g_slots];
    /* the refills of one pass: slot offsets and the lanes' blocks */
    size_t at[g_slots];
    const double *cs[g_slots], *us[g_slots];
    int n = 0, next = 0, failed = 0;
    for (;;) {
        /* refill the free slots from the queue, their blocks in one pass
         * (shared blocks only as a slot is first occupied) */
        int nb = 0;
        for (int g = 0; g < g_slots && next < p_lanes; ++g) {
            if (g < n && lane[g] >= 0)
                continue;
            const size_t o = (size_t)g * l;
            const int p = next++, load = !shared || g >= n;
            if (load && fill) {
                fill(ctx, p, s, gr.ctr + o, gr.cti + o, gr.dr + o, gr.di + o,
                     gr.ur + o, gr.ui + o);
            } else if (load) {
                at[nb] = o;
                cs[nb] = c + 2 * (size_t)p * c_lane;
                us[nb] = u + 2 * (size_t)p * u_lane;
                ++nb;
            }
            const double *wp = w + 2 * (size_t)p * ml;
            for (size_t ll = 0; ll < l; ++ll)
                for (size_t a = 0; a < mm; ++a) {
                    gr.wr[a * s + o + ll] = wp[2 * (ll * mm + a)];
                    gr.wi[a * s + o + ll] = wp[2 * (ll * mm + a) + 1];
                }
            lane[g] = p;
            count[g] = 0;
            mus[g] = mu[p];
            if (g >= n)
                n = g + 1;
        }
        if (nb > 0)
            load_blocks(k_users, m, l_ris, s, nb, at, cs, us, &gr);
        /* with the queue empty, the last occupied slot fills each gap */
        for (int g = 0; g < n;) {
            if (lane[g] >= 0) {
                ++g;
                continue;
            }
            if (lane[--n] < 0 || g == n)
                continue;
            const size_t from = (size_t)n * l, to = (size_t)g * l;
            if (!shared) {
                move_columns(gr.ctr, k * mm * mm, s, from, to, l);
                move_columns(gr.cti, k * mm * mm, s, from, to, l);
                move_columns(gr.dr, k * TRI(m), s, from, to, l);
                move_columns(gr.di, k * TRI(m), s, from, to, l);
                move_columns(gr.ur, k * mm, s, from, to, l);
                move_columns(gr.ui, k * mm, s, from, to, l);
            }
            move_columns(gr.wr, mm, s, from, to, l);
            move_columns(gr.wi, mm, s, from, to, l);
            lane[g] = lane[n];
            count[g] = count[n];
            mus[g] = mus[n];
        }
        if (n == 0)
            break;
        for (int g = 0; g < n; ++g)
            ok[g] = 1;
        if (max_iters > 0)
            ris_image(k_users, m, l_ris, n, s, &gr, &im, noise_over_p,
                      inv_rs_ln2, mus, alpha1, alpha2, ok);
        for (int g = 0; g < n; ++g) {
            const size_t o = (size_t)g * l;
            double *restrict wr = gr.wr;
            double *restrict wi = gr.wi;
            const double *cwr = im.cwr;
            const double *cwi = im.cwi;
            const int p = lane[g];
            if (max_iters > 0)
                ++count[g];
            if (max_iters > 0 && ok[g]) {
                double nrm = 0.0;
                for (size_t r = 0; r < lrows; ++r)
                    for (size_t i = r * s + o; i < r * s + o + lcols; ++i) {
                        nrm += cwr[i] * cwr[i] + cwi[i] * cwi[i];
                    }
                const double inv_nrm = 1.0 / sqrt(nrm);
                double sq = 0.0;
                for (size_t r = 0; r < lrows; ++r)
                    for (size_t i = r * s + o; i < r * s + o + lcols; ++i) {
                        double vr = cwr[i] * inv_nrm;
                        double vi = cwi[i] * inv_nrm;
                        sq += (vr - wr[i]) * (vr - wr[i])
                              + (vi - wi[i]) * (vi - wi[i]);
                        wr[i] = vr;
                        wi[i] = vi;
                    }
                step[p] = sqrt(sq);
                /* a NaN step runs on to the cap, as in fixed_point */
                if (!(step[p] <= tol) && count[g] < max_iters)
                    continue;
            }
            /* the lane exits: write back its iterate and count */
            iters[p] = ok[g] ? count[g] : -count[g];
            failed += !ok[g];
            double *wp = w + 2 * (size_t)p * ml;
            for (size_t ll = 0; ll < l; ++ll)
                for (size_t a = 0; a < mm; ++a) {
                    wp[2 * (ll * mm + a)] = wr[a * s + o + ll];
                    wp[2 * (ll * mm + a) + 1] = wi[a * s + o + ll];
                }
            lane[g] = -1;
        }
    }
    clock_gettime(CLOCK_MONOTONIC, &t1);
    *seconds = (double)(t1.tv_sec - t0.tv_sec) + 1e-9 * (t1.tv_nsec - t0.tv_nsec);
    return failed;
}
