/* Compiled inner loop for the RIS-stage fixed-point iteration.
 *
 * Iterates w <- normalize(Dbar^-1 Cbar w).  gpris._kernel builds this file
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
 *   c              (P, K, L, M, M) per-user per-RIS C_k blocks, lane stride
 *                  c_stride complex entries (0 when every lane shares them)
 *   u              (P, K, L, M) signal columns with C_k - D_k = u_k u_k^H,
 *                  lane stride u_stride, so the D quadratic form is a
 *                  rank-one correction of the C one
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
 * the (slot, RIS) column innermost: with S = G*L, column x = g*L + l holds
 * block l of slot g.  Lanes that share their blocks (lane stride 0) load
 * them once per slot and keep them across refills.  Every inner loop runs
 * over independent outputs, the (row, column) entries of the matvecs, of
 * the Cbar image and of the Dbar blocks, and the right-looking Cholesky
 * updates each trailing row over its columns; each output keeps its
 * accumulation order.  When S is a multiple of W = 8, the matvecs, the
 * quadratic forms, Cbar w and Dbar run over strips of 8 columns whose sums
 * (over b, over a, over the users) stay in registers and are stored once;
 * otherwise (one slot of L = 2 or 4, say) they keep their sums in the
 * arrays and run flat over whole rows.  Every per-lane reduction (the
 * quadratic forms over a lane's blocks, the penalty max/min and exp sums,
 * the norm and the step) runs over that lane's own columns in the order of
 * a lone lane.  So no reduction is reassociated, and each lane's w, count
 * and step are bit for bit those of a one-lane call, whatever G, the path
 * and its neighbours.  The slot arrays:
 *   ct             (K, M, M, S) C_k by columns, ct[k][b][a][x] = C_kl[a, b]
 *   d              (K, T, S) lower triangles of D_k = C_k - u_k u_k^H, rows
 *                  packed (T = M(M+1)/2 entries per block)
 *   us, ws         (K, M, S) and (M, S)
 * and the image's, (K, M, S) for the matvecs, (T, S) for Dbar and (M, S),
 * (K, S) or (S) for the rest: S((3K + 1)M^2 + (5K + 9)M + 2K + 4) doubles
 * in all (each array rounded up to 8), G times one lane's.  That is 7.1 MB
 * at K=4, L=2, M=64 (G=8) and 0.28 MB at K=4, L=8, M=8 (G=4), and all a
 * call needs: a fill writes its lane into the slot, with no staging copy.
 */
#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <string.h>
#include <time.h>

/* the source of a lane's blocks, in place of the c and u arrays: writes
 * them into the lane's slot columns (see the header) */
typedef void gpris_ris_fill(void *ctx, int lane, size_t s, double *ctr,
                            double *cti, double *dr, double *di, double *ur,
                            double *ui);

/* W-column strips, each sum held in registers and stored once: the image's
 * products take them when every row starts on a strip (s a multiple of W) */
#define W 8
typedef double vd __attribute__((vector_size(W * sizeof(double))));

static inline vd ld(const double *p)
{
    vd v;
    memcpy(&v, p, sizeof v);
    return v;
}

static inline void st(double *p, vd v)
{
    memcpy(p, &v, sizeof v);
}

/* offset of row a of a packed lower triangle */
#define TRI(a) ((size_t)(a) * ((size_t)(a) + 1) / 2)

/* Split re/im arrays of the group's inputs and of one image computation. */
struct group {
    double *ctr, *cti, *dr, *di, *ur, *ui, *wr, *wi;
};

struct image {
    double *qc, *qd, *ycr, *yci, *cwr, *cwi, *exc, *exd, *dbr, *dbi, *colr,
        *coli, *sr, *si, *tr, *ti;
};

/* Lay out both in the scratch (when given); returns the doubles it needs. */
static size_t carve(int g_slots, int k_users, int m, int l_ris, double *work,
                    struct group *gr, struct image *im)
{
    const size_t k = (size_t)k_users, s = (size_t)g_slots * (size_t)l_ris;
    const size_t ms = (size_t)m * s, mms = (size_t)m * ms;
    const size_t ts = TRI(m) * s;
    /* each array starts on a 64-byte boundary: a vector that loads a
     * whole row of an aligned array then never straddles two cache lines */
    double *base = work ? (double *)(((uintptr_t)work + 63) & ~(uintptr_t)63)
                        : NULL;
    size_t used = 0;
#define TAKE(field, n) \
    (field = base ? base + used : NULL, used += ((n) + 7) / 8 * 8)
    TAKE(gr->ctr, k * mms);
    TAKE(gr->cti, k * mms);
    TAKE(gr->dr, k * ts);
    TAKE(gr->di, k * ts);
    TAKE(gr->ur, k * ms);
    TAKE(gr->ui, k * ms);
    TAKE(gr->wr, ms);
    TAKE(gr->wi, ms);
    TAKE(im->qc, k * s);
    TAKE(im->qd, k * s);
    TAKE(im->ycr, k * ms);
    TAKE(im->yci, k * ms);
    TAKE(im->cwr, ms);
    TAKE(im->cwi, ms);
    TAKE(im->exc, ms);
    TAKE(im->exd, ms);
    TAKE(im->dbr, ts);
    TAKE(im->dbi, ts);
    TAKE(im->colr, ms);
    TAKE(im->coli, ms);
    TAKE(im->sr, s);
    TAKE(im->si, s);
    TAKE(im->tr, s);
    TAKE(im->ti, s);
#undef TAKE
    return used + 7;  /* the slack for the alignment */
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

/* The loops over the occupied columns x < nw of `rows` rows of stride s,
 * on the real and imaginary parts together, run as one flat loop when no
 * column is idle (nw == s). */

/* y = 0 */
static void zero_cols(double *restrict yr, double *restrict yi, size_t rows,
                      size_t s, size_t nw)
{
    if (nw == s) {
        nw *= rows;
        rows = 1;
    }
    for (size_t r = 0; r < rows; ++r)
        for (size_t x = r * s; x < r * s + nw; ++x) {
            yr[x] = 0.0;
            yi[x] = 0.0;
        }
}

/* y *= f */
static void scale_cols(double *restrict yr, double *restrict yi, double f,
                       size_t rows, size_t s, size_t nw)
{
    if (nw == s) {
        nw *= rows;
        rows = 1;
    }
    for (size_t r = 0; r < rows; ++r)
        for (size_t x = r * s; x < r * s + nw; ++x) {
            yr[x] *= f;
            yi[x] *= f;
        }
}

/* y += v * q with one weight q[x] per column; a group of one slot (s == l)
 * has one weight throughout and runs flat as well */
static void add_weighted(double *restrict yr, double *restrict yi,
                         const double *restrict vr, const double *restrict vi,
                         const double *restrict q, size_t rows, size_t s,
                         size_t nw, size_t l)
{
    if (s == l) {
        const double q0 = q[0];
        for (size_t i = 0; i < rows * s; ++i) {
            yr[i] += vr[i] * q0;
            yi[i] += vi[i] * q0;
        }
        return;
    }
    for (size_t r = 0; r < rows * s; r += s)
        for (size_t x = r; x < r + nw; ++x) {
            yr[x] += vr[x] * q[x - r];
            yi[x] += vi[x] * q[x - r];
        }
}

/* The strip path's products of block k over the columns x < nv: the matvec
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

/* The strip path's Cbar w and Dbar over the columns x < nv, each entry's sum
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

/* The products of strip_products over the columns x < nw, with the sums
 * kept in the arrays: the path of rows that do not start on a strip. */
static void flat_products(size_t mm, size_t s, size_t nw, const double *ctr,
                          const double *cti, const double *ur,
                          const double *ui, const double *restrict wr,
                          const double *restrict wi, double *restrict yr,
                          double *restrict yi, double *restrict sr,
                          double *restrict tr, double *restrict ti)
{
    const size_t ms = mm * s;
    zero_cols(yr, yi, mm, s, nw);
    for (size_t b = 0; b < mm; ++b) {
        const double *restrict crv = ctr + b * ms;
        const double *restrict civ = cti + b * ms;
        const double *restrict wrb = wr + b * s;
        const double *restrict wib = wi + b * s;
        for (size_t a = 0; a < mm; ++a) {
            const size_t row = a * s;
            for (size_t x = 0; x < nw; ++x) {
                yr[row + x] += crv[row + x] * wrb[x]
                               - civ[row + x] * wib[x];
                yi[row + x] += crv[row + x] * wib[x]
                               + civ[row + x] * wrb[x];
            }
        }
    }
    for (size_t x = 0; x < nw; ++x) {
        sr[x] = 0.0;
        tr[x] = 0.0;
        ti[x] = 0.0;
    }
    for (size_t a = 0; a < mm; ++a) {
        const double *wra = wr + a * s;
        const double *wia = wi + a * s;
        const double *yra = yr + a * s;
        const double *yia = yi + a * s;
        const double *urv = ur + a * s;
        const double *uiv = ui + a * s;
        for (size_t x = 0; x < nw; ++x) {
            sr[x] += wra[x] * yra[x] + wia[x] * yia[x];
            tr[x] += urv[x] * wra[x] + uiv[x] * wia[x];
            ti[x] += urv[x] * wia[x] - uiv[x] * wra[x];
        }
    }
}

/* Cbar w and Dbar as strip_cbar_dbar forms them, over the columns x < nw. */
static void flat_cbar_dbar(int k_users, size_t mm, size_t s, size_t nw,
                           size_t l, const struct group *gr,
                           const struct image *im, double f)
{
    const size_t ms = mm * s, ts = TRI(mm) * s;
    double *restrict cwr = im->cwr;
    double *restrict cwi = im->cwi;
    double *restrict dbr = im->dbr;
    double *restrict dbi = im->dbi;
    zero_cols(cwr, cwi, mm, s, nw);
    for (int kk = 0; kk < k_users; ++kk)
        add_weighted(cwr, cwi, im->ycr + (size_t)kk * ms,
                     im->yci + (size_t)kk * ms, im->qc + (size_t)kk * s, mm, s,
                     nw, l);
    const size_t rows = nw == s ? 1 : mm, cols = nw == s ? ms : nw;
    for (size_t r = 0; r < rows; ++r)
        for (size_t x = r * s; x < r * s + cols; ++x) {
            cwr[x] = f * cwr[x] + im->exc[x] * gr->wr[x];
            cwi[x] = f * cwi[x] + im->exc[x] * gr->wi[x];
        }
    zero_cols(dbr, dbi, TRI(mm), s, nw);
    for (int kk = 0; kk < k_users; ++kk)
        add_weighted(dbr, dbi, gr->dr + (size_t)kk * ts,
                     gr->di + (size_t)kk * ts, im->qd + (size_t)kk * s, TRI(mm),
                     s, nw, l);
    scale_cols(dbr, dbi, f, TRI(mm), s, nw);
    for (size_t a = 0; a < mm; ++a) {
        double *restrict diag = dbr + (TRI(a) + a) * s;
        const double *restrict ex = im->exd + a * s;
        for (size_t x = 0; x < nw; ++x)
            diag[x] += ex[x];
    }
}

/* Image Dbar(w)^-1 Cbar(w) w of the iterates of the first n slots,
 * unnormalized, left in im->cwr / im->cwi; ok[g] is cleared when a
 * denominator block of slot g is not positive definite (that slot's
 * columns are then meaningless, and no other slot's are touched). */
static void ris_image(int k_users, int m, int l_ris, int n_slots, size_t s,
                      const struct group *gr, const struct image *im,
                      double noise_over_p, double inv_rs_ln2,
                      const double *mu, double tau, double alpha1,
                      double alpha2, int *ok)
{
    const size_t l = (size_t)l_ris, mm = (size_t)m, nw = (size_t)n_slots * l;
    const size_t ms = mm * s;
    /* a slot's entries, row by row; one run when it fills the rows (G = 1) */
    const size_t lrows = s == l ? 1 : mm, lcols = s == l ? ms : l;
    /* rows that start on a strip take the strip path over whole strips:
     * the idle columns up to the last strip's end are computed as well,
     * and nothing reads them */
    const int strips = s % W == 0;
    const size_t nv = (nw + W - 1) / W * W;
    const double *restrict wr = gr->wr;
    const double *restrict wi = gr->wi;
    double *restrict qc = im->qc;
    double *restrict qd = im->qd;
    double *restrict cwr = im->cwr;
    double *restrict cwi = im->cwi;
    double *restrict exc = im->exc;
    double *restrict exd = im->exd;
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
        const double *ctr = gr->ctr + (size_t)kk * mm * ms;
        const double *cti = gr->cti + (size_t)kk * mm * ms;
        const double *ur = gr->ur + (size_t)kk * ms;
        const double *ui = gr->ui + (size_t)kk * ms;
        double *yr = im->ycr + (size_t)kk * ms, *yi = im->yci + (size_t)kk * ms;
        if (strips)
            strip_products(mm, s, nv, ctr, cti, ur, ui, wr, wi, yr, yi, sr,
                           tr, ti);
        else
            flat_products(mm, s, nw, ctr, cti, ur, ui, wr, wi, yr, yi, sr, tr,
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
    /* each slot's diagonal shifts: the noise terms and the penalty
     * softmax(-|w_i|^2 / alpha2) and softmax(alpha1 |w_i|^2) */
    for (size_t g = 0; g < (size_t)n_slots; ++g) {
        const size_t o = g * l;
        double sum_inv_c = 0.0;
        double sum_inv_d = 0.0;
        for (int kk = 0; kk < k_users; ++kk) {
            sum_inv_c += qc[(size_t)kk * s + o];
            sum_inv_d += qd[(size_t)kk * s + o];
        }
        const double diag_c = inv_rs_ln2 * noise_over_p * sum_inv_c;
        const double diag_d = inv_rs_ln2 * noise_over_p * sum_inv_d;
        if (mu[g] > 0.0) {
            double xmax = -1.0e300;
            double xmin = 1.0e300;
            for (size_t r = 0; r < lrows; ++r)
                for (size_t i = r * s + o; i < r * s + o + lcols; ++i) {
                    double xi = wr[i] * wr[i] + wi[i] * wi[i];
                    if (xi > xmax)
                        xmax = xi;
                    if (xi < xmin)
                        xmin = xi;
                }
            double zc = 0.0;
            double zd = 0.0;
            for (size_t r = 0; r < lrows; ++r)
                for (size_t i = r * s + o; i < r * s + o + lcols; ++i) {
                    double xi = wr[i] * wr[i] + wi[i] * wi[i];
                    double ec = exp(-(xi - xmin) / alpha2);
                    double ed = exp(alpha1 * (xi - xmax));
                    exc[i] = ec;
                    exd[i] = ed;
                    zc += ec;
                    zd += ed;
                }
            const double pen_c = mu[g] / (tau * zc);
            const double pen_d = mu[g] / (tau * zd);
            for (size_t r = 0; r < lrows; ++r)
                for (size_t i = r * s + o; i < r * s + o + lcols; ++i) {
                    exc[i] = diag_c + pen_c * exc[i];
                    exd[i] = diag_d + pen_d * exd[i];
                }
        } else {
            for (size_t r = 0; r < lrows; ++r)
                for (size_t i = r * s + o; i < r * s + o + lcols; ++i) {
                    exc[i] = diag_c;
                    exd[i] = diag_d;
                }
        }
    }
    /* the image Cbar w from the cached matvecs, and the lower triangles of
     * the Dbar blocks for the solve, the diagonal shifts folded into both */
    if (strips)
        strip_cbar_dbar(k_users, mm, s, nv, gr, im, inv_rs_ln2);
    else
        flat_cbar_dbar(k_users, mm, s, nw, l, gr, im, inv_rs_ln2);
    /* batched in-place lower Cholesky of all the blocks at once,
     * right-looking: each entry takes its updates in the same order as the
     * left-looking dot products would */
    double *restrict colr = im->colr;
    double *restrict coli = im->coli;
    for (size_t j = 0; j < mm; ++j) {
        double *restrict djj = dbr + (TRI(j) + j) * s;
        for (size_t g = 0; g < (size_t)n_slots; ++g) {
            int bad = 0;
            for (size_t ll = 0; ll < l; ++ll)
                bad |= djj[g * l + ll] <= 0.0;
            ok[g] &= !bad;
        }
        for (size_t x = 0; x < nw; ++x) {
            djj[x] = sqrt(djj[x]);
            si[x] = 1.0 / djj[x];
        }
        /* scale column j, and keep a contiguous copy of it */
        for (size_t i = j + 1; i < mm; ++i) {
            double *restrict av = dbr + (TRI(i) + j) * s;
            double *restrict bv = dbi + (TRI(i) + j) * s;
            for (size_t x = 0; x < nw; ++x) {
                av[x] = av[x] * si[x];
                bv[x] = bv[x] * si[x];
                colr[i * s + x] = av[x];
                coli[i * s + x] = bv[x];
            }
        }
        /* a[i, k] -= a[i, j] * conj(a[k, j]) for j < k <= i */
        for (size_t i = j + 1; i < mm; ++i) {
            const double *ir = colr + i * s;
            const double *ii = coli + i * s;
            double *restrict rowr = dbr + TRI(i) * s;
            double *restrict rowi = dbi + TRI(i) * s;
            for (size_t k = j + 1; k <= i; ++k) {
                const double *jr = colr + k * s;
                const double *ji = coli + k * s;
                double *restrict ar = rowr + k * s;
                double *restrict ai = rowi + k * s;
                for (size_t x = 0; x < nw; ++x) {
                    ar[x] -= ir[x] * jr[x] + ii[x] * ji[x];
                    ai[x] -= ii[x] * jr[x] - ir[x] * ji[x];
                }
            }
        }
    }
    /* forward substitution L y = Cbar w */
    for (size_t i = 0; i < mm; ++i) {
        const size_t row = i * s;
        for (size_t x = 0; x < nw; ++x) {
            tr[x] = cwr[row + x];
            ti[x] = cwi[row + x];
        }
        for (size_t p = 0; p < i; ++p) {
            const double *ir = dbr + (TRI(i) + p) * s;
            const double *ii = dbi + (TRI(i) + p) * s;
            const size_t col = p * s;
            for (size_t x = 0; x < nw; ++x) {
                tr[x] -= ir[x] * cwr[col + x] - ii[x] * cwi[col + x];
                ti[x] -= ir[x] * cwi[col + x] + ii[x] * cwr[col + x];
            }
        }
        const double *dii = dbr + (TRI(i) + i) * s;
        for (size_t x = 0; x < nw; ++x) {
            double inv = 1.0 / dii[x];
            cwr[row + x] = tr[x] * inv;
            cwi[row + x] = ti[x] * inv;
        }
    }
    /* backward substitution L^H z = y */
    for (size_t i = mm; i-- > 0;) {
        const size_t row = i * s;
        for (size_t x = 0; x < nw; ++x) {
            tr[x] = cwr[row + x];
            ti[x] = cwi[row + x];
        }
        for (size_t p = i + 1; p < mm; ++p) {
            const double *pr = dbr + (TRI(p) + i) * s;
            const double *pi = dbi + (TRI(p) + i) * s;
            const size_t col = p * s;
            /* acc -= conj(a[p,i]) * z[p] */
            for (size_t x = 0; x < nw; ++x) {
                tr[x] -= pr[x] * cwr[col + x] + pi[x] * cwi[col + x];
                ti[x] -= pr[x] * cwi[col + x] - pi[x] * cwr[col + x];
            }
        }
        const double *dii = dbr + (TRI(i) + i) * s;
        for (size_t x = 0; x < nw; ++x) {
            double inv = 1.0 / dii[x];
            cwr[row + x] = tr[x] * inv;
            cwi[row + x] = ti[x] * inv;
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
                   const double *restrict c, long c_stride,
                   const double *restrict u, long u_stride,
                   gpris_ris_fill *fill, void *ctx,
                   double noise_over_p, double inv_rs_ln2,
                   const double *restrict mu, double tau, double alpha1,
                   double alpha2, double *restrict w, double tol,
                   int max_iters, int *restrict iters,
                   double *restrict step, double *restrict seconds,
                   double *restrict work)
{
    const size_t l = (size_t)l_ris, mm = (size_t)m, ml = mm * l;
    const size_t s = (size_t)g_slots * l, k = (size_t)k_users;
    /* a slot's entries, row by row; one run when it fills the rows (G = 1) */
    const size_t lrows = s == l ? 1 : mm, lcols = s == l ? ml : l;
    const int shared = !fill && c_stride == 0 && u_stride == 0;
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
         * (lanes that share their blocks load them once per slot) */
        int nb = 0;
        for (int g = 0; g < g_slots && next < p_lanes; ++g) {
            if (g < n && lane[g] >= 0)
                continue;
            const size_t o = (size_t)g * l;
            const int p = next++;
            if (fill) {
                fill(ctx, p, s, gr.ctr + o, gr.cti + o, gr.dr + o, gr.di + o,
                     gr.ur + o, gr.ui + o);
            } else if (!shared || g >= n) {
                at[nb] = o;
                cs[nb] = c + 2 * (size_t)p * c_stride;
                us[nb] = u + 2 * (size_t)p * u_stride;
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
                      inv_rs_ln2, mus, tau, alpha1, alpha2, ok);
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
