/* One alternation round of run_joint for every active mu lane, compiled.
 *
 * On the isotropic path (Xi_k = xi_k I, Theta_{k,l} = theta_{k,l} I) a round
 * of lane p is, with the lane's precoder f, relaxed RIS vector w and the
 * h-hat and xi that the previous round's objective left:
 *   1. the precoder stage: the precoder loop (gpris_precoder_loop,
 *      _precoder_loop.c) on that h-hat and xi, from f;
 *   2. the RIS quadratics of the new F: G-hat = Hhat^H F as one (KLM x N) by
 *      (N x K) product, C_{k,l} = LM G-hat G-hat^H + LM theta_{k,l} I with
 *      theta_{k,l} = err_{k,l} ||F||^2, u_{k,l} = sqrt(LM) G-hat[:, k] and
 *      D_{k,l} = C_{k,l} - u u^H;
 *   3. the RIS loop (gpris_ris_loop, _ris_loop.c) from w, all lanes of the
 *      round in one call, so they advance in its lane groups; it asks for
 *      step 2 of each lane as the lane enters a group, and step 2 writes the
 *      blocks straight into the lane's slot of the group (no staging copy),
 *      so the scratch holds one group's quadratics, not every lane's;
 *   4. the projection phi = e^{j arg(sqrt(LM) w)}, as sqrt(LM) w / |.|;
 *   5. the Jensen lower bound of (F, phi) in its precoder-quadratic form,
 *      whose h-hat = Hhat phi and xi_k = sum_l err_{k,l} ||phi_l||^2 are
 *      kept for the next round's step 1.
 * In the first round (first != 0) step 1 does not depend on mu: it runs for
 * the first lane of sel alone, from the h-hat and xi of the initial phases
 * that the caller leaves in that lane's h and xi, and its f, status and
 * block are copied to every other lane of sel; the RIS loop then takes the
 * lanes' quadratics as shared, formed once per slot of its group.
 * gpris.joint's numpy round (build_precoder_quadratics, run_gpi_precoder,
 * build_ris_quadratics, run_gpi_ris, lower_bound_sum_se) is the reference
 * this mirrors; its sums run in other orders, so the results agree to
 * rounding, not bit for bit.  Each lane's results are bit for bit those of
 * a call with that lane alone.
 *
 * Layout, complex128 as interleaved (re, im) doubles in C order:
 *   sel            (S,) the lanes of this round
 *   stack          (KN, LM) Hhat, row (k, n), column (l, m), as float64
 *                  (2, LM, KN): by columns, real and imaginary parts split
 *   conj_rows      (KML, N) rows of the Hhat_{k,l}^H, row (k, m, l), as
 *                  float64 (2, N, KML) likewise
 *   err            (K, L) real error scales
 *   mu             (P,) penalty weight of each lane
 *   f              (P, K, N) unit-norm column-stacked precoders, in place
 *   w              (P, L*M) relaxed RIS vectors, in place
 *   h, xi          (P, K, N) and real (P, K): the objective's h-hat and xi
 *   obj            (P,) the objective of the round's pair
 *   status         (P,) ROUND_OK or the failure below; a failed lane's
 *                  f, w, h, xi and obj are left in any state
 *   block          (P,) on a precoder failure, its block (see
 *                  _precoder_loop.c)
 *   seconds        (3,) adds the wall time of steps 1, 2-4 and 5
 *   work           gpris_round_work(P, G, K, N, L, M) doubles of scratch
 *   first          nonzero in the first round (see above)
 * Entries of lanes outside sel are not touched.  gpris._kernel.Rounds
 * splits stack and conj_rows once per run_joint; a round only reads them.
 * Every product's sum (over the N or LM columns, over the users) is held in
 * registers for a strip of W = 8 rows and stored once, in the order of a
 * plain loop.
 */
#include <math.h>
#include <time.h>

#include "_loops.h"

/* status codes, named after the numpy round's exceptions */
enum {
    ROUND_OK = 0,
    PRECODER_VANISHING = 1,  /* FloatingPointError, a quadratic form */
    PRECODER_NOT_PD = 2,     /* LinAlgError, Bbar block `block` */
    RIS_NOT_PD = 3,          /* LinAlgError, a Dbar block */
    PHASE_NOT_FINITE = 4     /* FloatingPointError, the projection */
};

struct scratch {
    const double *str, *sti;  /* (LM, KN) stack by columns, from gpris_round */
    const double *cjr, *cji;  /* (N, KML) conj_rows by columns, likewise */
    double *fr, *fi;    /* (K, N) one lane's precoder */
    double *gr, *gi;    /* (K, KML) one lane's G-hat by columns */
    double *rep;        /* (2 + 2K, L + W) one row of u and of G-hat_j */
    double *pr, *pi;    /* (LM) one lane's projected phases */
    double *hr, *hi;    /* (KN) one lane's h-hat */
    double *w, *mu, *step;  /* (P, LM), (P), (P) the RIS lanes' */
    int *lane, *iters;  /* (P) lane and count of each RIS lane */
    double *pwork, *rwork;
};

/* Lay out the scratch (when given); returns the doubles it needs. */
static size_t carve(int p_lanes, int g_slots, int k_users, int n, int l_ris,
                    int m, double *work, struct scratch *sc)
{
    const size_t p = (size_t)p_lanes, k = (size_t)k_users, nn = (size_t)n;
    const size_t lm = (size_t)l_ris * (size_t)m, klm = k * lm;
    struct carver c = carver(work);
    sc->fr = take(&c, k * nn);
    sc->fi = take(&c, k * nn);
    sc->gr = take(&c, k * klm + W);  /* the slack of fill_quadratics' strips */
    sc->gi = take(&c, k * klm + W);
    sc->rep = take(&c, (2 + 2 * k) * ((size_t)l_ris + W));
    sc->pr = take(&c, lm);
    sc->pi = take(&c, lm);
    sc->hr = take(&c, k * nn);
    sc->hi = take(&c, k * nn);
    sc->w = take(&c, 2 * p * lm);
    sc->mu = take(&c, p);
    sc->step = take(&c, p);
    sc->lane = take(&c, p);  /* an int in each double */
    sc->iters = take(&c, p);
    sc->pwork = take(&c, (size_t)gpris_precoder_loop_work(k_users, n));
    sc->rwork = take(&c, (size_t)gpris_ris_loop_work(g_slots, k_users, m,
                                                      l_ris));
    return c.used + 7;
}

long gpris_round_work(int p_lanes, int g_slots, int k_users, int n, int l_ris,
                      int m)
{
    struct scratch sc;
    return (long)carve(p_lanes, g_slots, k_users, n, l_ris, m, NULL, &sc);
}

/* The n interleaved entries of x, real and imaginary parts split. */
static void split(size_t n, const double *x, double *restrict xr,
                  double *restrict xi)
{
    for (size_t i = 0; i < n; ++i) {
        xr[i] = x[2 * i];
        xi[i] = x[2 * i + 1];
    }
}

/* y = A x for A held by columns, each row's sum over the columns in order */
static void matvec(size_t rows, size_t cols, const double *restrict ar,
                   const double *restrict ai, const double *restrict xr,
                   const double *restrict xi, double *restrict yr,
                   double *restrict yi)
{
    size_t r = 0;
    for (; r + W <= rows; r += W) {
        vd accr = {0}, acci = {0};
        for (size_t c = 0; c < cols; ++c) {
            const vd cr = ld(ar + c * rows + r), ci = ld(ai + c * rows + r);
            accr += cr * xr[c] - ci * xi[c];
            acci += cr * xi[c] + ci * xr[c];
        }
        st(yr + r, accr);
        st(yi + r, acci);
    }
    for (; r < rows; ++r) {
        double accr = 0.0, acci = 0.0;
        for (size_t c = 0; c < cols; ++c) {
            const double cr = ar[c * rows + r], ci = ai[c * rows + r];
            accr += cr * xr[c] - ci * xi[c];
            acci += cr * xi[c] + ci * xr[c];
        }
        yr[r] = accr;
        yi[r] = acci;
    }
}

/* x *= 1/||x|| for n interleaved entries, as numpy's x / norm(x) */
static void normalize(double *x, size_t n)
{
    double nrm = 0.0;
    for (size_t i = 0; i < 2 * n; ++i)
        nrm += x[i] * x[i];
    const double inv = 1.0 / sqrt(nrm);
    for (size_t i = 0; i < 2 * n; ++i)
        x[i] *= inv;
}

static double elapsed(struct timespec *t)
{
    struct timespec now;
    clock_gettime(CLOCK_MONOTONIC, &now);
    const double s = (double)(now.tv_sec - t->tv_sec)
                     + 1e-9 * (double)(now.tv_nsec - t->tv_nsec);
    *t = now;
    return s;
}

/* Step 1 of lane p: returns ROUND_OK or its failure. */
static int precoder_stage(int k_users, int n, const struct scratch *sc,
                          const double *hp, const double *xip,
                          double noise_over_p, double *fp, double tol,
                          int max_iters, int *block)
{
    normalize(fp, (size_t)k_users * (size_t)n);
    double step;
    if (gpris_precoder_loop(k_users, n, hp, xip, noise_over_p, fp, tol,
                            max_iters, block, &step, sc->pwork) >= 0)
        return ROUND_OK;
    return *block < 0 ? PRECODER_VANISHING : PRECODER_NOT_PD;
}

/* What the RIS loop's refills need to form a lane's quadratics. */
struct source {
    int k_users, n, l_ris, m;
    const struct scratch *sc;
    const double *err, *f;
};

/* Store the first n entries of v as entries (a, q), (a, q + 1), ... of
 * rows of L columns at stride s, going on to the next row after column
 * L - 1. */
static inline void put(double *rows, size_t s, size_t l, size_t a, size_t q,
                       size_t n, vd v)
{
    if (n == W && q + W <= l) {  /* within one row: at L = 8, a whole row */
        st(rows + a * s + q, v);
        return;
    }
    double x[W];
    st(x, v);
    for (size_t t = 0; t < n; ++a, q = 0)
        for (; q < l && t < n; ++q, ++t)
            rows[a * s + q] = x[t];
}

/* gpris_ris_fill: step 2 of RIS lane p, written straight into its slot
 * columns: C_{k,l}[a, b] = LM conj(sum_j G-hat_j[b] conj(G-hat_j[a])) +
 * theta_{k,l} on the diagonal, u_{k,l} = sqrt(LM) G-hat_k and D_{k,l} =
 * C_{k,l} - u u^H.  G-hat's rows are (k, m, l), so column b of user k's
 * L blocks is formed over the (a, l) entries in strips of W, each sum over
 * the users j held in registers, and leaves in the slot's row order.  With
 * it goes row b of the D triangles: C is Hermitian, C[b, a] =
 * conj(C[a, b]) (the imaginary parts' sums are each other's negatives; a
 * zero can differ in sign, which the Dbar sums, each started from +0, do
 * not see).  A strip past the last entry reads on into the slack. */
static void fill_quadratics(void *ctx, int p, size_t s, double *ctr,
                            double *cti, double *dr, double *di, double *ur,
                            double *ui)
{
    const struct source *src = ctx;
    const struct scratch *sc = src->sc;
    const size_t k = (size_t)src->k_users, nn = (size_t)src->n;
    const size_t l = (size_t)src->l_ris, mm = (size_t)src->m;
    const size_t lm = l * mm, kn = k * nn, klm = k * lm, ts = TRI(mm) * s;
    const size_t lw = l + W;
    split(kn, src->f + 2 * (size_t)sc->lane[p] * kn, sc->fr, sc->fi);
    for (size_t j = 0; j < k; ++j)
        matvec(klm, nn, sc->cjr, sc->cji, sc->fr + j * nn, sc->fi + j * nn,
               sc->gr + j * klm, sc->gi + j * klm);
    double power = 0.0;
    for (size_t i = 0; i < kn; ++i) {
        power += sc->fr[i] * sc->fr[i];
        power += sc->fi[i] * sc->fi[i];
    }
    const double scale = (double)lm, root = sqrt(scale);
    for (size_t kk = 0; kk < k; ++kk) {
        /* user k's rows (m, l) of every G-hat_j, at j * KLM, and its own */
        const double *gr = sc->gr + kk * lm, *gi = sc->gi + kk * lm;
        const double *own_r = gr + kk * klm, *own_i = gi + kk * klm;
        for (size_t a = 0; a < mm; ++a)
            for (size_t ll = 0; ll < l; ++ll) {
                ur[(kk * mm + a) * s + ll] = root * own_r[a * l + ll];
                ui[(kk * mm + a) * s + ll] = root * own_i[a * l + ll];
            }
        for (size_t b = 0; b < mm; ++b) {
            /* row b of u and of each G-hat_j, repeated: the entries (b, l)
             * that meet a strip from (a, q) start at q.  With L a multiple
             * of W a strip lies in one row, and row b of G-hat_j serves. */
            double *rep = sc->rep;
            const size_t kr = l % W ? k : 0;
            for (size_t t = 0; t < lw; ++t) {
                const size_t e = b * l + t % l;
                rep[t] = root * own_r[e];
                rep[lw + t] = root * own_i[e];
                for (size_t j = 0; j < kr; ++j) {
                    rep[(2 * j + 2) * lw + t] = gr[j * klm + e];
                    rep[(2 * j + 3) * lw + t] = gi[j * klm + e];
                }
            }
            double *cr = ctr + (kk * mm + b) * mm * s;
            double *ci = cti + (kk * mm + b) * mm * s;
            double *pr = dr + kk * ts + TRI(b) * s;
            double *pi = di + kk * ts + TRI(b) * s;
            for (size_t i = 0; i < lm; i += W) {
                const size_t a = i / l, q = i % l, n = lm - i < W ? lm - i : W;
                vd xr = {0}, xi = {0};
                for (size_t j = 0; j < k; ++j) {
                    const double *jr = gr + j * klm, *ji = gi + j * klm;
                    const double *er = kr ? rep + (2 * j + 2) * lw : jr + b * l;
                    const double *ei = kr ? rep + (2 * j + 3) * lw : ji + b * l;
                    const vd ar = ld(jr + i), ai = ld(ji + i);
                    xr += ar * ld(er + q) + ai * ld(ei + q);
                    xi += ld(ei + q) * ar - ld(er + q) * ai;
                }
                vd c_r = scale * xr, c_i = -(scale * xi);
                const size_t d0 = b * l;  /* the diagonal: entries (b, l) */
                for (size_t t = d0 > i ? d0 - i : 0; t < n && i + t < d0 + l;
                     ++t) {
                    c_r[t] += scale * (src->err[kk * l + i + t - d0] * power);
                    c_i[t] = 0.0;
                }
                put(cr, s, l, a, q, n, c_r);
                put(ci, s, l, a, q, n, c_i);
                if (a > b)
                    continue;
                const vd uar = root * ld(own_r + i), uai = root * ld(own_i + i);
                const vd ubr = ld(rep + q), ubi = ld(rep + lw + q);
                const size_t nd = d0 + l - i < n ? d0 + l - i : n;
                put(pr, s, l, a, q, nd, c_r - (ubr * uar + ubi * uai));
                put(pi, s, l, a, q, nd, -c_i - (ubi * uar - ubr * uai));
            }
        }
    }
}

/* Step 4 of lane w into sc->pr / sc->pi: 0 when a phase is not finite. */
static int project(size_t lm, const double *w, const struct scratch *sc)
{
    const double root = sqrt((double)lm);
    int finite = 1;
    for (size_t i = 0; i < lm; ++i) {
        const double x = root * w[2 * i], y = root * w[2 * i + 1];
        const double r = hypot(x, y);
        /* the angle of 0 is 0 */
        sc->pr[i] = r == 0.0 ? 1.0 : x / r;
        sc->pi[i] = r == 0.0 ? 0.0 : y / r;
        finite &= isfinite(sc->pr[i]) && isfinite(sc->pi[i]);
    }
    return finite;
}

/* Step 5 of the lane whose precoder is split in sc->fr / sc->fi and whose
 * phases are in sc->pr / sc->pi: returns the bound, and leaves h-hat in hp
 * and xi in xip. */
static double objective(int k_users, int n, int l_ris, int m,
                        const struct scratch *sc, const double *err,
                        double noise_over_p, double *hp, double *xip)
{
    const size_t k = (size_t)k_users, nn = (size_t)n, l = (size_t)l_ris;
    const size_t mm = (size_t)m, kn = k * nn;
    matvec(kn, l * mm, sc->str, sc->sti, sc->pr, sc->pi, sc->hr, sc->hi);
    for (size_t i = 0; i < kn; ++i) {
        hp[2 * i] = sc->hr[i];
        hp[2 * i + 1] = sc->hi[i];
    }
    double power = 0.0;
    for (size_t i = 0; i < kn; ++i) {
        power += sc->fr[i] * sc->fr[i];
        power += sc->fi[i] * sc->fi[i];
    }
    double bound = 0.0;
    for (size_t kk = 0; kk < k; ++kk) {
        double xi = 0.0;
        for (size_t ll = 0; ll < l; ++ll) {
            double sq = 0.0;
            for (size_t a = ll * mm; a < (ll + 1) * mm; ++a)
                sq += sc->pr[a] * sc->pr[a] + sc->pi[a] * sc->pi[a];
            xi += err[kk * l + ll] * sq;
        }
        xip[kk] = xi;
        /* |h_k^H f_i|^2 over the users i: the signal and the sum */
        const double *restrict hkr = sc->hr + kk * nn;
        const double *restrict hki = sc->hi + kk * nn;
        double signal = 0.0, total = 0.0;
        for (size_t i = 0; i < k; ++i) {
            const double *restrict fr = sc->fr + i * nn;
            const double *restrict fi = sc->fi + i * nn;
            double tr = 0.0, ti = 0.0;
            for (size_t a = 0; a < nn; ++a) {
                tr += hkr[a] * fr[a] + hki[a] * fi[a];
                ti += hkr[a] * fi[a] - hki[a] * fr[a];
            }
            const double g = tr * tr + ti * ti;
            total += g;
            if (i == kk)
                signal = g;
        }
        const double sinr = signal
            / ((total - signal) + xi * power + noise_over_p);
        bound += log2(1.0 + sinr);
    }
    return bound;
}

/* Runs one round of the lanes sel; returns the number that failed. */
int gpris_round(int g_slots, int k_users, int n, int l_ris, int m,
                const double *stack, const double *conj_rows,
                const double *err, double noise_over_p, double inv_rs_ln2,
                double alpha1, double alpha2, const double *mu,
                double pre_tol, int pre_max, double ris_tol, int ris_max,
                double *f, double *w, double *h, double *xi, double *obj,
                int *status, int *block, double *seconds, double *work,
                int n_sel, const int *sel, int first)
{
    const size_t k = (size_t)k_users, nn = (size_t)n, kn = k * nn;
    const size_t lm = (size_t)l_ris * (size_t)m, klm = k * lm;
    struct scratch sc;
    carve(n_sel, g_slots, k_users, n, l_ris, m, work, &sc);
    sc.str = stack;
    sc.sti = stack + kn * lm;
    sc.cjr = conj_rows;
    sc.cji = conj_rows + klm * nn;
    struct timespec t;
    clock_gettime(CLOCK_MONOTONIC, &t);
    int failed = 0, n_ris = 0;
    for (int i = 0; i < n_sel; ++i) {
        const int p = sel[i], q = sel[0];
        if (first && i > 0) {
            memcpy(f + 2 * (size_t)p * kn, f + 2 * (size_t)q * kn,
                   2 * kn * sizeof *f);
            status[p] = status[q];
            block[p] = block[q];
        } else {
            status[p] = precoder_stage(k_users, n, &sc, h + 2 * (size_t)p * kn,
                                       xi + (size_t)p * k, noise_over_p,
                                       f + 2 * (size_t)p * kn, pre_tol,
                                       pre_max, block + p);
            seconds[0] += elapsed(&t);
        }
        if (status[p] != ROUND_OK) {
            ++failed;
            continue;
        }
        double *wq = sc.w + 2 * (size_t)n_ris * lm;
        const double *wp = w + 2 * (size_t)p * lm;
        for (size_t a = 0; a < 2 * lm; ++a)
            wq[a] = wp[a];
        normalize(wq, lm);
        sc.mu[n_ris] = mu[p];
        sc.lane[n_ris++] = p;
    }
    if (n_ris > 0) {
        /* each lane's quadratics formed as it enters, or once per slot in
         * the first round, where every lane has the same f */
        struct source src = {k_users, n, l_ris, m, &sc, err, f};
        const int g = g_slots < n_ris ? g_slots : n_ris;
        double loop_s;
        gpris_ris_loop(n_ris, g, k_users, m, l_ris, NULL, NULL, first,
                       fill_quadratics, &src, noise_over_p, inv_rs_ln2,
                       sc.mu, alpha1, alpha2, sc.w, ris_tol, ris_max,
                       sc.iters, sc.step, &loop_s, sc.rwork);
    }
    for (int i = 0; i < n_ris; ++i) {
        const int p = sc.lane[i];
        const double *wq = sc.w + 2 * (size_t)i * lm;
        double *wp = w + 2 * (size_t)p * lm;
        if (sc.iters[i] < 0)
            status[p] = RIS_NOT_PD;
        else if (!project(lm, wq, &sc))
            status[p] = PHASE_NOT_FINITE;
        seconds[1] += elapsed(&t);
        if (status[p] != ROUND_OK) {
            ++failed;
            continue;
        }
        for (size_t a = 0; a < 2 * lm; ++a)
            wp[a] = wq[a];
        split(kn, f + 2 * (size_t)p * kn, sc.fr, sc.fi);
        obj[p] = objective(k_users, n, l_ris, m, &sc, err, noise_over_p,
                           h + 2 * (size_t)p * kn, xi + (size_t)p * k);
        seconds[2] += elapsed(&t);
    }
    return failed;
}
