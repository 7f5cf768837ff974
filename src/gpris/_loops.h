/* What the three compiled loops share: the 8-double strips, the packed
 * triangle offset, the carving of a scratch array, and the interface of the
 * two stage loops, which _round.c calls. */
#include <stddef.h>
#include <stdint.h>
#include <string.h>

/* W-wide strips, each sum held in registers and stored once */
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

/* n rounded up to whole strips */
#define PAD(n) (((size_t)(n) + W - 1) / W * W)

/* the lanes' bits as integers, and the lanes of a where m is set, else b's */
typedef int64_t vi __attribute__((vector_size(W * sizeof(double))));
typedef uint64_t vu __attribute__((vector_size(W * sizeof(double))));

static inline vd pick(vi m, vd a, vd b)
{
    return (vd)((m & (vi)a) | (~m & (vi)b));
}

/* e^x of a strip, within 1 ulp of glibc's exp (tests/test_package.py
 * measures it), and as glibc's on NaN, +-inf, overflow and underflow.
 * Cody-Waite: x = k ln2 + r with |r| <= ln2/2, ln2 in two parts so that
 * x - k ln2_hi is exact, then fdlibm's e_exp.c approximation of e^r,
 * 1 - ((lo - r c / (2 - c)) - hi) with c = r - r^2 P(r^2), and the scaling
 * by 2^k in two exact halves 2^(k/2) 2^(k - k/2), so that a subnormal or
 * infinite result is rounded once.  x is clamped to [-746, 710] first,
 * which moves no result: e^x is 0 below and inf above at that precision. */
static inline vd vexp(vd x)
{
    const double shift = 0x1.8p52;  /* adding it rounds to an integer */
    const double p1 = 0x1.555555555553ep-3, p2 = -0x1.6c16c16bebd93p-9;
    const double p3 = 0x1.1566aaf25de2cp-14, p4 = -0x1.bbd41c5d26bf1p-20;
    const double p5 = 0x1.6376972bea4d0p-25;
    x = pick(x > 710.0, (vd){0} + 710.0, x);
    x = pick(x < -746.0, (vd){0} - 746.0, x);
    const vd t = x * 0x1.71547652b82fep0 + shift;  /* k + shift */
    const vd k = t - shift;
    const vd hi = x - k * 0x1.62e42feep-1;
    const vd lo = k * 0x1.a39ef35793c76p-33;
    const vd r = hi - lo, r2 = r * r;
    const vd c = r - r2 * (p1 + r2 * (p2 + r2 * (p3 + r2 * (p4 + r2 * p5))));
    const vd y = 1.0 - ((lo - (r * c) / (2.0 - c)) - hi);
    /* k from the low bits of t, as a two's complement (NaN's lanes carry
     * junk, and stay NaN); the exponent fields of 2^(k/2) and 2^(k - k/2) */
    const vu ki = (vu)t - (vu)((vd){0} + shift), half = (vu)((vi)ki >> 1);
    const vd s1 = (vd)((half + 1023) << 52);
    const vd s2 = (vd)((ki - half + 1023) << 52);
    return y * s1 * s2;
}

/* offset of row a of a packed lower triangle */
#define TRI(a) ((size_t)(a) * ((size_t)(a) + 1) / 2)

/* A scratch array being laid out; with a NULL base it only counts.  Each
 * array starts on a 64-byte boundary: a vector that loads a whole row of an
 * aligned array then never straddles two cache lines.  A carve needs
 * `used` + 7 doubles, the 7 the slack for the alignment. */
struct carver {
    double *base;
    size_t used;
};

static inline struct carver carver(double *work)
{
    struct carver c = {
        work ? (double *)(((uintptr_t)work + 63) & ~(uintptr_t)63) : NULL, 0};
    return c;
}

/* the next n doubles of the scratch (NULL when counting) */
static inline void *take(struct carver *c, size_t n)
{
    double *p = c->base ? c->base + c->used : NULL;
    c->used += (n + 7) / 8 * 8;
    return p;
}

/* the source of a lane's blocks, in place of the RIS loop's c and u arrays:
 * writes them into the lane's slot columns (see _ris_loop.c) */
typedef void gpris_ris_fill(void *ctx, int lane, size_t s, double *ctr,
                            double *cti, double *dr, double *di, double *ur,
                            double *ui);

long gpris_precoder_loop_work(int k_users, int n);
int gpris_precoder_loop(int k_users, int n, const double *h, const double *xi,
                        double noise_over_p, double *f, double tol,
                        int max_iters, int *block, double *step,
                        double *work);
long gpris_ris_loop_work(int g_slots, int k_users, int m, int l_ris);
int gpris_ris_loop(int p_lanes, int g_slots, int k_users, int m, int l_ris,
                   const double *c, const double *u, int shared,
                   gpris_ris_fill *fill, void *ctx, double noise_over_p,
                   double inv_rs_ln2, const double *mu, double alpha1,
                   double alpha2, double *w, double tol, int max_iters,
                   int *iters, double *step, double *seconds, double *work);
