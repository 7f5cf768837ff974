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
