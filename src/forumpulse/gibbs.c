/* Collapsed Gibbs sweep for forumpulse.lda, bit-identical to its Python loop.
 *
 * Each document owns a Mersenne Twister that reproduces CPython's
 * random.Random: the same seeding (init_by_array over the 32-bit words of
 * the seed, least significant first), the same genrand_uint32, randrange(k)
 * as getrandbits(k.bit_length()) redrawn while >= k, and random() in its
 * 53-bit form. The sweep and the likelihood trace keep the Python operation
 * order, so they must be compiled without floating-point contraction
 * (-ffp-contract=off), and the trace's log must be the C library's, which
 * Python's math.log calls too (link with -lm after this file).
 */
#include <math.h>
#include <stddef.h>
#include <stdint.h>

#define MT_N 624
#define MT_M 397

typedef struct {
    uint32_t mt[MT_N];
    uint32_t index;
} rng_t;

static void init_genrand(rng_t *r, uint32_t s)
{
    r->mt[0] = s;
    for (uint32_t i = 1; i < MT_N; i++)
        r->mt[i] = 1812433253U * (r->mt[i - 1] ^ (r->mt[i - 1] >> 30)) + i;
    r->index = MT_N;
}

static void init_by_array(rng_t *r, const uint32_t *key, size_t len)
{
    uint32_t *mt = r->mt;
    size_t i = 1, j = 0, n;
    init_genrand(r, 19650218U);
    for (n = MT_N > len ? MT_N : len; n; n--) {
        mt[i] = (mt[i] ^ ((mt[i - 1] ^ (mt[i - 1] >> 30)) * 1664525U)) + key[j] + (uint32_t)j;
        i++; j++;
        if (i >= MT_N) { mt[0] = mt[MT_N - 1]; i = 1; }
        if (j >= len) j = 0;
    }
    for (n = MT_N - 1; n; n--) {
        mt[i] = (mt[i] ^ ((mt[i - 1] ^ (mt[i - 1] >> 30)) * 1566083941U)) - (uint32_t)i;
        i++;
        if (i >= MT_N) { mt[0] = mt[MT_N - 1]; i = 1; }
    }
    mt[0] = 0x80000000U;
}

static uint32_t genrand_uint32(rng_t *r)
{
    static const uint32_t mag01[2] = {0x0U, 0x9908b0dfU};
    uint32_t *mt = r->mt, y;
    if (r->index >= MT_N) {
        int kk;
        for (kk = 0; kk < MT_N - MT_M; kk++) {
            y = (mt[kk] & 0x80000000U) | (mt[kk + 1] & 0x7fffffffU);
            mt[kk] = mt[kk + MT_M] ^ (y >> 1) ^ mag01[y & 0x1U];
        }
        for (; kk < MT_N - 1; kk++) {
            y = (mt[kk] & 0x80000000U) | (mt[kk + 1] & 0x7fffffffU);
            mt[kk] = mt[kk + (MT_M - MT_N)] ^ (y >> 1) ^ mag01[y & 0x1U];
        }
        y = (mt[MT_N - 1] & 0x80000000U) | (mt[0] & 0x7fffffffU);
        mt[MT_N - 1] = mt[MT_M - 1] ^ (y >> 1) ^ mag01[y & 0x1U];
        r->index = 0;
    }
    y = mt[r->index++];
    y ^= (y >> 11);
    y ^= (y << 7) & 0x9d2c5680U;
    y ^= (y << 15) & 0xefc60000U;
    y ^= (y >> 18);
    return y;
}

static double random_res53(rng_t *r)
{
    uint32_t a = genrand_uint32(r) >> 5, b = genrand_uint32(r) >> 6;
    return (a * 67108864.0 + b) * (1.0 / 9007199254740992.0);
}

/* Seed document d's stream from seeds[d] and draw its initial labels
 * z[offsets[d]:offsets[d+1]] uniformly from [0, k); counts must start at 0. */
void fp_gibbs_init(int64_t n_docs, int64_t k, const uint64_t *seeds,
                   const int64_t *offsets, const int32_t *words, int32_t *z,
                   int64_t *ndt, int64_t *nwt, int64_t *nt, rng_t *rngs)
{
    int bits = 0;
    while ((k >> bits) != 0)
        bits++;
    for (int64_t d = 0; d < n_docs; d++) {
        uint32_t key[2] = {(uint32_t)seeds[d], (uint32_t)(seeds[d] >> 32)};
        init_by_array(&rngs[d], key, key[1] ? 2 : 1);
        for (int64_t j = offsets[d]; j < offsets[d + 1]; j++) {
            uint32_t t;
            do
                t = genrand_uint32(&rngs[d]) >> (32 - bits);
            while (t >= (uint32_t)k);
            z[j] = (int32_t)t;
            ndt[d * k + t]++;
            nwt[words[j] * k + t]++;
            nt[t]++;
        }
    }
}

/* One sweep over the documents as stored, resampling every token's label. */
void fp_gibbs_sweep(int64_t n_docs, int64_t k, const int64_t *offsets,
                    const int32_t *words, int32_t *z, int64_t *ndt, int64_t *nwt,
                    int64_t *nt, rng_t *rngs, double alpha, double beta, double vbeta,
                    double *cum)
{
    for (int64_t d = 0; d < n_docs; d++) {
        int64_t *drow = ndt + d * k;
        for (int64_t j = offsets[d]; j < offsets[d + 1]; j++) {
            int64_t *wrow = nwt + (int64_t)words[j] * k;
            int64_t t = z[j];
            double total = 0.0, u;
            drow[t]--; wrow[t]--; nt[t]--;
            for (int64_t tt = 0; tt < k; tt++) {
                total += ((double)drow[tt] + alpha) * ((double)wrow[tt] + beta)
                         / ((double)nt[tt] + vbeta);
                cum[tt] = total;
            }
            /* bisect_right(cum, u), clamped to k - 1 */
            u = random_res53(&rngs[d]) * total;
            for (t = 0; t < k - 1 && !(u < cum[t]); t++)
                ;
            z[j] = (int32_t)t;
            drow[t]++; wrow[t]++; nt[t]++;
        }
    }
}

/* The log-likelihood of the corpus under the point estimates of the current
 * counts, in one fixed order: phi for every topic (into phi, laid out
 * word-major), then for each document its theta row (into theta) and, over
 * its (word, count) triplets trip_words/trip_counts[trip_offsets[d]:
 * trip_offsets[d+1]] in corpus order, count * log(p) added left to right,
 * where p sums theta[t] * phi[t][w] over the topics in turn. Each estimate
 * takes numpy's operations in fit's `_estimates` (the count sums are exact
 * in doubles), so the Python fallback gets the same bits. */
double fp_gibbs_trace(int64_t n_docs, int64_t k, int64_t n_words,
                      const int64_t *trip_offsets, const int64_t *trip_words,
                      const double *trip_counts, const int64_t *ndt,
                      const int64_t *nwt, const int64_t *nt,
                      const int64_t *doc_totals, double alpha, double beta,
                      double kalpha, double vbeta, double *phi, double *theta)
{
    double total = 0.0;
    for (int64_t w = 0; w < n_words; w++)
        for (int64_t t = 0; t < k; t++)
            phi[w * k + t] = ((double)nwt[w * k + t] + beta) / ((double)nt[t] + vbeta);
    for (int64_t d = 0; d < n_docs; d++) {
        double denom = (double)doc_totals[d] + kalpha;
        for (int64_t t = 0; t < k; t++)
            theta[t] = ((double)ndt[d * k + t] + alpha) / denom;
        for (int64_t j = trip_offsets[d]; j < trip_offsets[d + 1]; j++) {
            const double *prow = phi + trip_words[j] * k;
            double p = 0.0;
            for (int64_t t = 0; t < k; t++)
                p += theta[t] * prow[t];
            total += trip_counts[j] * log(p);
        }
    }
    return total;
}
