/* Collapsed Gibbs sweep for forumpulse.lda, bit-identical to its Python loop,
 * and the log-likelihood of a fit's point estimates.
 *
 * Each document owns a Mersenne Twister that reproduces CPython's
 * random.Random: the same seeding (init_by_array over the 32-bit words of
 * the seed, least significant first), the same genrand_uint32, randrange(k)
 * as getrandbits(k.bit_length()) redrawn while >= k, and random() in its
 * 53-bit form. Every seeding starts from the state init_genrand(19650218)
 * leaves, so a fit fills that once, and streams are seeded LANES at a time,
 * each step of init_by_array's two serial loops run across them, so that
 * their dependency chains overlap. The sweep and the likelihood keep the
 * operation order of forumpulse.lda's Python loops, so they must be compiled
 * without floating-point contraction (-ffp-contract=off), and the
 * likelihood's log must be the C library's, which Python's math.log calls
 * too (link with -lm after this file). The likelihood takes the point
 * estimates as forumpulse.lda computes them; nothing here derives them.
 */
#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <string.h>

#define MT_N 624
#define MT_M 397
#define LANES 8

typedef struct {
    uint32_t mt[MT_N];
    uint32_t index;
} rng_t;

/* The state init_genrand(s) leaves in mt. */
static void init_genrand(uint32_t *mt, uint32_t s)
{
    mt[0] = s;
    for (uint32_t i = 1; i < MT_N; i++)
        mt[i] = 1812433253U * (mt[i - 1] ^ (mt[i - 1] >> 30)) + i;
}

/* init_by_array of the streams r[0..lanes), lanes <= LANES, each keyed by
 * the words of its seed, starting from base, the state init_genrand(19650218)
 * leaves for every key. Each step of the two serial loops runs across all
 * LANES lanes, so that their dependency chains overlap: the state is held
 * step-major in m and only the first lanes are copied out. Step n of the
 * first loop adds key[j] + j with j = n % len: a two-word key alternates its
 * low word and its high word + 1, and a one-word key (a seed below 2**32)
 * adds its one word every step. */
static void init_by_array_lanes(rng_t *r, int lanes, const uint32_t *base, const uint64_t *seeds)
{
    uint32_t m[MT_N][LANES], key[2][LANES] = {{0}};
    size_t i, n;
    int l;
    for (l = 0; l < lanes; l++) {
        uint32_t lo = (uint32_t)seeds[l], hi = (uint32_t)(seeds[l] >> 32);
        key[0][l] = lo;
        key[1][l] = hi ? hi + 1U : lo;
    }
    for (i = 0; i < MT_N; i++)
        for (l = 0; l < LANES; l++)
            m[i][l] = base[i];
    i = 1;
    for (n = 0; n < MT_N; n++) {
        for (l = 0; l < LANES; l++)
            m[i][l] = (m[i][l] ^ ((m[i - 1][l] ^ (m[i - 1][l] >> 30)) * 1664525U))
                      + key[n & 1][l];
        if (++i >= MT_N) { memcpy(m[0], m[MT_N - 1], sizeof m[0]); i = 1; }
    }
    for (n = MT_N - 1; n; n--) {
        for (l = 0; l < LANES; l++)
            m[i][l] = (m[i][l] ^ ((m[i - 1][l] ^ (m[i - 1][l] >> 30)) * 1566083941U))
                      - (uint32_t)i;
        if (++i >= MT_N) { memcpy(m[0], m[MT_N - 1], sizeof m[0]); i = 1; }
    }
    for (l = 0; l < lanes; l++) {
        r[l].mt[0] = 0x80000000U;
        for (i = 1; i < MT_N; i++)
            r[l].mt[i] = m[i][l];
        r[l].index = MT_N;
    }
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
 * z[offsets[d]:offsets[d+1]] uniformly from [0, k); counts must start at 0.
 * The documents are seeded LANES at a time. */
void fp_gibbs_init(int64_t n_docs, int64_t k, const uint64_t *seeds,
                   const int64_t *offsets, const int32_t *words, int32_t *z,
                   int64_t *ndt, int64_t *nwt, int64_t *nt, rng_t *rngs)
{
    uint32_t base[MT_N];
    int bits = 0;
    while ((k >> bits) != 0)
        bits++;
    init_genrand(base, 19650218U);
    for (int64_t first = 0; first < n_docs; first += LANES) {
        int lanes = n_docs - first < LANES ? (int)(n_docs - first) : LANES;
        init_by_array_lanes(&rngs[first], lanes, base, &seeds[first]);
        for (int64_t d = first; d < first + lanes; d++) {
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

/* The log-likelihood of the corpus under the point estimates theta (n_docs
 * by k) and phi (word-major: one row of k per word): over each document's
 * (word, count) pairs words/counts[offsets[d]:offsets[d+1]], in corpus
 * order, count * log(p) added left to right, where p sums theta[d][t] *
 * phi[w][t] over the topics in turn. */
double fp_log_likelihood(int64_t n_docs, int64_t k, const int64_t *offsets,
                         const int64_t *words, const int64_t *counts,
                         const double *theta, const double *phi)
{
    double total = 0.0;
    for (int64_t d = 0; d < n_docs; d++) {
        const double *trow = theta + d * k;
        for (int64_t j = offsets[d]; j < offsets[d + 1]; j++) {
            const double *prow = phi + words[j] * k;
            double p = 0.0;
            for (int64_t t = 0; t < k; t++)
                p += trow[t] * prow[t];
            total += (double)counts[j] * log(p);
        }
    }
    return total;
}
