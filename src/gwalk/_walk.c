/* Plain-C kernel: the walk gwalk runs, one trial or a batch of trials
 * (gw_walks), the depth-first walker that lists a generation for W
 * (gw_level), the sampler of edge-count trees (gw_counts), the spine walk
 * of the discounted sums (gw_discount), and the bounded integers
 * (gw_integers) and multinomial rows (gw_multinomial) of the package's
 * other draws. Every command but validate-law needs this library. The
 * comment above each entry point says what it computes; the docstring of
 * gwalk/kernel.py holds the walk's contract (arena, dynamics, bookkeeping)
 * and why each entry point keeps the bits of its reference.
 *
 * gw_walks runs the walk loop, walk_one, on a lazy or an explicit tree, for
 * the trials it claims from a counter that several concurrent calls share,
 * on one arena per call. The four tree entry points grow nodes through one
 * atom_of and one child_key; atom_of and gw_discount's increment lookup
 * share one branch-free count, count_le. The four drawing entry points
 * draw on a gw_pcg64: numpy's PCG64 (next64, next32, next_double), wrapped
 * in numpy's bit generator interface on the call's stack. gw_discount,
 * gw_integers and gw_multinomial draw on the caller's generator; gw_counts
 * seeds one per row from the row's walk seed. numpy's own gamma, Poisson,
 * uniform fill, bounded integers and multinomial (its static
 * libnpyrandom.a, linked by setup.py) then draw what a numpy Generator in
 * the same state draws.
 * The references, checked bit for bit: tests/pykernel.py, with the same
 * arena, RNG stream and comparisons in the same order, for the walk
 * (tests/test_kernel_parity.py); the numpy references in tests/oracles.py
 * for gw_level and gw_discount (tests/test_env.py) and for gw_counts
 * (tests/test_count_trees.py, row by row); np.random.default_rng for the
 * generator, gw_integers and gw_multinomial (tests/test_generator.py).
 * Every drawing entry point is checked with the generator's state after.
 *
 * The file holds no Python API and no global mutable state: gwalk.kernel
 * calls it through ctypes, which releases the GIL, so calls on several
 * threads run in parallel; the only state they share is gw_walks' trial
 * counter, which the caller owns and they advance atomically, and a
 * caller's generator, around whose draws gwalk.kernel.PCG64 holds a lock.
 * gw_counts shares none: its rows' generators live on its stack.
 * gwalk.kernel restates gw_node, gw_arena, gw_stats, gw_count and gw_pcg64
 * by hand, and the return and parameter types of every function defined
 * here without `static` in one table, _ENTRY_POINTS;
 * tests/test_kernel_layout.py checks both against this file.
 *
 * Build with `python setup.py build_ext --inplace`. Do not compile with
 * -ffast-math or -march=native, and keep -ffp-contract=off.
 */

#include <math.h>
#include <stdbool.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* splitmix64, as in _rng.py (the reference for these constants) */
#define GOLDEN 0x9E3779B97F4A7C15ULL
#define ROOT_SALT 0xD1B54A32D192ED03ULL
/* the PCG64 stream of a count-tree row (gw_counts), as _rng.py's
 * STREAM_SALT_HI, STREAM_SALT_LO and STREAM_INC */
#define STREAM_SALT_HI 0x2545F4914F6CDD1DULL
#define STREAM_SALT_LO 0xA0761D6478BD642FULL
#define STREAM_INC_HI 0x5851F42D4C957F2DULL
#define STREAM_INC_LO 0x14057B7EF767814FULL
#define TWO_NEG53 (1.0 / 9007199254740992.0)

static inline uint64_t mix64(uint64_t x)
{
    x ^= x >> 30;
    x *= 0xBF58476D1CE4E5B9ULL;
    x ^= x >> 27;
    x *= 0x94D049BB133111EBULL;
    x ^= x >> 31;
    return x;
}

enum { MODE_STEPS = 0, MODE_CROSSINGS = 1 };
enum { STATUS_OK = 0, STATUS_BUDGET = 2 };
enum { GW_OK = 0, GW_ENOMEM = 1, GW_ELAM = 2 };

/* One node of the grown tree: six 8-byte fields (48 B). atom == -1 marks an
 * ungrown node; a grown node has atom_len[atom] children from child0 on. */
typedef struct {
    int64_t parent, child0, n_down, n_up, atom;
    uint64_t key;
} gw_node;

typedef struct {
    int64_t n, cap;
    gw_node *node;
} gw_arena;

typedef struct {
    int64_t status, m, t_ex, L, R, pos, nsnap;
} gw_stats;

void gw_free(gw_arena *A)
{
    if (!A)
        return;
    free(A->node);
    free(A);
}

/* The block of *cap items of `size` bytes, grown to hold `want` items by
 * doubling *cap (at least 1); NULL when out of memory, which leaves the old
 * block in place for its owner to free. */
static void *grow_block(void *block, int64_t *cap, int64_t want, size_t size)
{
    int64_t c = *cap;
    void *p;
    if (want <= c)
        return block;
    while (c < want)
        c *= 2;
    if (!(p = realloc(block, (size_t)c * size)))
        return NULL;
    *cap = c;
    return p;
}

/* Grow the node array to hold `want` nodes; gw_free frees it even after a
 * failure. */
static int reserve(gw_arena *A, int64_t want)
{
    gw_node *p = grow_block(A->node, &A->cap, want, sizeof *p);
    if (!p)
        return GW_ENOMEM;
    A->node = p;
    return GW_OK;
}

/* Write a node whose children are not grown yet. */
static void set_node(gw_arena *A, int64_t i, int64_t parent, uint64_t key)
{
    A->node[i] = (gw_node){parent, -1, 0, 0, -1, key};
}

/* The number of the n nondecreasing values cum[0..n) that are <= u, counted
 * without a branch: the index of the first value above u. */
static inline int64_t count_le(double u, const double *cum, int64_t n)
{
    int64_t c = 0, i;
    for (i = 0; i < n; i++)
        c += u >= cum[i];
    return c;
}

/* Offspring atom of a node key: the key's top 53 bits as a uniform on [0, 1)
 * against the n_atoms cumulative atom probabilities, whose last entry is
 * 1.0. */
static inline int64_t atom_of(uint64_t key, const double *atom_cum, int64_t n_atoms)
{
    return count_le((double)(key >> 11) * TWO_NEG53, atom_cum, n_atoms);
}

/* Key of the j-th (0-based) child of the node with key k. */
static inline uint64_t child_key(uint64_t k, int64_t j)
{
    return mix64(k ^ ((uint64_t)(j + 2) * GOLDEN));
}

/* Give ungrown node x its atom and children: its key alone decides both. */
static int grow(gw_arena *A, int64_t x, const double *atom_cum, int64_t n_atoms,
                const int64_t *atom_len)
{
    uint64_t kx = A->node[x].key;
    int64_t a = atom_of(kx, atom_cum, n_atoms), k = atom_len[a], j;
    if (reserve(A, A->n + k))
        return GW_ENOMEM;
    A->node[x].atom = a;
    A->node[x].child0 = A->n;
    for (j = 0; j < k; j++)
        set_node(A, A->n + j, x, child_key(kx, j));
    A->n += k;
    return GW_OK;
}

/* Record snapshot si; snap_out holds rows tau, T, L, R of nsnap each. */
static inline void record(int64_t *snap_out, int64_t nsnap, int64_t si, int64_t m,
                          int64_t t_ex, int64_t L, int64_t R)
{
    snap_out[si] = m;
    snap_out[nsnap + si] = t_ex;
    snap_out[2 * nsnap + si] = L;
    snap_out[3 * nsnap + si] = R;
}

/* The walk loop of gw_walks: run one walk on arena A, which holds any
 * number of nodes from an earlier walk (A->n is reset) and has cap >= 1.
 * With n_explicit < 0 the tree grows lazily from the law tables and
 * env_seed. Otherwise it is the explicit tree of n_explicit nodes, as
 * kernel.explicit_tree returns it: node i is atom i of the tables and has
 * exp_parent[i] and exp_child0[i]; atom_cum and n_atoms are then unused.
 * Snapshots go to the caller's 4 x nsnap buffer snap_out. On GW_OK, *st
 * holds the scalars and A the grown tree; GW_ENOMEM when the arena cannot
 * grow, which leaves A for its owner to free. */
static int walk_one(gw_arena *A, const double *atom_cum, int64_t n_atoms,
                    const int64_t *atom_off, const int64_t *atom_len, const double *p_up,
                    const double *step_cum, int64_t n_explicit, const int64_t *exp_parent,
                    const int64_t *exp_child0, uint64_t env_seed, uint64_t state, int mode,
                    int64_t limit, const int64_t *snaps, int64_t nsnap, int64_t *snap_out,
                    int64_t budget, gw_stats *st)
{
    gw_node *nx;
    int64_t pos = 0, m = 0, t_ex = 0, L = 0, R = 1, si = 0, x, k, a, j, dest, c, last;
    int status = STATUS_OK, err;
    double u;

    /* at least 1024 slots, so the array exists even for a one-node tree */
    if ((err = reserve(A, n_explicit > 1024 ? n_explicit : 1024)))
        return err;
    if (n_explicit >= 0) {
        for (A->n = n_explicit, x = 0; x < n_explicit; x++)
            A->node[x] = (gw_node){exp_parent[x], exp_child0[x], 0, 0, x, 0};
    } else {
        A->n = 1;
        set_node(A, 0, -1, mix64(env_seed ^ ROOT_SALT));
    }

    for (;;) {
        if (m >= budget) {
            status = STATUS_BUDGET;
            break;
        }
        if (pos == -1) {
            /* forced crossing back to the root; origin e* is off the clock */
            m++;
            A->node[0].n_down++;
            pos = 0;
            if (mode == MODE_CROSSINGS) {
                for (; si < nsnap && snaps[si] == L; si++)
                    record(snap_out, nsnap, si, m, t_ex, L, R);
                if (L >= limit)
                    break;
            }
        } else {
            x = pos;
            if (A->node[x].atom == -1 && (err = grow(A, x, atom_cum, n_atoms, atom_len)))
                return err;

            nx = &A->node[x];
            a = nx->atom;
            k = atom_len[a];
            if (k == 0) {
                dest = nx->parent;
            } else {
                state += GOLDEN;
                u = (double)(mix64(state) >> 11) * TWO_NEG53;
                if (u < p_up[a]) {
                    dest = nx->parent;
                } else {
                    c = nx->child0;
                    last = c + k - 1;
                    for (j = atom_off[a]; c < last && u >= step_cum[j]; j++)
                        c++;
                    dest = c;
                }
            }

            m++;
            t_ex++;
            if (dest == nx->parent) {
                nx->n_up++;
                if (dest == -1)
                    L++;
            } else {
                if (A->node[dest].n_down == 0)
                    R++;
                A->node[dest].n_down++;
            }
            pos = dest;
        }

        if (mode == MODE_STEPS) {
            for (; si < nsnap && snaps[si] == m; si++)
                record(snap_out, nsnap, si, m, t_ex, L, R);
            if (m >= limit)
                break;
        }
    }

    *st = (gw_stats){status, m, t_ex, L, R, pos, si};
    return GW_OK;
}

/* The walks of trials 0..n_trials-1, trial t with walk seed walk_seeds[t]
 * on the lazy tree of env_seeds[t] or, with n_explicit >= 0, on the explicit
 * tree (walk_one). Several calls may run at once on one counter *next: each
 * claims the next trial with an atomic fetch-and-add until none is left, so
 * a call that draws a long trial leaves the rest to the others. Trial t
 * writes only its own slots: st[t], nodes[t] (the nodes grown) and the
 * 4 x nsnap rows at snap_out + 4 * nsnap * t, so the output does not depend
 * on how many calls share the trials. A call reuses one arena for all its
 * trials. With arena_out NULL it frees the arena before it returns;
 * otherwise, on GW_OK, *arena_out is the arena, holding the tree of the
 * call's last trial, which the caller releases with gw_free. GW_ENOMEM when
 * the arena cannot grow: that call stops, its trial's slots are not
 * written, and *arena_out is NULL. */
int gw_walks(const double *atom_cum, int64_t n_atoms, const int64_t *atom_off,
             const int64_t *atom_len, const double *p_up, const double *step_cum,
             int64_t n_explicit, const int64_t *exp_parent, const int64_t *exp_child0,
             const uint64_t *env_seeds, const uint64_t *walk_seeds, int64_t n_trials,
             int64_t *next, int mode, int64_t limit, const int64_t *snaps, int64_t nsnap,
             int64_t *snap_out, int64_t budget, gw_stats *st, int64_t *nodes,
             gw_arena **arena_out)
{
    gw_arena *A = calloc(1, sizeof *A);
    int64_t t;
    int err = GW_OK;

    if (arena_out)
        *arena_out = NULL;
    if (!A)
        return GW_ENOMEM;
    A->cap = 1;
    while ((t = __atomic_fetch_add(next, 1, __ATOMIC_RELAXED)) < n_trials) {
        if ((err = walk_one(A, atom_cum, n_atoms, atom_off, atom_len, p_up, step_cum,
                            n_explicit, exp_parent, exp_child0, env_seeds[t], walk_seeds[t],
                            mode, limit, snaps, nsnap, snap_out + 4 * nsnap * t, budget,
                            &st[t])))
            break;
        nodes[t] = A->n;
    }
    if (arena_out && !err)
        *arena_out = A;
    else
        gw_free(A);
    return err;
}

/* One node on the path of gw_level's depth-first search: its key, its V, its
 * atom's marks and the index of its next child to visit. */
typedef struct {
    uint64_t key;
    double V;
    int64_t off, len, j;
} gw_frame;

/* Potentials V of generation `level` of the keyed environment env_seed, left
 * to right: the order in which gwalk.env.next_level lists the generation.
 * A child's V is its parent's V plus its mark, summed root to leaf from the
 * root's 0.0. The search holds the path down to generation level - 1 and
 * lists the children of each node there, so it computes no key of the
 * generation itself. The first min(n, cap) values go to v_out. Returns n,
 * the size of the generation, or -1 when out of memory for the path. */
int64_t gw_level(const double *atom_cum, int64_t n_atoms, const int64_t *atom_off,
                 const int64_t *atom_len, const double *marks, uint64_t env_seed,
                 int64_t level, double *v_out, int64_t cap)
{
    gw_frame *path, *f;
    int64_t n = 0, d = 0, a, j;
    uint64_t key;

    if (level == 0) {
        if (cap > 0)
            v_out[0] = 0.0;
        return 1;
    }
    if (!(path = malloc((size_t)level * sizeof *path)))
        return -1;
    key = mix64(env_seed ^ ROOT_SALT);
    a = atom_of(key, atom_cum, n_atoms);
    path[0] = (gw_frame){key, 0.0, atom_off[a], atom_len[a], 0};
    while (d >= 0) {
        f = &path[d];
        if (d == level - 1) {
            if (n + f->len <= cap)
                for (j = 0; j < f->len; j++)
                    v_out[n + j] = f->V + marks[f->off + j];
            n += f->len;
            d--;
        } else if (f->j == f->len) {
            d--;
        } else {
            j = f->j++;
            key = child_key(f->key, j);
            a = atom_of(key, atom_cum, n_atoms);
            path[++d] = (gw_frame){key, f->V + marks[f->off + j], atom_off[a], atom_len[a], 0};
        }
    }
    free(path);
    return n;
}

/* The library's generator: numpy's PCG64, its 128-bit LCG state and
 * increment as high and low words, and the buffer of numpy's next_uint32
 * (has_uint32 and uinteger), which carries the unused half of a 64-bit draw
 * across calls. gwalk.kernel.PCG64 owns it and seeds it as
 * np.random.default_rng does (gwalk._rng.pcg64_seed). */
typedef struct {
    uint64_t state_hi, state_lo, inc_hi, inc_lo;
    int64_t has_uint32;
    uint64_t uinteger;
} gw_pcg64;

/* PCG_DEFAULT_MULTIPLIER_128, as _rng.py's PCG64_MULT */
#define PCG64_MULT (((__uint128_t)0x2360ED051FC65DA4ULL << 64) | 0x4385DF649FCCF645ULL)

/* numpy's pcg64_next64: step the LCG, then the XSL-RR output of the new
 * state. */
static uint64_t next64(void *st)
{
    gw_pcg64 *gen = st;
    __uint128_t s = ((__uint128_t)gen->state_hi << 64) | gen->state_lo;
    uint64_t x;
    unsigned r;

    s = s * PCG64_MULT + (((__uint128_t)gen->inc_hi << 64) | gen->inc_lo);
    gen->state_hi = (uint64_t)(s >> 64);
    gen->state_lo = (uint64_t)s;
    x = gen->state_hi ^ gen->state_lo;
    r = (unsigned)(gen->state_hi >> 58);
    return (x >> r) | (x << ((64 - r) & 63));
}

/* numpy's pcg64_next32: the low half of a 64-bit draw, then its high half. */
static uint32_t next32(void *st)
{
    gw_pcg64 *gen = st;
    uint64_t x;

    if (gen->has_uint32) {
        gen->has_uint32 = 0;
        return (uint32_t)gen->uinteger;
    }
    x = next64(gen);
    gen->has_uint32 = 1;
    gen->uinteger = x >> 32;
    return (uint32_t)x;
}

static double next_double(void *st)
{
    return (double)(next64(st) >> 11) * TWO_NEG53;
}

/* numpy's bit generator interface (bitgen_t of numpy/random/bitgen.h) and
 * five of numpy's distributions, linked from its static libnpyrandom.a. They
 * are declared by hand, as is binomial_t, the binomial's cache that
 * random_multinomial writes: numpy's distributions.h includes Python.h.
 * numpy's npy_intp is a pointer-sized signed integer. */
struct bitgen {
    void *state;
    uint64_t (*next_uint64)(void *st);
    uint32_t (*next_uint32)(void *st);
    double (*next_double)(void *st);
    uint64_t (*next_raw)(void *st);
};

typedef struct {
    int has_binomial;
    double psave;
    int64_t nsave;
    double r, q, fm;
    int64_t m;
    double p1, xm, xl, xr, c, laml, lamr, p2, p3, p4;
} binomial_t;

double random_standard_gamma(struct bitgen *bitgen_state, double shape);
int64_t random_poisson(struct bitgen *bitgen_state, double lam);
void random_standard_uniform_fill(struct bitgen *bitgen_state, intptr_t cnt, double *out);
void random_bounded_uint64_fill(struct bitgen *bitgen_state, uint64_t off, uint64_t rng,
                                intptr_t cnt, bool use_masked, uint64_t *out);
void random_multinomial(struct bitgen *bitgen_state, int64_t n, int64_t *mnix, double *pix,
                        intptr_t d, binomial_t *binomial);

/* numpy's bit generator over the caller's generator gen */
#define BITGEN(gen) ((struct bitgen){(gen), next64, next32, next_double, next64})

/* n draws on [off, off + range] (range 2^64 - 1: every uint64), as
 * Generator.integers draws them: numpy's fill with Lemire's rejection
 * (use_masked false), which for a range below 2^32 draws 32 bits at a time. */
void gw_integers(gw_pcg64 *gen, uint64_t off, uint64_t range, int64_t n, uint64_t *out)
{
    struct bitgen bg = BITGEN(gen);
    random_bounded_uint64_fill(&bg, off, range, (intptr_t)n, false, out);
}

/* n_rows multinomial draws of n trials over the d probabilities pvals, as
 * Generator.multinomial(n, pvals, size=n_rows) draws them: row by row into
 * the zeroed n_rows x d array out. numpy's binomial cache holds values
 * computed from (n, p) alone, so one zeroed cache per call draws what the
 * Generator's long-lived one does. */
void gw_multinomial(gw_pcg64 *gen, int64_t n, double *pvals, int64_t d, int64_t n_rows,
                    int64_t *out)
{
    struct bitgen bg = BITGEN(gen);
    binomial_t cache = {0};
    int64_t r;

    for (r = 0; r < n_rows; r++)
        random_multinomial(&bg, n, out + r * d, pvals, (intptr_t)d, &cache);
}

/* One node of a count tree: its batch row, its parent's place among its
 * row's nodes (-1 at the root), its edge count N >= 1 and its environment
 * key. */
typedef struct {
    int64_t row, parent, N;
    uint64_t key;
} gw_count;

/* An expanded node of the current generation: its index in the node list,
 * atom and gamma. */
typedef struct {
    int64_t i, atom;
    double g;
} gw_expand;

void gw_free_counts(gw_count *node)
{
    free(node);
}

/* The edge-count trees of n_rows excursions, one row after another, each
 * on its own generator: row r draws on numpy's PCG64 in the state
 * (mix64(w ^ STREAM_SALT_HI), mix64(w ^ STREAM_SALT_LO)) as high and low
 * words, with the increment STREAM_INC, for its walk seed w. It grows on
 * the keyed environment of its environment seed from a root with N its
 * root count. Row r's walk seed, environment seed, root count and budget
 * are walk_seeds[r * walk_stride], env_seeds[r * env_stride],
 * root_counts[r * root_stride] and budget[r * budget_stride] (stride 0:
 * one value for every row). Per generation of the row, one gamma draw with
 * shape N per expanded node, in node order, then one Poisson draw with rate
 * g * rate[atom * width + s] per (expanded node, child slot s < width), in
 * that order; the atoms x width table holds e^{-a_s}, 0 past the atom, and
 * numpy's Poisson returns 0 at rate 0 without a draw. Each count k > 0
 * makes a child with N = k, so a generation lists its children in draw
 * order. A node is expanded when it is the root, or prune is 0, or N >= 2,
 * and, with a budget, when its row's sum of N over the generations so far,
 * this one and the root included, is at most the row's budget. These are
 * the draws of tests/oracles.py's excursion_levels on one row and that
 * row's generator, in the same order, so a row depends on its own seeds,
 * root count and budget alone, and a budget only cuts it.
 * sums receives per row, over the non-root nodes, the sum of N, the number
 * of nodes and the number with N = 1, in three rows of n_rows values that
 * start `stride` values apart. With tree_out NULL the node list holds two
 * generations of one row at a time, and with prune a count-1 child, which
 * is never expanded, is counted in sums and not listed. Otherwise, on
 * GW_OK, *tree_out is the node list of every row in turn, each row's root
 * and then its generations, *n_out nodes long, and the caller frees it
 * with gw_free_counts. With ends, ends[r] receives row r's generator after
 * its last draw. GW_ELAM when a generation has a Poisson rate numpy's
 * Generator.poisson refuses (checked, as numpy checks it, after the
 * generation's gammas and before its first Poisson draw; ends then holds
 * that row's generator there); GW_ENOMEM when out of memory. */
int gw_counts(const double *atom_cum, int64_t n_atoms, const double *rate, int64_t width,
              const uint64_t *env_seeds, int64_t env_stride, const uint64_t *walk_seeds,
              int64_t walk_stride, const int64_t *root_counts, int64_t root_stride,
              const int64_t *budget, int64_t budget_stride, int prune, int64_t n_rows,
              int64_t *sums, int64_t stride, gw_count **tree_out, int64_t *n_out,
              gw_pcg64 *ends)
{
    /* numpy's POISSON_LAM_MAX (numpy/random/_common.pyx) */
    const double lam_max = (double)INT64_MAX - sqrt((double)INT64_MAX) * 10.0;
    int64_t cap = 1024, ex_cap = 1024, n = 0, base, lo, hi, m, i, j, r, s, k, total, nodes, ones;
    gw_count *node = malloc((size_t)cap * sizeof *node), *p;
    gw_expand *ex = malloc((size_t)ex_cap * sizeof *ex), *q;
    const double *lam;
    gw_pcg64 gen;
    struct bitgen bg = BITGEN(&gen);
    uint64_t w, key;
    int err = GW_ENOMEM;

    if (!node || !ex)
        goto fail;
    for (r = 0; r < n_rows; r++) {
        w = walk_seeds[r * walk_stride];
        gen = (gw_pcg64){mix64(w ^ STREAM_SALT_HI), mix64(w ^ STREAM_SALT_LO), STREAM_INC_HI,
                         STREAM_INC_LO, 0, 0};
        base = tree_out ? n : 0;
        if (!(p = grow_block(node, &cap, base + 1, sizeof *node)))
            goto fail;
        node = p;
        total = root_counts[r * root_stride];
        node[base] = (gw_count){r, -1, total, mix64(env_seeds[r * env_stride] ^ ROOT_SALT)};
        n = hi = base + 1;
        lo = base;
        nodes = ones = 0;
        while (lo < hi && (!budget || total <= budget[r * budget_stride])) {
            if (!(q = grow_block(ex, &ex_cap, hi - lo, sizeof *ex)))
                goto fail;
            ex = q;
            for (m = 0, i = lo; i < hi; i++)
                if (i == base || !prune || node[i].N >= 2)
                    ex[m++] = (gw_expand){i, atom_of(node[i].key, atom_cum, n_atoms),
                                          random_standard_gamma(&bg, (double)node[i].N)};
            for (j = 0; j < m; j++)
                for (lam = rate + ex[j].atom * width, s = 0; s < width; s++)
                    if (!(ex[j].g * lam[s] <= lam_max)) {
                        if (ends)
                            ends[r] = gen;
                        err = GW_ELAM;
                        goto fail;
                    }
            for (j = 0; j < m; j++) {
                i = ex[j].i;
                key = node[i].key;
                for (lam = rate + ex[j].atom * width, s = 0; s < width; s++) {
                    if (!(k = random_poisson(&bg, ex[j].g * lam[s])))
                        continue;
                    total += k;
                    nodes++;
                    ones += k == 1;
                    if (k == 1 && prune && !tree_out)
                        continue;
                    if (!(p = grow_block(node, &cap, n + 1, sizeof *node)))
                        goto fail;
                    node = p;
                    node[n++] = (gw_count){r, i - base, k, child_key(key, s)};
                }
            }
            if (!tree_out) {
                memmove(node, node + hi, (size_t)(n - hi) * sizeof *node);
                n -= hi;
                hi = 0;
            }
            lo = hi;
            hi = n;
        }
        sums[r] = total - root_counts[r * root_stride];
        sums[stride + r] = nodes;
        sums[2 * stride + r] = ones;
        if (ends)
            ends[r] = gen;
    }

    free(ex);
    if (tree_out) {
        *tree_out = node;
        *n_out = n;
    } else {
        free(node);
    }
    return GW_OK;

fail:
    free(ex);
    free(node);
    return err;
}

/* The exponents -S_j of the next `block` terms of n_rows discounted sums,
 * one path S of the size-biased spine walk per row. Row r is path
 * rows[r], at S[rows[r]]; out (n_rows x block) receives its next block
 * -(t_j + S), where t_j is the running sum of the block's increments, and
 * S[rows[r]] becomes t_last + S. Each row is first filled with uniforms by
 * numpy's random_standard_uniform_fill on the caller's generator gen, rows
 * in order, as Generator.random(out=) fills the whole slice; a uniform u
 * takes the value of run number count_le(u, thresholds, n_thresholds) of
 * run_vals, a threshold being the cumulative probability at a run's last
 * value. These are the sums of gwalk.env.discounted_sums_batch's numpy
 * passes (draw, compare, take, cumsum, add, negate): the same operations in
 * the same order, so the same bits; the exp and the row sum stay there. t
 * starts at 0.0 where numpy's cumsum starts at the first increment, which
 * can change only the sign of a zero t, and adding S, never -0.0, erases
 * that sign. */
void gw_discount(gw_pcg64 *gen, const double *thresholds, int64_t n_thresholds,
                 const double *run_vals, const int64_t *rows, int64_t n_rows, int64_t block,
                 double *S, double *out)
{
    struct bitgen bg = BITGEN(gen);
    int64_t r, j;
    double s, t, *o;

    for (r = 0; r < n_rows; r++) {
        o = out + r * block;
        random_standard_uniform_fill(&bg, (intptr_t)block, o);
        s = S[rows[r]];
        for (t = 0.0, j = 0; j < block; j++) {
            t += run_vals[count_le(o[j], thresholds, n_thresholds)];
            o[j] = -(t + s);
        }
        S[rows[r]] = t + s;
    }
}
