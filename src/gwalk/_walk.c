/* Plain-C walk kernel, the compiled twin of _pykernel.run_walk.
 *
 * Same arena, same RNG stream and the same comparisons in the same order as
 * the Python reference, so equal seeds give bit-identical output;
 * tests/test_kernel_parity.py checks this. See _pykernel.py for the walk's
 * contract. A step reads only the current node's atom: the caller passes the
 * step tables (LawTables.p_up and step_cum, computed once per law, or once
 * per explicit tree by _pykernel.explicit_tree, which also checks the tree),
 * so the kernel does no floating-point arithmetic beyond turning a hash into
 * a uniform, and stores no potential, so it walks the same at every depth.
 * The file holds no Python API and no global mutable state: gwalk.kernel
 * calls gw_walk through ctypes, which releases the GIL, so trials on several
 * threads run in parallel. gwalk.kernel restates gw_arena, gw_stats and the
 * parameters of gw_walk by hand; tests/test_kernel_layout.py checks that both
 * sides name the same fields in the same order.
 *
 * Build with `python setup.py build_ext --inplace`. Do not compile with
 * -ffast-math or -march=native.
 */

#include <stdint.h>
#include <stdlib.h>

/* splitmix64, as in _rng.py (the reference for these constants) */
#define GOLDEN 0x9E3779B97F4A7C15ULL
#define ROOT_SALT 0xD1B54A32D192ED03ULL
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
enum { GW_OK = 0, GW_ENOMEM = 1 };

/* The grown tree: seven 8-byte arrays, one entry per node (56 B per node);
 * nchild == -1 marks an ungrown node, whose atom is -1 until it is grown. */
typedef struct {
    int64_t n, cap;
    int64_t *parent, *nchild, *child0, *n_down, *n_up, *atom;
    uint64_t *key;
} gw_arena;

typedef struct {
    int64_t status, m, t_ex, L, R, pos, nsnap;
} gw_stats;

void gw_free(gw_arena *A)
{
    if (!A)
        return;
    free(A->parent); free(A->nchild); free(A->child0);
    free(A->n_down); free(A->n_up); free(A->atom); free(A->key);
    free(A);
}

/* Grow every array to hold `want` nodes, doubling the capacity. A failed
 * realloc leaves the old block in place, so gw_free still frees it. */
static int reserve(gw_arena *A, int64_t want)
{
    int64_t cap = A->cap;
    void *p;
    if (want <= cap)
        return GW_OK;
    while (cap < want)
        cap *= 2;
#define GROW(f)                                                   \
    if (!(p = realloc(A->f, (size_t)cap * sizeof *A->f)))         \
        return GW_ENOMEM;                                         \
    A->f = p;
    GROW(parent) GROW(nchild) GROW(child0) GROW(n_down)
    GROW(n_up) GROW(atom) GROW(key)
#undef GROW
    A->cap = cap;
    return GW_OK;
}

/* Write a node whose children are not grown yet. */
static void set_node(gw_arena *A, int64_t i, int64_t parent, uint64_t key)
{
    A->parent[i] = parent;
    A->key[i] = key;
    A->nchild[i] = -1;
    A->child0[i] = -1;
    A->atom[i] = -1;
    A->n_down[i] = 0;
    A->n_up[i] = 0;
}

/* Give ungrown node x its atom and children: its key alone decides both. */
static int grow(gw_arena *A, int64_t x, const double *atom_cum, const int64_t *atom_len)
{
    uint64_t kx = A->key[x];
    double u = (double)(kx >> 11) * TWO_NEG53;
    int64_t a = 0, k, j;
    while (u >= atom_cum[a])
        a++;
    k = atom_len[a];
    if (reserve(A, A->n + k))
        return GW_ENOMEM;
    A->atom[x] = a;
    A->nchild[x] = k;
    A->child0[x] = A->n;
    for (j = 0; j < k; j++)
        set_node(A, A->n + j, x, mix64(kx ^ ((uint64_t)(j + 2) * GOLDEN)));
    A->n += k;
    return GW_OK;
}

/* Record snapshot si; snap_out holds rows idx, tau, T, L, R of nsnap each. */
static inline void record(int64_t *snap_out, int64_t nsnap, int64_t si, int64_t idx,
                          int64_t m, int64_t t_ex, int64_t L, int64_t R)
{
    snap_out[si] = idx;
    snap_out[nsnap + si] = m;
    snap_out[2 * nsnap + si] = t_ex;
    snap_out[3 * nsnap + si] = L;
    snap_out[4 * nsnap + si] = R;
}

/* Run one walk. With n_explicit < 0 the tree grows lazily from the law tables
 * and env_seed. Otherwise it is the explicit tree of n_explicit nodes, as
 * _pykernel.explicit_tree returns it: node i is atom i of the tables and has
 * exp_parent[i] and exp_child0[i]; atom_cum is then unused.
 * Snapshots go to the caller's 5 x nsnap buffer snap_out. On GW_OK, *st
 * holds the scalars and *arena_out the grown tree, which the caller releases
 * with gw_free; out of memory, *arena_out is NULL. */
int gw_walk(const double *atom_cum, const int64_t *atom_off, const int64_t *atom_len,
            const double *p_up, const double *step_cum, int64_t n_explicit,
            const int64_t *exp_parent, const int64_t *exp_child0,
            uint64_t env_seed, uint64_t state, int mode, int64_t limit,
            const int64_t *snaps, int64_t nsnap, int64_t *snap_out, int64_t budget,
            gw_stats *st, gw_arena **arena_out)
{
    gw_arena *A = calloc(1, sizeof *A);
    int64_t pos = 0, m = 0, t_ex = 0, L = 0, R = 1, si = 0, x, k, a, j, dest, c, last;
    int status = STATUS_OK, err;
    double u;

    *arena_out = NULL;
    if (!A)
        return GW_ENOMEM;
    /* at least 1024 slots, so the arrays exist even for a one-node tree */
    A->cap = 1;
    if ((err = reserve(A, n_explicit > 1024 ? n_explicit : 1024)))
        goto fail;
    if (n_explicit >= 0) {
        for (A->n = n_explicit, x = 0; x < n_explicit; x++) {
            set_node(A, x, exp_parent[x], 0);
            A->nchild[x] = atom_len[x];
            A->child0[x] = exp_child0[x];
            A->atom[x] = x;
        }
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
            A->n_down[0]++;
            pos = 0;
            if (mode == MODE_CROSSINGS) {
                for (; si < nsnap && snaps[si] == L; si++)
                    record(snap_out, nsnap, si, L, m, t_ex, L, R);
                if (L >= limit)
                    break;
            }
            if (mode == MODE_STEPS) {
                for (; si < nsnap && snaps[si] == m; si++)
                    record(snap_out, nsnap, si, m, m, t_ex, L, R);
                if (m >= limit)
                    break;
            }
            continue;
        }

        x = pos;
        if (A->nchild[x] == -1 && (err = grow(A, x, atom_cum, atom_len)))
            goto fail;

        k = A->nchild[x];
        if (k == 0) {
            dest = A->parent[x];
        } else {
            state += GOLDEN;
            u = (double)(mix64(state) >> 11) * TWO_NEG53;
            a = A->atom[x];
            if (u < p_up[a]) {
                dest = A->parent[x];
            } else {
                c = A->child0[x];
                last = c + k - 1;
                for (j = atom_off[a]; c < last && u >= step_cum[j]; j++)
                    c++;
                dest = c;
            }
        }

        m++;
        t_ex++;
        if (dest == A->parent[x]) {
            A->n_up[x]++;
            if (dest == -1)
                L++;
        } else {
            if (A->n_down[dest] == 0)
                R++;
            A->n_down[dest]++;
        }
        pos = dest;

        if (mode == MODE_STEPS) {
            for (; si < nsnap && snaps[si] == m; si++)
                record(snap_out, nsnap, si, m, m, t_ex, L, R);
            if (m >= limit)
                break;
        }
    }

    *st = (gw_stats){status, m, t_ex, L, R, pos, si};
    *arena_out = A;
    return GW_OK;

fail:
    gw_free(A);
    return err;
}
