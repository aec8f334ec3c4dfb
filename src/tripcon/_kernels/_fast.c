/*
 * Compiled enumeration kernel: the C99 twin of tripcon._kernels.pure.
 *
 * Same recursion, same emission order and same work-counter arithmetic
 * as the pure kernel (the cross-backend tests pin all three).  Every
 * per-tree structure lives in flat int arrays and is rebuilt here rather
 * than imported from the Python modules, so the hot path never leaves C.
 * As in tripcon.tree, a node's id is its post-order number: side_finish
 * numbers every tree it is given, the input lists in any numbering and
 * each sweep's in-order output alike, so ancestry is an id interval and
 * an LCA one range minimum over the depths.
 * See tripcon.enumeration for the algorithm and the counter contract.
 * As in the pure kernel, one routine serves each layer on both trees and
 * both sides: sweep() builds every induced subtree, a child pair's
 * restriction (side_from_leaflist) and ListSubtreeConflicts' T|(Z + c)
 * (lsc) alike, from host depths numbered in order, and split() cuts one
 * side of one pair in the partition.
 *
 * Ownership.  A recursion context (a tree pair with its derived arrays,
 * range-minimum tables and leaf-set-equivalence map) is one malloc'ed
 * block whose layout follows from the two node counts alone.  Frames on
 * the stack point to their context and each holds one reference, which
 * is dropped once the popped frame has been processed; the context is
 * freed when its count reaches zero.  A frame that only descends pushes
 * its larger child pair first, so the smaller one runs while the larger
 * keeps the context alive, and every context built meanwhile has at most
 * half its leaves: counting needs O(n) memory.  Pending frames have
 * disjoint leaf sets, so the frame stack never holds more frames than
 * the input has leaves.  The leaf sets of all frames opened form a
 * laminar family of distinct taxon sets, so a run opens at most 2n - 1
 * frames, the node count m of either input.  The run's scratch (m d_r
 * slots, output chunk, taxon maps, partition buffers, the sweep's arrays
 * and the frame stack) is a second block, sized from the universe and
 * the input lengths.
 *
 * Output.  Without a sink, triples are only counted.  With a sink, they
 * are written to a TRI_CHUNK buffer of 4,096 triples, and each full
 * buffer is handed to the sink as a fresh array('i'): counting needs O(n)
 * memory and streaming O(n + chunk).  An exception raised by the sink
 * ends the run through the error path, which releases every pending
 * frame and context.  Each frame's d_r is written once, into its slot of
 * the block, and the returned array('q') is built after the last frame.
 * join_triples turns one such chunk (every chunk is an array('i'),
 * whichever kernel or sort made it) into the text of its lines for
 * tripcon.cli's one chunk writer, which packs its three label tables into
 * one str and an array('q') of offsets: a first pass checks each id and
 * its piece and sums the lengths, a second copies each piece with one
 * memcpy of the text's kind.  tripcon.cli._join is its Python twin.
 *
 * Node ids and leaf counts are C ints; every count of triples, frames,
 * steps or violations (including each frame's d_r) is a long long.
 *
 * Build with any C99 compiler against the Python headers, e.g.
 *
 *     cc -O3 -shared -fPIC -I<python include dir> _fast.c -o _fast<EXT_SUFFIX>
 *
 * which tripcon._kernels does on import, once per sha256 of this file.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <limits.h>
#include <stdlib.h>
#include <string.h>

/* Ids buffered before they are handed to the sink: 4,096 triples. */
#define TRI_CHUNK (3 * 4096)

static PyObject *array_type; /* array.array */

static void *xmalloc(size_t n)
{
    void *p = malloc(n ? n : 1);
    if (p == NULL)
        PyErr_NoMemory();
    return p;
}

/* n ints at offset *used of base, which is NULL when only measuring. */
static int *take(int *base, size_t *used, size_t n)
{
    int *p = base ? base + *used : NULL;
    *used += n;
    return p;
}

/* ====================================================================== */
/* Per-tree structure: arena numbered in post-order + range minimum       */
/* ====================================================================== */

/* Node ids are post-order numbers: children come before their parent, the
   root is m - 1 and the subtree of v is the ids (v - 2 lc[v] + 1, v].  For
   u < v, lca(u, v) is the parent of a shallowest node in [u, v), so an
   LCA is one range minimum over depth.  The range minimum cuts depth into
   blocks of 32 ids.  mask[i] has bit j % 32 set, for each j <= i in i's
   block, iff depth[j] is below every depth in (j, i], so its lowest set
   bit at or after l is the minimum of [l, i].  st is a sparse table over
   the block minima: st[k * nb + b] is the minimum position over blocks
   b .. b + 2^k - 1, and lg[x] is floor(log2 x). */
typedef struct {
    int *left, *right, *taxon;                 /* arena, -1 = none */
    int *lc, *lb, *depth, *parent, *leaves;    /* derived */
    int *lg, *st;                              /* range minimum */
    unsigned *mask;
    int m, nl, nb;
} Side;

#if UINT_MAX < 0xFFFFFFFF
#error "the range-minimum masks need an unsigned int of 32 bits or more"
#endif

/* Size s for an m-node tree and point its arrays into base, or only
   measure when base is NULL; returns the number of ints they take. */
static size_t side_layout(Side *s, int m, int *base)
{
    size_t used = 0;
    int levels = 0, t;

    s->m = m;
    s->nl = (m + 1) / 2;
    s->nb = (m + 31) / 32;
    for (t = s->nb; t; t >>= 1)
        levels++;

    s->left = take(base, &used, m);
    s->right = take(base, &used, m);
    s->taxon = take(base, &used, m);
    s->lc = take(base, &used, m);
    s->lb = take(base, &used, m);
    s->depth = take(base, &used, m);
    s->parent = take(base, &used, m);
    s->leaves = take(base, &used, s->nl);
    s->mask = (unsigned *)take(base, &used, m);
    s->lg = take(base, &used, (size_t)s->nb + 1);
    s->st = take(base, &used, (size_t)levels * s->nb);
    return used;
}

/* Index of the lowest set bit of x != 0, by de Bruijn multiplication. */
static inline int lowbit(unsigned x)
{
    static const int pos[32] = {
        0, 1, 28, 2, 29, 14, 24, 3, 30, 22, 20, 15, 25, 17, 4, 8,
        31, 27, 13, 23, 21, 19, 16, 7, 26, 12, 18, 6, 11, 5, 10, 9};
    return pos[(((x & (0u - x)) * 0x077CB531u) & 0xFFFFFFFFu) >> 27];
}

static void rmq_build(Side *s)
{
    const int *d = s->depth;
    int m = s->m, nb = s->nb;
    int stk[32];
    int b, i, end, sp, k, a, c, width;
    unsigned cur;

    for (b = 0; b < nb; b++) {
        end = 32 * b + 32 < m ? 32 * b + 32 : m;
        sp = 0;
        cur = 0;
        for (i = 32 * b; i < end; i++) {
            while (sp && d[stk[sp - 1]] >= d[i])
                cur &= ~(1u << (stk[--sp] & 31));
            stk[sp++] = i;
            cur |= 1u << (i & 31);
            s->mask[i] = cur;
        }
        s->st[b] = stk[0];
    }

    s->lg[1] = 0;
    for (i = 2; i <= nb; i++)
        s->lg[i] = s->lg[i >> 1] + 1;
    for (k = 1; (1 << k) <= nb; k++) {
        width = nb - (1 << k) + 1;
        for (i = 0; i < width; i++) {
            a = s->st[(k - 1) * nb + i];
            c = s->st[(k - 1) * nb + i + (1 << (k - 1))];
            s->st[k * nb + i] = d[a] <= d[c] ? a : c;
        }
    }
}

/* Position of a minimum of depth[l .. r], l <= r. */
static inline int rmq(const Side *s, int l, int r)
{
    const int *d = s->depth;
    int best, p, lo, hi, k;

    if (l >> 5 == r >> 5)
        return l + lowbit(s->mask[r] >> (l & 31));
    best = l + lowbit(s->mask[l | 31] >> (l & 31));
    p = (r & ~31) + lowbit(s->mask[r]);
    if (d[p] < d[best])
        best = p;
    lo = (l >> 5) + 1; /* the whole blocks between */
    hi = r >> 5;
    if (lo < hi) {
        k = s->lg[hi - lo];
        p = s->st[k * s->nb + lo];
        if (d[p] < d[best])
            best = p;
        p = s->st[k * s->nb + hi - (1 << k)];
        if (d[p] < d[best])
            best = p;
    }
    return best;
}

static inline int lca(const Side *s, int u, int v)
{
    if (u == v)
        return u;
    return u < v ? s->parent[rmq(s, u, v - 1)] : s->parent[rmq(s, v, u - 1)];
}

static inline int is_below(const Side *s, int anc, int node)
{
    return anc - (2 * s->lc[anc] - 1) < node && node <= anc;
}

/* Number the tree given by a source arena (left, right and taxon in any
   numbering, rooted at root) in post-order into s, derive the rest and
   build the range minimum, with stk (2m + 4 ints) as the traversal stack.
   The traversal rejects a source that is not a full binary tree: a node
   reached twice, a node with one child, or nodes the root does not reach.
   With tleaf, a taxon -> leaf map holding -1 for every taxon not seen yet,
   it also rejects a leaf without a taxon or with a repeated one, and fills
   the map.  Errors name the source's ids.  Each node is entered once, so
   the stack holds at most 2m + 1 items. */
static int side_finish(Side *s, const int *left, const int *right,
                       const int *taxon, int root, int *stk, int *tleaf)
{
    int m = s->m;
    int *seen = s->depth; /* by source id, until the depths are derived */
    int sp = 1, k = 0, nleaf = 0;
    int v, l, r, t;
    const char *why;

    memset(seen, 0, (size_t)m * sizeof(int));
    stk[0] = root;
    while (sp) {
        v = stk[--sp];
        if (v < 0) {
            /* complete an internal node: its right subtree was numbered
               just before it, and its left one right before that */
            r = k - 1;
            l = k - 2 * s->lc[r];
            s->left[k] = l;
            s->right[k] = r;
            s->taxon[k] = -1;
            s->parent[l] = s->parent[r] = k;
            s->lc[k] = s->lc[l] + s->lc[r];
            s->lb[k++] = s->lb[l];
            continue;
        }
        why = seen[v] ? "is reached twice"
              : (left[v] < 0) != (right[v] < 0) ? "has one child" : NULL;
        if (why != NULL) {
            PyErr_Format(PyExc_ValueError, "node %d %s", v, why);
            return -1;
        }
        seen[v] = 1;
        if (left[v] >= 0) {
            stk[sp] = -1;
            stk[sp + 1] = right[v];
            stk[sp + 2] = left[v];
            sp += 3;
            continue;
        }
        t = taxon[v];
        if (tleaf != NULL) {
            if (t < 0 || tleaf[t] >= 0) {
                PyErr_Format(PyExc_ValueError, "leaf %d has %s taxon", v,
                             t < 0 ? "no" : "a repeated");
                return -1;
            }
            tleaf[t] = k;
        }
        s->left[k] = s->right[k] = -1;
        s->taxon[k] = t;
        s->lc[k] = 1;
        s->lb[k] = nleaf;
        s->leaves[nleaf++] = k++;
    }
    if (k < m) {
        PyErr_Format(PyExc_ValueError,
                     "%d of %d nodes are not reached from the root", m - k, m);
        return -1;
    }
    s->parent[m - 1] = -1;
    s->depth[m - 1] = 0;
    for (v = m - 2; v >= 0; v--)
        s->depth[v] = s->depth[s->parent[v]] + 1;
    rmq_build(s);
    return 0;
}

/* Scratch of the induced-subtree sweep: its input dep and its output
   links and leaf ranges, each sized for the largest sweep of the run, and
   a stack that side_finish reuses.  side_finish also reads its source
   arenas from here: an input tree's lists in left, right and dep, or a
   sweep's left and right with its taxon row in dep. */
typedef struct {
    int *dep, *left, *right, *par, *first, *last, *stk;
} Sweep;

/* The induced subtree whose nodes, numbered in order, have host depths
   sw->dep[0 .. 2k - 2]: leaf j is node 2j and the LCA of leaves j - 1 and
   j is node 2j - 1.  Fills the child and parent links (-1 for none) and
   the leftmost and rightmost leaf index below each node, and returns the
   root.  One stack pass; the stack holds only internal nodes. */
static int sweep(Sweep *sw, int k)
{
    const int *dep = sw->dep;
    int *left = sw->left, *right = sw->right, *par = sw->par;
    int *first = sw->first, *last = sw->last, *stk = sw->stk;
    int v, top = 0, sp = 0, nxt;

    left[0] = right[0] = -1;
    first[0] = last[0] = 0;
    for (v = 1; v < 2 * k - 1; v += 2) {
        while (sp && dep[stk[sp - 1]] > dep[v]) {
            nxt = stk[--sp];
            right[nxt] = top;
            par[top] = nxt;
            last[nxt] = last[top];
            top = nxt;
        }
        left[v] = top;
        par[top] = v;
        first[v] = first[top];
        stk[sp++] = v;
        top = v + 1;
        left[top] = right[top] = -1;
        first[top] = last[top] = top >> 1;
    }
    while (sp) {
        nxt = stk[--sp];
        right[nxt] = top;
        par[top] = nxt;
        last[nxt] = last[top];
        top = nxt;
    }
    par[top] = -1;
    return top;
}

/* Host depths of T|z in order, z[j] at 2j and lca(z[j - 1], z[j]) at
   2j - 1, into dep; returns lca(z), the shallowest of them (k >= 2). */
static int inorder_depths(const Side *t, const int *z, int k, int *dep)
{
    int j, l, rz = z[0];

    dep[0] = t->depth[z[0]];
    for (j = 1; j < k; j++) {
        l = lca(t, z[j - 1], z[j]);
        dep[2 * j - 1] = t->depth[l];
        dep[2 * j] = t->depth[z[j]];
        if (t->depth[l] < t->depth[rz])
            rz = l;
    }
    return rz;
}

/* Fill s, laid out for 2k - 1 nodes, with the subtree of parent induced by
   k >= 2 ascending leaves z. */
static int side_from_leaflist(Side *s, const Side *parent, const int *z,
                              int k, Sweep *sw)
{
    int v, root;

    inorder_depths(parent, z, k, sw->dep);
    root = sweep(sw, k);
    /* the depths are spent, so dep takes the in-order taxon row */
    for (v = 0; v < s->m; v++)
        sw->dep[v] = v & 1 ? -1 : parent->taxon[z[v >> 1]];
    return side_finish(s, sw->left, sw->right, sw->dep, root, sw->stk, NULL);
}

/* Copy a list of ints, each in [lo, hi), into out. */
static int ints_from_list(int *out, PyObject *list, long lo, long hi,
                          const char *what)
{
    Py_ssize_t i, n = PyList_GET_SIZE(list);
    long v;

    for (i = 0; i < n; i++) {
        v = PyLong_AsLong(PyList_GET_ITEM(list, i));
        if (v == -1 && PyErr_Occurred())
            return -1;
        if (v < lo || v >= hi) {
            PyErr_Format(PyExc_ValueError, "%s[%zd] = %ld is out of range",
                         what, i, v);
            return -1;
        }
        out[i] = (int)v;
    }
    return 0;
}

/* The node count of a tree given as parallel lists; -1 if the lengths or
   the root do not fit. */
static int list_size(PyObject *left, PyObject *right, PyObject *taxon,
                     int root)
{
    Py_ssize_t m = PyList_GET_SIZE(left);

    /* side_finish's stack holds up to 2m + 1 items */
    if (m < 1 || m > INT_MAX / 2 || PyList_GET_SIZE(right) != m
        || PyList_GET_SIZE(taxon) != m || root < 0 || root >= m) {
        PyErr_SetString(PyExc_ValueError,
                        "left, right and taxon must have one equal, non-zero "
                        "length and root must index into them");
        return -1;
    }
    return (int)m;
}

/* Fill s, laid out for the lists' length, from a tree given as parallel
   lists in any numbering, and map each of its taxa to its leaf in tleaf.
   Ids are range-checked and side_finish checks the shape and the taxa. */
static int side_from_lists(Side *s, PyObject *left, PyObject *right,
                           PyObject *taxon, int root, int universe,
                           Sweep *sw, int *tleaf)
{
    if (ints_from_list(sw->left, left, -1, s->m, "left") < 0
        || ints_from_list(sw->right, right, -1, s->m, "right") < 0
        || ints_from_list(sw->dep, taxon, -1, universe, "taxon") < 0)
        return -1;
    return side_finish(s, sw->left, sw->right, sw->dep, root, sw->stk, tleaf);
}

static void write_scratch(const Side *s, int *scratch)
{
    int r;
    for (r = 0; r < s->nl; r++)
        scratch[s->taxon[s->leaves[r]]] = s->leaves[r];
}

/* ====================================================================== */
/* A recursion context: tree pair and equivalence map in one block        */
/* ====================================================================== */

typedef struct {
    Side p, q;
    int *m;   /* leaf-set-equivalence map P -> Q */
    int refs; /* frames pending or being processed in this context */
} Ctx;

/* An unreferenced context for an mp-node P and an mq-node Q, with its
   arenas still to fill; NULL on failure. */
static Ctx *ctx_new(int mp, int mq)
{
    Side probe;
    size_t np = side_layout(&probe, mp, NULL);
    size_t nq = side_layout(&probe, mq, NULL);
    Ctx *c = xmalloc(sizeof *c + (np + nq + (size_t)mp) * sizeof(int));
    int *base;

    if (c == NULL)
        return NULL;
    base = (int *)(c + 1);
    side_layout(&c->p, mp, base);
    side_layout(&c->q, mq, base + np);
    c->m = base + np + nq;
    c->refs = 0;
    return c;
}

static void ctx_release(Ctx *c)
{
    if (--c->refs == 0)
        free(c);
}

/* Fill the equivalence map; qleaf maps each taxon of Q to its leaf. */
static void ctx_map(Ctx *c, const int *qleaf)
{
    const Side *p = &c->p;
    int v;

    for (v = 0; v < p->m; v++) {
        if (p->left[v] < 0)
            c->m[v] = qleaf[p->taxon[v]];
        else
            c->m[v] = lca(&c->q, c->m[p->left[v]], c->m[p->right[v]]);
    }
}

/* ====================================================================== */
/* The run                                                                */
/* ====================================================================== */

typedef struct {
    Ctx *ctx;
    int rp, rq;
} Frame;

typedef struct {
    long long work, frames, violations, emitted;
    /* chunks of flat triples go to sink (NULL when counting) */
    PyObject *sink;
    /* the rest is one block: dr, the int arrays, then fs */
    long long *dr; /* d_r of the i-th frame opened, one slot per node */
    int *tri;
    int ntri;
    /* pending frames, at most one per input leaf */
    Frame *fs;
    int nfs;
    /* universe-sized taxon -> current leaf scratch */
    int *pleaf, *qleaf;
    /* partition buffers, each of size u */
    int *part[8];
    /* LSC's Z data: in-order depths of T|Z and taxa */
    int *zdep, *ztax;
    /* the induced-subtree sweeps of LSC and restriction */
    Sweep sw;
} Run;

/* Point the run's int scratch into base (NULL to only measure) for
   universe u and sweeps of w items; returns the number of ints taken. */
static size_t run_layout(Run *run, size_t u, size_t w, int *base)
{
    size_t used = 0;
    int i;

    run->tri = take(base, &used, TRI_CHUNK);
    run->pleaf = take(base, &used, u);
    run->qleaf = take(base, &used, u);
    for (i = 0; i < 8; i++)
        run->part[i] = take(base, &used, u);
    run->zdep = take(base, &used, 2 * u);
    run->ztax = take(base, &used, u);
    run->sw.dep = take(base, &used, w);
    run->sw.left = take(base, &used, w);
    run->sw.right = take(base, &used, w);
    run->sw.par = take(base, &used, w);
    run->sw.first = take(base, &used, w);
    run->sw.last = take(base, &used, w);
    run->sw.stk = take(base, &used, w);
    return used;
}

/* m is the larger input tree's node count; it bounds the frames opened
   and pending and, with the universe, every sweep. */
static int run_init(Run *run, int universe, int m)
{
    size_t u = universe > 0 ? (size_t)universe : 1;
    size_t w = 2 * ((size_t)m > u ? (size_t)m : u) + 6;
    size_t nfs = ((size_t)m + 1) / 2;
    size_t ints = run_layout(run, u, w, NULL);

    /* the frames go last, where an overrun leaves the block; an even
       number of ints keeps them aligned */
    ints += ints & 1;
    run->dr = xmalloc((size_t)m * sizeof(long long) + ints * sizeof(int)
                      + nfs * sizeof(Frame));
    if (run->dr == NULL)
        return -1;
    run_layout(run, u, w, (int *)(run->dr + m));
    run->fs = (Frame *)((int *)(run->dr + m) + ints);
    memset(run->pleaf, -1, u * sizeof(int));
    memset(run->qleaf, -1, u * sizeof(int));
    return 0;
}

static void run_free(Run *run)
{
    while (run->nfs)
        ctx_release(run->fs[--run->nfs].ctx);
    free(run->dr);
}

/* Hand the buffered triples to the sink as a fresh array('i'). */
static int flush_triples(Run *run)
{
    PyObject *chunk, *res;

    if (run->ntri == 0)
        return 0;
    chunk = PyObject_CallFunction(array_type, "sy#", "i", (const char *)run->tri,
                                  run->ntri * (Py_ssize_t)sizeof(int));
    if (chunk == NULL)
        return -1;
    res = PyObject_CallOneArg(run->sink, chunk);
    Py_DECREF(chunk);
    if (res == NULL)
        return -1;
    Py_DECREF(res);
    run->ntri = 0;
    return 0;
}

static void push_frame(Run *run, Ctx *c, int rp, int rq)
{
    Frame *f = &run->fs[run->nfs++];
    f->ctx = c;
    f->rp = rp;
    f->rq = rq;
    c->refs++;
}

/* Buffer the canonical (ascending) form of taxa {a, b, c}; sink runs only. */
static int emit(Run *run, int a, int b, int c)
{
    int t;
    if (a > b) {
        t = a;
        a = b;
        b = t;
    }
    if (b > c) {
        t = b;
        b = c;
        c = t;
        if (a > b) {
            t = a;
            a = b;
            b = t;
        }
    }
    run->emitted++;
    if (run->ntri == TRI_CHUNK && flush_triples(run) < 0)
        return -1;
    run->tri[run->ntri] = a;
    run->tri[run->ntri + 1] = b;
    run->tri[run->ntri + 2] = c;
    run->ntri += 3;
    return 0;
}

/* ---------------------------------------------------------------------- */
/* ListSubtreeConflicts: triples abc with a, b in Z, c a candidate, and   */
/* lca(a, b) = lca(a, b, c).  O(1) skip test per candidate; each survivor */
/* repays its O(|Z|) restriction with >= |Z|-1 emissions.                 */
/* ---------------------------------------------------------------------- */
static int lsc(Run *run, const Side *t, const int *z, int k,
               const int *cand, int nc)
{
    int i, rz, lo, pos, ci, c, ctax, n;
    int y, pr, ylo, yhi, slo, shi, ia, ib;
    int *zdep = run->zdep, *ztax = run->ztax;
    int *dep = run->sw.dep;
    const int *par = run->sw.par, *first = run->sw.first, *last = run->sw.last;

    if (k < 2 || nc == 0)
        return 0;
    rz = inorder_depths(t, z, k, zdep);
    for (i = 0; i < k; i++)
        ztax[i] = t->taxon[z[i]];
    run->work += k;

    lo = rz - (2 * t->lc[rz] - 1);

    pos = 0;
    for (ci = 0; ci < nc; ci++) {
        c = cand[ci];
        while (pos < k && z[pos] < c)
            pos++;
        run->work += 1;
        if (!(lo < c && c <= rz))
            continue;

        /* T|(Z + c): c is merged leaf pos, which replaces the LCA entry
           between z[pos - 1] and z[pos] with lca(z[pos - 1], c), c and
           lca(c, z[pos]). */
        run->work += k + 1;
        ctax = t->taxon[c];
        n = 0;
        if (pos > 0) {
            n = 2 * pos - 1;
            memcpy(dep, zdep, (size_t)n * sizeof(int));
            dep[n++] = t->depth[lca(t, z[pos - 1], c)];
        }
        dep[n++] = t->depth[c];
        if (pos < k) {
            dep[n++] = t->depth[lca(t, c, z[pos])];
            memcpy(dep + n, zdep + 2 * pos,
                   (size_t)(2 * (k - pos) - 1) * sizeof(int));
        }
        sweep(&run->sw, k + 1);

        /* Walk from c's parent to the root; emit (below y) x (sibling).  A
           merged leaf range [a, b] holding c covers Z leaves z[a .. b-1];
           one left of c covers z[a .. b], one right of c z[a-1 .. b-1]. */
        for (y = par[2 * pos]; (pr = par[y]) >= 0; y = pr) {
            run->work += 1;
            ylo = first[y];
            yhi = last[y];
            if (first[pr] < ylo) {
                slo = first[pr];
                shi = ylo;
            } else {
                slo = yhi;
                shi = last[pr];
            }
            if (run->sink == NULL) {
                run->emitted += (long long)(yhi - ylo) * (shi - slo);
                continue;
            }
            for (ia = ylo; ia < yhi; ia++)
                for (ib = slo; ib < shi; ib++)
                    if (emit(run, ztax[ia], ztax[ib], ctax) < 0)
                        return -1;
        }
    }
    return 0;
}

/* Child order: com(u) pair, com(v) pair, unc(u_p,u_q) = unc(v_q,v_p),
   unc(v_p,v_q) = unc(u_q,u_p); the buffer layout per pair is
   [com_p, unc_p, com_q, unc_q]. */
static const int SPEC_Z[4] = {0, 4, 1, 5};
static const int SPEC_ZQ[4] = {2, 6, 7, 3};

/* Split the leaves below x in s, in ascending order, into out[0], those
   whose taxon lies below y in o (oleaf maps each taxon to its leaf in o),
   and out[1], the rest; n[0] and n[1] receive their lengths. */
static void split(const Side *s, int x, const Side *o, int y,
                  const int *oleaf, int **out, int *n)
{
    int r, leaf, rest, end = s->lb[x] + s->lc[x];

    n[0] = n[1] = 0;
    for (r = s->lb[x]; r < end; r++) {
        leaf = s->leaves[r];
        rest = !is_below(o, y, oleaf[s->taxon[leaf]]);
        out[rest][n[rest]++] = leaf;
    }
}

/* Process one popped frame and push the frames that follow it; returns
   the frame's d_r, or -1 on error. */
static long long run_frame(Run *run, Ctx *ctx, int rp, int rq)
{
    int **bufs = run->part;
    int pn[8];
    int up, vp, uq, vq, tswap;
    int base, end, nz, i, pi, x_p, x_q, other_p;
    int ai, bi, cri, ta, tb;
    long long before, d_r;
    const Side *P = &ctx->p, *Q = &ctx->q;
    Ctx *child;

    run->work += 1;
    if (P->lc[rp] <= 1)
        return 0;

    up = P->left[rp];
    vp = P->right[rp];
    uq = Q->left[rq];
    vq = Q->right[rq];
    if (ctx->m[up] == vq && P->lc[up] == Q->lc[vq]) {
        tswap = uq;
        uq = vq;
        vq = tswap;
    }
    if (ctx->m[up] == uq && P->lc[up] == Q->lc[uq]) {
        /* the larger pair waits, so the smaller one runs first */
        if (P->lc[up] > P->lc[vp]) {
            push_frame(run, ctx, up, uq);
            push_frame(run, ctx, vp, vq);
        } else {
            push_frame(run, ctx, vp, vq);
            push_frame(run, ctx, up, uq);
        }
        return 0;
    }

    /* ---- partition both pairs ---------------------------------------- */
    for (pi = 0; pi < 2; pi++) {
        x_p = pi == 0 ? up : vp;
        x_q = pi == 0 ? uq : vq;
        split(P, x_p, Q, x_q, run->qleaf, bufs + 4 * pi, pn + 4 * pi);
        split(Q, x_q, P, x_p, run->pleaf, bufs + 4 * pi + 2, pn + 4 * pi + 2);
    }
    run->work += 2 * P->lc[rp];

    /* ---- conflicts touching the current roots ------------------------ */
    before = run->emitted;
    for (pi = 0; pi < 2; pi++) {
        other_p = pi == 0 ? vp : up;
        if (pn[4 * pi] && pn[4 * pi + 1] && run->sink == NULL) {
            run->emitted += (long long)pn[4 * pi] * pn[4 * pi + 1]
                            * P->lc[other_p];
        } else if (pn[4 * pi] && pn[4 * pi + 1]) {
            base = P->lb[other_p];
            end = base + P->lc[other_p];
            for (ai = 0; ai < pn[4 * pi]; ai++) {
                ta = P->taxon[bufs[4 * pi][ai]];
                for (bi = 0; bi < pn[4 * pi + 1]; bi++) {
                    tb = P->taxon[bufs[4 * pi + 1][bi]];
                    for (cri = base; cri < end; cri++)
                        if (emit(run, ta, tb, P->taxon[P->leaves[cri]]) < 0)
                            return -1;
                }
            }
        }
        if (lsc(run, P, bufs[4 * pi], pn[4 * pi],
                bufs[4 * pi + 1], pn[4 * pi + 1]) < 0
            || lsc(run, P, bufs[4 * pi + 1], pn[4 * pi + 1],
                   bufs[4 * pi], pn[4 * pi]) < 0
            || lsc(run, Q, bufs[4 * pi + 2], pn[4 * pi + 2],
                   bufs[4 * pi + 3], pn[4 * pi + 3]) < 0
            || lsc(run, Q, bufs[4 * pi + 3], pn[4 * pi + 3],
                   bufs[4 * pi + 2], pn[4 * pi + 2]) < 0)
            return -1;
    }
    d_r = run->emitted - before;
    run->work += d_r;
    if (P->lc[rp] > d_r + 2)
        run->violations += 1;

    /* ---- children, pushed last first so the first is processed first -- */
    for (i = 3; i >= 0; i--) {
        nz = pn[SPEC_Z[i]];
        if (nz < 3)
            continue;
        child = ctx_new(2 * nz - 1, 2 * nz - 1);
        if (child == NULL)
            return -1;
        if (side_from_leaflist(&child->p, P, bufs[SPEC_Z[i]], nz, &run->sw) < 0
            || side_from_leaflist(&child->q, Q, bufs[SPEC_ZQ[i]], nz,
                                  &run->sw) < 0) {
            free(child);
            return -1;
        }
        write_scratch(&child->p, run->pleaf);
        write_scratch(&child->q, run->qleaf);
        ctx_map(child, run->qleaf);
        run->work += 2 * nz;
        run->work += child->p.m + child->q.m;
        run->work += child->p.m + child->q.m;
        run->work += child->p.m;
        push_frame(run, child, child->p.m - 1, child->q.m - 1);
    }
    return d_r;
}

/* Pop and process frames until none is left, storing each frame's d_r;
   a popped frame's reference to its context is dropped once the frame
   has been processed. */
static int run_frames(Run *run)
{
    Frame f;
    long long d_r;

    while (run->nfs) {
        f = run->fs[--run->nfs];
        d_r = run_frame(run, f.ctx, f.rp, f.rq);
        ctx_release(f.ctx);
        if (d_r < 0)
            return -1;
        run->dr[run->frames++] = d_r;
    }
    return 0;
}

PyDoc_STRVAR(run_enumeration_doc,
"run_enumeration(p_left, p_right, p_taxon, p_root, q_left, q_right, q_taxon,\n"
"                q_root, universe, sink=None)\n"
"--\n"
"\n"
"Enumerate conflicts; same contract and output as the pure kernel.\n"
"\n"
"Returns ``(emitted, frames_opened, nodes_touched, budget_violations,\n"
"per_frame_dr)``, per_frame_dr an array('q') built after the last frame\n"
"from one d_r per frame opened, at most 2n - 1.  Without ``sink``, triples\n"
"are only counted, in O(n) memory.  With ``sink``, they go to ``sink``\n"
"in chunks of 4,096 (the last may hold fewer), each a fresh array('i')\n"
"of three ids per triple passed as soon as it fills, so listing needs\n"
"O(n + chunk) memory; an exception from ``sink`` ends the run and\n"
"propagates.  Raises ValueError unless both trees are full binary trees\n"
"whose leaves carry the same distinct taxa.");

static PyObject *run_enumeration(PyObject *module, PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"p_left", "p_right", "p_taxon", "p_root",
                             "q_left", "q_right", "q_taxon", "q_root",
                             "universe", "sink", NULL};
    PyObject *p_left, *p_right, *p_taxon, *q_left, *q_right, *q_taxon;
    PyObject *sink = Py_None, *dr, *result = NULL;
    int p_root, q_root, universe, mp, mq, r;
    Ctx *top = NULL;
    Side *P, *Q;
    Run run = {0};

    (void)module;
    if (!PyArg_ParseTupleAndKeywords(
            args, kwargs, "O!O!O!iO!O!O!ii|O:run_enumeration", kwlist,
            &PyList_Type, &p_left, &PyList_Type, &p_right,
            &PyList_Type, &p_taxon, &p_root,
            &PyList_Type, &q_left, &PyList_Type, &q_right,
            &PyList_Type, &q_taxon, &q_root, &universe, &sink))
        return NULL;
    if (sink != Py_None && !PyCallable_Check(sink)) {
        PyErr_SetString(PyExc_TypeError, "sink must be callable or None");
        return NULL;
    }
    run.sink = sink == Py_None ? NULL : sink;

    if ((mp = list_size(p_left, p_right, p_taxon, p_root)) < 0
        || (mq = list_size(q_left, q_right, q_taxon, q_root)) < 0
        || run_init(&run, universe, mp > mq ? mp : mq) < 0
        || (top = ctx_new(mp, mq)) == NULL)
        goto done;
    /* run_free releases it on error */
    push_frame(&run, top, mp - 1, mq - 1);
    P = &top->p;
    Q = &top->q;
    if (side_from_lists(P, p_left, p_right, p_taxon, p_root, universe,
                        &run.sw, run.pleaf) < 0
        || side_from_lists(Q, q_left, q_right, q_taxon, q_root, universe,
                           &run.sw, run.qleaf) < 0)
        goto done;
    for (r = 0; r < P->nl && run.qleaf[P->taxon[P->leaves[r]]] >= 0; r++)
        ;
    if (r < P->nl || P->nl != Q->nl) {
        PyErr_SetString(PyExc_ValueError, "P and Q carry different leaf taxa");
        goto done;
    }
    ctx_map(top, run.qleaf);
    run.work += P->m + Q->m;
    run.work += P->m + Q->m;
    run.work += P->m;
    if (run_frames(&run) < 0 || flush_triples(&run) < 0)
        goto done;

    dr = PyObject_CallFunction(array_type, "sy#", "q", (const char *)run.dr,
                               run.frames * (Py_ssize_t)sizeof(long long));
    if (dr != NULL)
        result = Py_BuildValue("(LLLLN)", run.emitted, run.frames, run.work,
                               run.violations, dr);
done:
    run_free(&run);
    return result;
}

/* ====================================================================== */
/* Newick: one pass from text to the finalized arrays of tripcon.tree     */
/* ====================================================================== */

/* The parser completes nodes in post-order (a leaf when it is read, an
   internal node at its ')'), which is the numbering of tripcon.tree, so
   each node's row of NCOL ints is final when it is written; only parent
   is filled in later, at the parent's ')'.  Row r also holds
   leaves_post[r] in C_LEAF for r below the leaf count. */
enum { C_LEFT, C_RIGHT, C_TAXON, C_PARENT, C_LC, C_LB, C_DEPTH, C_LEAF,
       NCOL };

/* Room for row or group number at; capacities double. */
static int grow(int **buf, int *cap, int at, int width)
{
    int n = *cap ? *cap : 64;
    int *p;

    if (at < *cap)
        return 0;
    while (n <= at)
        n *= 2;
    p = realloc(*buf, (size_t)n * width * sizeof(int));
    if (p == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    *buf = p;
    *cap = n;
    return 0;
}

/* The ASCII characters that re's \s matches. */
static inline int is_space(Py_UCS4 c)
{
    return c == ' ' || (c >= '\t' && c <= '\r') || (c >= 0x1c && c <= 0x1f);
}

static inline int is_bare(Py_UCS4 c)
{
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
           || (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '|'
           || c == '-';
}

static inline int is_number(Py_UCS4 c)
{
    return (c >= '0' && c <= '9') || c == '+' || c == '-' || c == '.'
           || c == 'e' || c == 'E';
}

/* The position after the filler (whitespace and [...] comments) at i, or
   -1 at an unterminated comment or at a character outside ASCII, which
   re's \s and \d may match and which is left to the regex parser. */
static Py_ssize_t skip_filler(int kind, const void *data, Py_ssize_t n,
                              Py_ssize_t i)
{
    Py_UCS4 c;

    for (; i < n; i++) {
        c = PyUnicode_READ(kind, data, i);
        if (c == '[') {
            while (++i < n && PyUnicode_READ(kind, data, i) != ']')
                ;
            if (i == n)
                return -1;
        } else if (c >= 0x80) {
            return -1;
        } else if (!is_space(c)) {
            break;
        }
    }
    return i;
}

/* 1 if the n ASCII characters at i are a number float() accepts, else 0;
   -1 with MemoryError set. */
static int valid_length(int kind, const void *data, Py_ssize_t i,
                        Py_ssize_t n)
{
    char small[64], *buf = small, *end;
    Py_ssize_t j;
    int ok;

    if ((size_t)n >= sizeof small && (buf = PyMem_Malloc(n + 1)) == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    for (j = 0; j < n; j++)
        buf[j] = (char)PyUnicode_READ(kind, data, i + j);
    buf[n] = '\0';
    PyOS_string_to_double(buf, &end, NULL);
    ok = !PyErr_Occurred() && end == buf + n;
    PyErr_Clear();
    if (buf != small)
        PyMem_Free(buf);
    return ok;
}

/* The label text[s:e], with '' read as one quote when unescape is set. */
static PyObject *label_of(PyObject *text, Py_ssize_t s, Py_ssize_t e,
                          int unescape)
{
    PyObject *sub = PyUnicode_Substring(text, s, e), *one, *two, *out;

    if (sub == NULL || !unescape)
        return sub;
    one = PyUnicode_FromString("'");
    two = PyUnicode_FromString("''");
    out = one && two ? PyUnicode_Replace(sub, two, one, -1) : NULL;
    Py_XDECREF(one);
    Py_XDECREF(two);
    Py_DECREF(sub);
    return out;
}

/* The taxon id of a new leaf's label: with index NULL the next id, which
   interns the label into names and built; otherwise index[label], marked
   in seen.  -1 for a duplicate or unknown label, -2 on an exception. */
static int taxon_of(PyObject *label, PyObject *index, unsigned char *seen,
                    PyObject *names, PyObject *built)
{
    PyObject *id, *got;
    long t;
    int fresh;

    if (index == NULL) {
        id = PyLong_FromSsize_t(PyList_GET_SIZE(names));
        if (id == NULL)
            return -2;
        got = PyDict_SetDefault(built, label, id);
        fresh = got == id;
        Py_DECREF(id);
        if (got == NULL || (fresh && PyList_Append(names, label) < 0))
            return -2;
        return fresh ? (int)PyList_GET_SIZE(names) - 1 : -1;
    }
    got = PyDict_GetItemWithError(index, label);
    if (got == NULL)
        return PyErr_Occurred() ? -2 : -1;
    t = PyLong_AsLong(got);
    if (t == -1 && PyErr_Occurred())
        return -2;
    if (t < 0 || t >= PyDict_GET_SIZE(index) || seen[t])
        return -1;
    seen[t] = 1;
    return (int)t;
}

/* The ints of column col of the first n rows, as a list of new references
   to ints[1 + value]. */
static PyObject *column(PyObject *const *ints, const int *rows, int col,
                        int n)
{
    PyObject *list = PyList_New(n);
    int r;

    for (r = 0; list != NULL && r < n; r++)
        PyList_SET_ITEM(list, r, Py_NewRef(ints[1 + rows[r * NCOL + col]]));
    return list;
}

/* The result tuple of parse_newick for a parsed tree of m nodes and nl
   leaves; names and built are NULL when an index was given.  Every value
   lies in [-1, m] (a leaf count reaches m in a one-node tree), so the
   lists and the dict share one int object per value. */
static PyObject *parse_result(const int *rows, int m, int nl,
                              PyObject *names, PyObject *built)
{
    static const int cols[] = {C_LEFT, C_RIGHT, C_TAXON, C_PARENT, C_LC,
                               C_LB, C_DEPTH};
    PyObject *out, *lot, *v, **ints;
    int i, r, leaf;

    if ((ints = xmalloc(((size_t)m + 2) * sizeof *ints)) == NULL)
        return NULL;
    for (i = 0; i < m + 2; i++)
        if ((ints[i] = PyLong_FromLong(i - 1)) == NULL)
            break;
    out = i == m + 2 ? PyTuple_New(11) : NULL;
    if (out == NULL)
        goto done;
    for (r = 0; r < 7; r++) {
        if ((v = column(ints, rows, cols[r], m)) == NULL)
            goto fail;
        PyTuple_SET_ITEM(out, r, v);
    }
    if ((v = column(ints, rows, C_LEAF, nl)) == NULL)
        goto fail;
    PyTuple_SET_ITEM(out, 7, v);
    if ((lot = PyDict_New()) == NULL)
        goto fail;
    PyTuple_SET_ITEM(out, 8, lot);
    for (r = 0; r < nl; r++) {
        leaf = rows[r * NCOL + C_LEAF];
        if (PyDict_SetItem(lot, ints[1 + rows[leaf * NCOL + C_TAXON]],
                           ints[1 + leaf]) < 0)
            goto fail;
    }
    if (names == NULL) {
        PyTuple_SET_ITEM(out, 9, Py_NewRef(Py_None));
        PyTuple_SET_ITEM(out, 10, Py_NewRef(Py_None));
    } else if ((v = PyList_AsTuple(names)) == NULL) {
        goto fail;
    } else {
        PyTuple_SET_ITEM(out, 9, v);
        PyTuple_SET_ITEM(out, 10, Py_NewRef(built));
    }
    goto done;
fail:
    Py_CLEAR(out);
done:
    while (i > 0)
        Py_DECREF(ints[--i]);
    free(ints);
    return out;
}

PyDoc_STRVAR(parse_newick_doc,
"parse_newick(text, index)\n"
"--\n"
"\n"
"Parse one Newick statement and finalize its tree in one pass.\n"
"\n"
"Follows the token grammar of ``tripcon.newick``.  Returns ``(left,\n"
"right, taxon, parent, leaf_count, leaf_base, depth, leaves_post,\n"
"leaf_of_taxon, names, index)``: the slots of ``tripcon.tree.Tree`` in\n"
"post-order ids, and, when ``index`` is None, the names tuple and the\n"
"index dict of a new TaxonSet in leaf order (both None otherwise).  With\n"
"``index`` (a TaxonSet's label -> id dict), the leaves must carry its\n"
"labels exactly once each.\n"
"\n"
"Returns None, and does nothing else, on any syntax, non-binary or\n"
"empty-tree error, on a duplicate, unknown or missing label, and on any\n"
"character outside ASCII that is not in a quoted label or a comment: the\n"
"regex parser then reports the error or parses the text.");

static PyObject *parse_newick(PyObject *module, PyObject *args)
{
    PyObject *text, *index, *label, *names = NULL, *built = NULL;
    PyObject *result = NULL;
    int *rows = NULL, cap = 0; /* see C_LEFT */
    int *groups = NULL, gcap = 0; /* per open '(': its left child, or -1 */
    unsigned char *seen = NULL;
    const void *data;
    int kind, m = 0, nl = 0, ng = 0, last = -1, length_ok = 0, esc, t, lc;
    int *row;
    Py_ssize_t n, i = 0, s = 0, e = 0;
    Py_UCS4 c;

    (void)module;
    if (!PyArg_ParseTuple(args, "OO:parse_newick", &text, &index))
        return NULL;
    if (index != Py_None && !PyDict_Check(index)) {
        PyErr_SetString(PyExc_TypeError, "index must be a dict or None");
        return NULL;
    }
    /* node ids are ints, and there are at most as many nodes as characters */
    if (!PyUnicode_Check(text) || PyUnicode_GET_LENGTH(text) > INT_MAX / NCOL)
        Py_RETURN_NONE;
#if PY_VERSION_HEX < 0x030C0000
    if (PyUnicode_READY(text) < 0)
        return NULL;
#endif
    kind = PyUnicode_KIND(text);
    data = PyUnicode_DATA(text);
    n = PyUnicode_GET_LENGTH(text);
    if (index == Py_None) {
        index = NULL;
        if ((names = PyList_New(0)) == NULL || (built = PyDict_New()) == NULL)
            goto done;
    } else if ((seen = calloc(PyDict_GET_SIZE(index) + 1, 1)) == NULL) {
        PyErr_NoMemory();
        goto done;
    }

    /* length_ok: the token before was a label or a ')', which a branch
       length may follow */
    for (;;) {
        if ((i = skip_filler(kind, data, n, i)) < 0 || i == n)
            goto reject;
        c = PyUnicode_READ(kind, data, i);
        if (last < 0 && c == '(') {
            if (grow(&groups, &gcap, ng, 1) < 0)
                goto done;
            groups[ng++] = -1;
            i++;
        } else if (last < 0) { /* a leaf */
            s = i;
            esc = 0;
            if (is_bare(c)) {
                while (++i < n && is_bare(PyUnicode_READ(kind, data, i)))
                    ;
                e = i;
            } else if (c == '\'') {
                /* ends at the last quote of the first run of an odd
                   number of quotes; each pair before it is one quote */
                for (i = s + 1;; i += 2) {
                    while (i < n && PyUnicode_READ(kind, data, i) != '\'')
                        i++;
                    if (i + 1 >= n || PyUnicode_READ(kind, data, i + 1) != '\'')
                        break;
                    esc = 1;
                }
                if (i >= n || i == s + 1)
                    goto reject; /* unterminated or empty */
                s++;
                e = i++;
            } else {
                goto reject;
            }
            if ((label = label_of(text, s, e, esc)) == NULL)
                goto done;
            t = taxon_of(label, index, seen, names, built);
            Py_DECREF(label);
            if (t == -2 || grow(&rows, &cap, m, NCOL) < 0)
                goto done;
            if (t < 0)
                goto reject;
            row = rows + (size_t)m * NCOL;
            row[C_LEFT] = row[C_RIGHT] = -1;
            row[C_TAXON] = t;
            row[C_LC] = 1;
            row[C_LB] = nl;
            row[C_DEPTH] = ng;
            rows[(size_t)nl++ * NCOL + C_LEAF] = m;
            last = m++;
            length_ok = 1;
        } else if (c == ',' && ng && groups[ng - 1] < 0) {
            groups[ng - 1] = last;
            last = -1;
            i++;
        } else if (c == ')' && ng && groups[ng - 1] >= 0) {
            if (grow(&rows, &cap, m, NCOL) < 0)
                goto done;
            lc = groups[--ng];
            row = rows + (size_t)m * NCOL;
            row[C_LEFT] = lc;
            row[C_RIGHT] = last;
            row[C_TAXON] = -1;
            rows[(size_t)lc * NCOL + C_PARENT] = m;
            rows[(size_t)last * NCOL + C_PARENT] = m;
            row[C_LC] = rows[(size_t)lc * NCOL + C_LC]
                        + rows[(size_t)last * NCOL + C_LC];
            row[C_LB] = rows[(size_t)lc * NCOL + C_LB];
            row[C_DEPTH] = ng;
            last = m++;
            i++;
            length_ok = 1;
        } else if (c == ':' && length_ok) {
            if ((i = skip_filler(kind, data, n, i + 1)) < 0)
                goto reject;
            for (s = i; i < n && is_number(PyUnicode_READ(kind, data, i)); i++)
                ;
            if (i == s || (t = valid_length(kind, data, s, i - s)) == 0)
                goto reject;
            if (t < 0)
                goto done;
            length_ok = 0;
        } else if (c == ';' && !ng) {
            break;
        } else {
            goto reject;
        }
    }
    if (skip_filler(kind, data, n, i + 1) != n
        || (index != NULL && nl != PyDict_GET_SIZE(index)))
        goto reject;
    rows[(size_t)(m - 1) * NCOL + C_PARENT] = -1;
    result = parse_result(rows, m, nl, names, built);
    goto done;
reject:
    result = Py_NewRef(Py_None);
done:
    free(rows);
    free(groups);
    free(seen);
    Py_XDECREF(names);
    Py_XDECREF(built);
    return result;
}

/* ====================================================================== */
/* Output: one chunk of flat taxon ids to the text of its lines           */
/* ====================================================================== */

PyDoc_STRVAR(join_triples_doc,
"join_triples(ids, text, offsets)\n"
"--\n"
"\n"
"The text of one chunk of flat taxon ids, three per triple.\n"
"\n"
"``text`` holds 3n pieces one after another, piece j being\n"
"``text[offsets[j]:offsets[j + 1]]``, and id k of the chunk is written\n"
"as piece ``(k % 3) * n + ids[k]``.  ``ids`` is an array('i') and\n"
"``offsets`` an array('q') of 3n + 1 entries; another type raises\n"
"TypeError and another length ValueError.  An id outside [0, n) raises\n"
"IndexError, and a piece whose offsets decrease or pass the end of\n"
"``text`` ValueError.  The twin of ``tripcon.cli._join``.");

/* The buffer of obj, which must be an array of the given typecode. */
static int take_array(PyObject *obj, const char *typecode, Py_buffer *view)
{
    if (PyObject_GetBuffer(obj, view, PyBUF_FORMAT | PyBUF_C_CONTIGUOUS) < 0)
        return -1;
    if (strcmp(view->format, typecode) == 0)
        return 0;
    PyBuffer_Release(view);
    PyErr_Format(PyExc_TypeError, "expected an array('%s')", typecode);
    return -1;
}

/* Two passes over the chunk: the first checks each id and the offsets of
   its piece and sums the lengths, the second copies the pieces, all of
   text's kind, into a scratch buffer.  PyUnicode_FromKindAndData narrows
   the result to its widest character, so that an ASCII chunk of a wider
   text is an ASCII str.  No Python code runs meanwhile, so the buffers
   cannot change. */
static PyObject *join_triples(PyObject *module, PyObject *args)
{
    PyObject *ids_obj, *text, *offsets_obj, *result = NULL;
    Py_buffer ids, offsets;
    const int *id;
    const long long *off, *piece;
    const char *src;
    char *buf = NULL, *at;
    Py_ssize_t nid, n, k, size, len = 0;
    size_t bytes;
    int kind;

    (void)module;
    if (!PyArg_ParseTuple(args, "OUO:join_triples", &ids_obj, &text,
                          &offsets_obj))
        return NULL;
#if PY_VERSION_HEX < 0x030C0000
    if (PyUnicode_READY(text) < 0)
        return NULL;
#endif
    if (take_array(ids_obj, "i", &ids) < 0)
        return NULL;
    if (take_array(offsets_obj, "q", &offsets) < 0) {
        PyBuffer_Release(&ids);
        return NULL;
    }
    id = ids.buf;
    nid = ids.len / (Py_ssize_t)sizeof(int);
    off = offsets.buf;
    n = offsets.len / (Py_ssize_t)sizeof(long long);
    if (n % 3 != 1) {
        PyErr_Format(PyExc_ValueError,
                     "offsets must hold 3n + 1 entries, not %zd", n);
        goto done;
    }
    n /= 3;
    size = PyUnicode_GET_LENGTH(text);
    kind = PyUnicode_KIND(text);
    src = PyUnicode_DATA(text);
    for (k = 0; k < nid; k++) {
        if ((size_t)(unsigned)id[k] >= (size_t)n) {
            PyErr_Format(PyExc_IndexError, "ids[%zd] = %d is out of range",
                         k, id[k]);
            goto done;
        }
        piece = off + k % 3 * n + id[k];
        if (piece[0] < 0 || piece[0] > piece[1] || piece[1] > size) {
            PyErr_Format(PyExc_ValueError, "ids[%zd] = %d is the piece "
                         "[%lld, %lld), not inside the %zd characters of "
                         "text", k, id[k], piece[0], piece[1], size);
            goto done;
        }
        if (piece[1] - piece[0] > PY_SSIZE_T_MAX / kind - len) {
            PyErr_NoMemory();
            goto done;
        }
        len += (Py_ssize_t)(piece[1] - piece[0]);
    }
    if ((buf = xmalloc((size_t)len * kind)) == NULL)
        goto done;
    at = buf;
    for (k = 0; k < nid; k++) {
        piece = off + k % 3 * n + id[k];
        bytes = (size_t)(piece[1] - piece[0]) * kind;
        memcpy(at, src + piece[0] * kind, bytes);
        at += bytes;
    }
    result = PyUnicode_FromKindAndData(kind, buf, len);
done:
    free(buf);
    PyBuffer_Release(&ids);
    PyBuffer_Release(&offsets);
    return result;
}

static PyMethodDef fast_methods[] = {
    {"run_enumeration", (PyCFunction)(void (*)(void))run_enumeration,
     METH_VARARGS | METH_KEYWORDS, run_enumeration_doc},
    {"parse_newick", parse_newick, METH_VARARGS, parse_newick_doc},
    {"join_triples", join_triples, METH_VARARGS, join_triples_doc},
    {NULL, NULL, 0, NULL},
};

PyDoc_STRVAR(fast_doc,
"Compiled enumeration kernel, Newick parser and chunk join.\n"
"\n"
"``run_enumeration`` is the twin of ``tripcon._kernels.pure``: same\n"
"recursion, same emission order, same work-counter arithmetic (the\n"
"cross-backend tests pin all three).  See ``tripcon.enumeration`` for\n"
"the algorithm and counter contract.  ``parse_newick`` parses and\n"
"finalizes a tree in one pass, and leaves every error to the regex\n"
"parser of ``tripcon.newick``.  ``join_triples`` writes one chunk of\n"
"ids as the text of its lines, from the label tables that\n"
"``tripcon.cli`` packs into one str and its offsets.");

static struct PyModuleDef fast_module = {
    PyModuleDef_HEAD_INIT, "_fast", fast_doc, -1, fast_methods,
    NULL, NULL, NULL, NULL,
};

PyMODINIT_FUNC PyInit__fast(void)
{
    PyObject *array_mod;

    if (array_type == NULL) {
        array_mod = PyImport_ImportModule("array");
        if (array_mod == NULL)
            return NULL;
        array_type = PyObject_GetAttrString(array_mod, "array");
        Py_DECREF(array_mod);
        if (array_type == NULL)
            return NULL;
    }
    return PyModule_Create(&fast_module);
}
