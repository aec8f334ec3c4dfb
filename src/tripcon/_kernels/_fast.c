/*
 * Compiled enumeration kernel: the C99 twin of tripcon._kernels.pure.
 *
 * Same recursion, same emission order and same work-counter arithmetic
 * as the pure kernel (the cross-backend tests pin all three).  Every
 * per-tree structure lives in flat int arrays and is rebuilt here rather
 * than imported from the Python modules, so the hot path never leaves C.
 * As in tripcon.tree, a node's id is its post-order number, so ancestry
 * is an id interval, an LCA one range minimum over the depths, and a
 * tree is its taxon column: internal node v (taxon -1) has children
 * v - 2 lc[v - 1] and v - 1.  side_finish derives every other array from
 * that column, with the checks and the messages of tripcon.tree's
 * finalizer, for the inputs and for every sweep's output, whose
 * completion order is post-order.  The inputs' taxon columns are
 * array('i'), read in place through take_array, the one buffer reader,
 * and released before the first frame.
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
 * its piece and sums the lengths, and a second, compiled once for each
 * kind of text, copies a piece of at most 16 bytes with one fixed 16-byte
 * memcpy when 16 bytes of text follow its start, and any other piece
 * exactly, into a buffer with 16 bytes of slack.  tripcon.cli._join is
 * its Python twin.
 *
 * Node ids and leaf counts are C ints; every count of triples, frames,
 * steps or violations (including each frame's d_r) is a long long.  Each
 * sum and product behind d, a d_r or nodes_touched is tested against
 * COUNT_MAX before it is made, by count_add, so that a count past 2^63 - 1
 * raises OverflowError instead of wrapping.
 *
 * parse_newick reads one Newick statement into a tree's taxon column,
 * the one input of both finalizers.  It interns the labels of a first
 * tree into a LabelTable, an open-addressing table of spans of the
 * tree's text, which the TaxonSet keeps, and looks up the labels of a
 * second tree in it by their code points: no label becomes a Python
 * object until a name is read.
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
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* Ids buffered before they are handed to the sink: 4,096 triples. */
#define TRI_CHUNK (3 * 4096)

/* The largest count a run keeps; a build may lower it to reach the
   overflow path with small trees.  The pure kernel raises the same
   message. */
#ifndef COUNT_MAX
#define COUNT_MAX LLONG_MAX
#endif
#define COUNT_OVERFLOW "more than 2^63 - 1 conflicts or steps"

static PyObject *array_type; /* array.array */

static void *xmalloc(size_t n)
{
    void *p = malloc(n ? n : 1);
    if (p == NULL)
        PyErr_NoMemory();
    return p;
}

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

/* *acc += a * b, for counts a, b >= 0 and *acc <= COUNT_MAX; -1 with
   OverflowError set, and *acc unchanged, if the product or the sum would
   pass COUNT_MAX. */
static inline int count_add(long long *acc, long long a, long long b)
{
    if (b != 0 && (a > COUNT_MAX / b || a * b > COUNT_MAX - *acc)) {
        PyErr_SetString(PyExc_OverflowError, COUNT_OVERFLOW);
        return -1;
    }
    *acc += a * b;
    return 0;
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
    int *taxon;                                /* arena, -1 = internal */
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

/* The left child of internal node v; its right child is v - 1. */
static inline int left_of(const Side *s, int v)
{
    return v - 2 * s->lc[v - 1];
}

/* Copy the taxon column (which may be s's own array) into s, derive the
   rest and build the range minimum.  One forward pass reads node v as a
   leaf (taxon >= 0) or as an internal node (taxon -1) that joins the two
   subtrees completed last before it, v - 2 lc[v - 1] >= 0 and v - 1, as
   tripcon.tree's finalizer does; the root m - 1 must then cover all m
   ids.  With tleaf, a map of the nt taxa to their leaves holding -1 for
   every taxon not seen yet, it also rejects a taxon below -1 or at or
   above nt and a repeated one, and fills the map. */
static int side_finish(Side *s, const int *taxon, int *tleaf, int nt)
{
    int m = s->m, nleaf = 0, v, l, t;

    for (v = 0; v < m; v++) {
        t = taxon[v];
        if (t < -1 || (tleaf != NULL && t >= nt)) {
            PyErr_Format(PyExc_ValueError, "taxon[%d] = %d is out of range",
                         v, t);
            return -1;
        } else if (t >= 0) {
            if (tleaf != NULL && tleaf[t] >= 0) {
                PyErr_Format(PyExc_ValueError, "leaf %d has a repeated taxon",
                             v);
                return -1;
            }
            if (tleaf != NULL)
                tleaf[t] = v;
            s->lc[v] = 1;
            s->lb[v] = nleaf;
            if (nleaf < s->nl) /* a forest may have more; it fails below */
                s->leaves[nleaf] = v;
            nleaf++;
        } else if (v == 0 || (l = left_of(s, v)) < 0) {
            PyErr_Format(PyExc_ValueError,
                         "internal node %d lacks two subtrees before it", v);
            return -1;
        } else {
            s->parent[l] = s->parent[v - 1] = v;
            s->lc[v] = s->lc[l] + s->lc[v - 1];
            s->lb[v] = s->lb[l];
        }
        s->taxon[v] = t;
    }
    if (2 * s->lc[m - 1] - 1 != m) {
        PyErr_Format(PyExc_ValueError, "%d of %d nodes are not below the root",
                     m - (2 * s->lc[m - 1] - 1), m);
        return -1;
    }
    s->parent[m - 1] = -1;
    s->depth[m - 1] = 0;
    for (v = m - 2; v >= 0; v--)
        s->depth[v] = s->depth[s->parent[v]] + 1;
    rmq_build(s);
    return 0;
}

/* Scratch of the induced-subtree sweep: its input dep, its output parent
   links, leaf ranges and completion order, and its stack, each sized for
   the largest sweep of the run. */
typedef struct {
    int *dep, *par, *first, *last, *ord, *stk;
} Sweep;

/* The induced subtree whose nodes, numbered in order, have host depths
   sw->dep[0 .. 2k - 2]: leaf j is node 2j and the LCA of leaves j - 1 and
   j is node 2j - 1.  Fills the parent links (-1 for the root; a left
   child comes before its parent in order, a right child after it), the
   leftmost and rightmost leaf index below each node, and ord, the nodes
   in the order the sweep completes them, which is post-order.  One stack
   pass; the stack holds only internal nodes. */
static void sweep(Sweep *sw, int k)
{
    const int *dep = sw->dep;
    int *par = sw->par, *first = sw->first, *last = sw->last;
    int *ord = sw->ord, *stk = sw->stk;
    int v, top = 0, sp = 0, n = 1, nxt;

    first[0] = last[0] = 0;
    ord[0] = 0;
    for (v = 1; v < 2 * k - 1; v += 2) {
        while (sp && dep[stk[sp - 1]] > dep[v]) {
            nxt = stk[--sp];
            par[top] = nxt;
            last[nxt] = last[top];
            ord[n++] = nxt;
            top = nxt;
        }
        par[top] = v;
        first[v] = first[top];
        stk[sp++] = v;
        top = v + 1;
        first[top] = last[top] = top >> 1;
        ord[n++] = top;
    }
    while (sp) {
        nxt = stk[--sp];
        par[top] = nxt;
        last[nxt] = last[top];
        ord[n++] = nxt;
        top = nxt;
    }
    par[top] = -1;
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
   k >= 2 ascending leaves z: its taxon column in the sweep's completion
   order, which is post-order. */
static int side_from_leaflist(Side *s, const Side *parent, const int *z,
                              int k, Sweep *sw)
{
    int i, x;

    inorder_depths(parent, z, k, sw->dep);
    sweep(sw, k);
    for (i = 0; i < s->m; i++) {
        x = sw->ord[i];
        s->taxon[i] = x & 1 ? -1 : parent->taxon[z[x >> 1]];
    }
    return side_finish(s, s->taxon, NULL, 0);
}

/* The node count of a tree given as a taxon column; -1 if its length does
   not fit. */
static int column_size(const Py_buffer *column)
{
    Py_ssize_t m = column->len / (Py_ssize_t)sizeof(int);

    if (m < 1) {
        PyErr_SetString(PyExc_ValueError, "the taxon column is empty");
        return -1;
    }
    /* with room for m + 31 in side_layout */
    if (m > INT_MAX / 2) {
        PyErr_SetString(PyExc_ValueError, "the taxon column is too long");
        return -1;
    }
    return (int)m;
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
        if (p->taxon[v] >= 0)
            c->m[v] = qleaf[p->taxon[v]];
        else
            c->m[v] = lca(&c->q, c->m[left_of(p, v)], c->m[v - 1]);
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
    run->sw.par = take(base, &used, w);
    run->sw.first = take(base, &used, w);
    run->sw.last = take(base, &used, w);
    run->sw.ord = take(base, &used, w);
    run->sw.stk = take(base, &used, w);
    return used;
}

/* m is the larger input tree's node count; it bounds the frames opened
   and pending.  A tree has at most as many leaves as the universe has
   taxa, so a sweep has at most 2u - 1 nodes. */
static int run_init(Run *run, int universe, int m)
{
    size_t u = universe > 0 ? (size_t)universe : 1;
    size_t w = 2 * u;
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
    if (count_add(&run->emitted, 1, 1) < 0
        || (run->ntri == TRI_CHUNK && flush_triples(run) < 0))
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
    long long steps; /* at most k + nc (2k + 3); added to work at the end */

    if (k < 2 || nc == 0)
        return 0;
    rz = inorder_depths(t, z, k, zdep);
    for (i = 0; i < k; i++)
        ztax[i] = t->taxon[z[i]];
    steps = k;

    lo = rz - (2 * t->lc[rz] - 1);

    pos = 0;
    for (ci = 0; ci < nc; ci++) {
        c = cand[ci];
        while (pos < k && z[pos] < c)
            pos++;
        steps += 1;
        if (!(lo < c && c <= rz))
            continue;

        /* T|(Z + c): c is merged leaf pos, which replaces the LCA entry
           between z[pos - 1] and z[pos] with lca(z[pos - 1], c), c and
           lca(c, z[pos]). */
        steps += k + 1;
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
            steps += 1;
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
                if (count_add(&run->emitted, yhi - ylo, shi - slo) < 0)
                    return -1;
                continue;
            }
            for (ia = ylo; ia < yhi; ia++)
                for (ib = slo; ib < shi; ib++)
                    if (emit(run, ztax[ia], ztax[ib], ctax) < 0)
                        return -1;
        }
    }
    return count_add(&run->work, steps, 1);
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

    if (count_add(&run->work, 1, 1) < 0)
        return -1;
    if (P->lc[rp] <= 1)
        return 0;

    up = left_of(P, rp);
    vp = rp - 1;
    uq = left_of(Q, rq);
    vq = rq - 1;
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
    if (count_add(&run->work, 2, P->lc[rp]) < 0)
        return -1;

    /* ---- conflicts touching the current roots ------------------------ */
    before = run->emitted;
    for (pi = 0; pi < 2; pi++) {
        other_p = pi == 0 ? vp : up;
        if (pn[4 * pi] && pn[4 * pi + 1] && run->sink == NULL) {
            if (count_add(&run->emitted, (long long)pn[4 * pi] * pn[4 * pi + 1],
                          P->lc[other_p]) < 0)
                return -1;
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
    if (count_add(&run->work, d_r, 1) < 0)
        return -1;
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
        push_frame(run, child, child->p.m - 1, child->q.m - 1);
        /* the sweeps, both finalizes, both LCA builds and the map */
        if (count_add(&run->work, 2LL * nz + 2LL * (child->p.m + child->q.m)
                                  + child->p.m, 1) < 0)
            return -1;
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

/* 0 if the frames' d_r sum to the triples emitted, else -1 with
   AssertionError set: the check that tripcon.enumeration makes of the
   pure kernel's d_r. */
static int check_dr_sum(const Run *run)
{
    unsigned long long sum = 0;
    long long f;

    for (f = 0; f < run->frames; f++)
        sum += (unsigned long long)run->dr[f];
    if (sum == (unsigned long long)run->emitted)
        return 0;
    PyErr_SetString(PyExc_AssertionError,
                    "per-frame d_r do not sum to the triples emitted");
    return -1;
}

PyDoc_STRVAR(run_enumeration_doc,
"run_enumeration(p_taxon, q_taxon, universe, sink=None)\n"
"--\n"
"\n"
"Enumerate conflicts; same contract and output as the pure kernel.\n"
"\n"
"Each tree is given as its taxon column in post-order, an array('i')\n"
"read as ``tripcon.tree.Tree._from_structure`` reads it, with the same\n"
"checks and messages but for those about taxa (another type raises\n"
"TypeError, a strided view BufferError).  Both are released before the\n"
"first frame.\n"
"\n"
"Returns ``(emitted, frames_opened, nodes_touched, budget_violations,\n"
"per_frame_dr)``, per_frame_dr an array('q') built after the last frame\n"
"from one d_r per frame opened, at most 2n - 1.  Without ``sink``, triples\n"
"are only counted, in O(n) memory.  With ``sink``, they go to ``sink``\n"
"in chunks of 4,096 (the last may hold fewer), each a fresh array('i')\n"
"of three ids per triple passed as soon as it fills, so listing needs\n"
"O(n + chunk) memory; an exception from ``sink`` ends the run and\n"
"propagates.  Raises ValueError unless both columns are full binary\n"
"trees whose leaves carry the same distinct taxa of [0, universe),\n"
"OverflowError when d or nodes_touched would pass 2^63 - 1, and\n"
"AssertionError when the d_r do not sum to d.");

static PyObject *run_enumeration(PyObject *module, PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"p_taxon", "q_taxon", "universe", "sink", NULL};
    PyObject *column[2]; /* the taxon columns of P and Q */
    Py_buffer view[2];
    PyObject *sink = Py_None, *dr, *result = NULL;
    int nview, universe, mp, mq, r;
    Ctx *top = NULL;
    Side *P, *Q;
    Run run = {0};

    (void)module;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "OOi|O:run_enumeration",
                                     kwlist, &column[0], &column[1],
                                     &universe, &sink))
        return NULL;
    if (sink != Py_None && !PyCallable_Check(sink)) {
        PyErr_SetString(PyExc_TypeError, "sink must be callable or None");
        return NULL;
    }
    run.sink = sink == Py_None ? NULL : sink;

    for (nview = 0; nview < 2; nview++)
        if (take_array(column[nview], "i", &view[nview]) < 0)
            goto done;
    if ((mp = column_size(&view[0])) < 0 || (mq = column_size(&view[1])) < 0
        || run_init(&run, universe, mp > mq ? mp : mq) < 0
        || (top = ctx_new(mp, mq)) == NULL)
        goto done;
    /* run_free releases it on error */
    push_frame(&run, top, mp - 1, mq - 1);
    P = &top->p;
    Q = &top->q;
    if (side_finish(P, view[0].buf, run.pleaf, universe) < 0
        || side_finish(Q, view[1].buf, run.qleaf, universe) < 0)
        goto done;
    /* both trees are copied; a sink may now change the input arrays */
    while (nview)
        PyBuffer_Release(&view[--nview]);
    for (r = 0; r < P->nl && run.qleaf[P->taxon[P->leaves[r]]] >= 0; r++)
        ;
    if (r < P->nl || P->nl != Q->nl) {
        PyErr_SetString(PyExc_ValueError, "P and Q carry different leaf taxa");
        goto done;
    }
    ctx_map(top, run.qleaf);
    /* both finalizes, both LCA builds and the map */
    if (count_add(&run.work, 2LL * (P->m + Q->m) + P->m, 1) < 0
        || run_frames(&run) < 0 || flush_triples(&run) < 0
        || check_dr_sum(&run) < 0)
        goto done;

    dr = PyObject_CallFunction(array_type, "sy#", "q", (const char *)run.dr,
                               run.frames * (Py_ssize_t)sizeof(long long));
    if (dr != NULL)
        result = Py_BuildValue("(LLLLN)", run.emitted, run.frames, run.work,
                               run.violations, dr);
done:
    while (nview)
        PyBuffer_Release(&view[--nview]);
    run_free(&run);
    return result;
}

/* ====================================================================== */
/* Newick: one pass from text to the taxon column of tripcon.tree         */
/* ====================================================================== */

/* The parser completes nodes in post-order (a leaf when it is read, an
   internal node at its ')'), which is the numbering of tripcon.tree, so
   it writes each node's one int of the taxon column, a taxon id or -1,
   when it completes the node.  tripcon.tree derives every other slot
   from that column on its first read, and run_enumeration in
   side_finish. */

/* Room for int number at; capacities double. */
static int grow(int **buf, int *cap, int at)
{
    int n = *cap ? *cap : 64;
    int *p;

    if (at < *cap)
        return 0;
    while (n <= at)
        n *= 2;
    p = realloc(*buf, (size_t)n * sizeof(int));
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

/* ---------------------------------------------------------------------- */
/* Labels: one table per TaxonSet                                          */
/* ---------------------------------------------------------------------- */

/* A LabelTable holds the labels of one TaxonSet: label i, of taxon id i,
   is the span [s, e) of one str, with '' read as one quote when esc is
   set (a quoted Newick label).  It finds the id of a label from its code
   points, whatever the str kind of the text that holds it, by open
   addressing with linear probing over a hash of those code points, in a
   power-of-two array of slots that is at most half full.  The hash is
   fixed, so a crafted label set could make every label collide: a probe
   that passes PROBE_MAX slots gives up, and parse_newick leaves the text
   to the regex parser, whose dict uses Python's seeded hash.  Parsing
   thus stays linear in the text whatever its labels; the 10^6 labels
   t0, t1, ... need chains of at most 52 slots.  The table of a
   parsed tree holds a reference to the tree's text, and the table of a
   names tuple holds the names joined into one str. */

/* A build may set HASH_MASK to 0, so that every label collides. */
#ifndef HASH_MASK
#define HASH_MASK 0xffffffffu
#endif
#define PROBE_MAX 128

typedef struct {
    Py_ssize_t s, e; /* the span in the table's text */
    uint32_t hash;
    int esc;
} Label;

typedef struct {
    PyObject_HEAD
    PyObject *text; /* the str that holds every label */
    int kind;
    const void *data;
    Label *label; /* by taxon id */
    int *slot;    /* taxon id + 1, or 0 when empty */
    int n, cap, mask; /* labels, label capacity, slots - 1 */
    int full; /* a names tuple passed PROBE_MAX: every parse gives up */
} Table;

static PyTypeObject Table_type;

/* The hash of the code points of text[s:e], the second quote of each ''
   skipped when esc is set. */
static uint32_t label_hash(int kind, const void *data, Py_ssize_t s,
                           Py_ssize_t e, int esc)
{
    uint32_t h = 2166136261u; /* FNV-1a */
    Py_UCS4 c;

    for (; s < e; s++) {
        c = PyUnicode_READ(kind, data, s);
        h = (h ^ c) * 16777619u;
        s += esc && c == '\'';
    }
    /* murmur3's finalizer: the low bits, which pick the slot, depend on
       every code point */
    h ^= h >> 16;
    h *= 0x85ebca6bu;
    h ^= h >> 13;
    h *= 0xc2b2ae35u;
    h ^= h >> 16;
    return h & HASH_MASK;
}

/* 1 if label a of t and text[s:e] (with esc) have the same code points,
   else 0. */
static int label_eq(const Table *t, const Label *a, int kind,
                    const void *data, Py_ssize_t s, Py_ssize_t e, int esc)
{
    Py_ssize_t i = a->s;
    Py_UCS4 c;

    if (!a->esc && !esc) {
        if (a->e - a->s != e - s)
            return 0;
        if (t->kind == kind)
            return memcmp((const char *)t->data + i * kind,
                          (const char *)data + s * kind,
                          (size_t)(e - s) * kind) == 0;
    }
    while (i < a->e && s < e) {
        c = PyUnicode_READ(t->kind, t->data, i);
        if (c != PyUnicode_READ(kind, data, s))
            return 0;
        i += 1 + (a->esc && c == '\'');
        s += 1 + (esc && c == '\'');
    }
    return i == a->e && s == e;
}

/* The taxon id of the label text[s:e] (with esc) of hash h; -1 if t does
   not hold it, with *at the empty slot where it would go; -2 if the probe
   passes PROBE_MAX slots. */
static int probe(const Table *t, uint32_t h, int kind, const void *data,
                 Py_ssize_t s, Py_ssize_t e, int esc, int *at)
{
    int j = (int)(h & (uint32_t)t->mask), k, id;

    for (k = 0; k < PROBE_MAX; k++, j = (j + 1) & t->mask) {
        if ((id = t->slot[j] - 1) < 0) {
            *at = j;
            return -1;
        }
        if (t->label[id].hash == h
            && label_eq(t, &t->label[id], kind, data, s, e, esc))
            return id;
    }
    return -2;
}

/* Put every label into size empty slots, size a power of two; -1 with
   MemoryError set, -2 if a label's slot is more than PROBE_MAX - 1 past
   its first. */
static int rehash(Table *t, int size)
{
    int *slot = calloc((size_t)size, sizeof(int)), id, j, k;

    if (slot == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    for (id = 0; id < t->n; id++) {
        j = (int)(t->label[id].hash & (uint32_t)(size - 1));
        for (k = 1; slot[j]; k++, j = (j + 1) & (size - 1))
            if (k == PROBE_MAX) {
                free(slot);
                return -2;
            }
        slot[j] = id + 1;
    }
    free(t->slot);
    t->slot = slot;
    t->mask = size - 1;
    return 0;
}

/* Add the label [s, e) (with esc) of hash h, which t does not hold, as
   taxon id t->n, at the empty slot at that probe gave, or with at -1 to
   no slot; as rehash, when the slots must grow to stay at most half
   full. */
static int table_add(Table *t, uint32_t h, Py_ssize_t s, Py_ssize_t e,
                     int esc, int at)
{
    Label *label;
    int cap = t->cap ? 2 * t->cap : 64;

    if (t->n == t->cap) {
        if ((label = realloc(t->label, (size_t)cap * sizeof *label)) == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        t->label = label;
        t->cap = cap;
    }
    t->label[t->n].s = s;
    t->label[t->n].e = e;
    t->label[t->n].esc = esc;
    t->label[t->n].hash = h;
    if (at < 0) {
        t->n++;
        return 0;
    }
    t->slot[at] = ++t->n;
    return 2 * t->n > t->mask + 1 ? rehash(t, 2 * (t->mask + 1)) : 0;
}

/* An empty table of the labels of text. */
static Table *table_new(PyObject *text)
{
    Table *t = PyObject_New(Table, &Table_type);

    if (t == NULL)
        return NULL;
    t->text = Py_NewRef(text);
    t->kind = PyUnicode_KIND(text);
    t->data = PyUnicode_DATA(text);
    t->label = NULL;
    t->n = t->cap = t->full = 0;
    t->mask = 63;
    if ((t->slot = calloc(t->mask + 1, sizeof(int))) == NULL) {
        Py_DECREF(t);
        PyErr_NoMemory();
        return NULL;
    }
    return t;
}

static void table_dealloc(Table *t)
{
    free(t->label);
    free(t->slot);
    Py_XDECREF(t->text);
    PyObject_Free(t);
}

static Py_ssize_t table_len(Table *t)
{
    return t->n;
}

/* Label i as a str: its span of the text, '' read as one quote when esc
   is set. */
static PyObject *table_item(Table *t, Py_ssize_t i)
{
    PyObject *sub, *one, *two, *out;

    if (i < 0 || i >= t->n) {
        PyErr_SetString(PyExc_IndexError, "label index out of range");
        return NULL;
    }
    sub = PyUnicode_Substring(t->text, t->label[i].s, t->label[i].e);
    if (sub == NULL || !t->label[i].esc)
        return sub;
    one = PyUnicode_FromString("'");
    two = PyUnicode_FromString("''");
    out = one && two ? PyUnicode_Replace(sub, two, one, -1) : NULL;
    Py_XDECREF(one);
    Py_XDECREF(two);
    Py_DECREF(sub);
    return out;
}

/* LabelTable(names): the table of a tuple of distinct strs. */
static PyObject *table_of_names(PyTypeObject *type, PyObject *args,
                                PyObject *kwargs)
{
    static char *kwlist[] = {"names", NULL};
    PyObject *names, *empty, *text, *name;
    Py_ssize_t i, s = 0, e;
    Table *t;
    uint32_t h;
    int at, r;

    (void)type;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "O!:LabelTable", kwlist,
                                     &PyTuple_Type, &names))
        return NULL;
    /* ids are ints, and slots double to at most 2^30; a text of at most
       INT_MAX / 2 characters holds fewer labels */
    if (PyTuple_GET_SIZE(names) > INT_MAX / 4) {
        PyErr_SetString(PyExc_OverflowError, "too many names");
        return NULL;
    }
    if ((empty = PyUnicode_New(0, 0)) == NULL)
        return NULL;
    text = PyUnicode_Join(empty, names);
    Py_DECREF(empty);
    if (text == NULL)
        return NULL;
    t = table_new(text);
    Py_DECREF(text);
    if (t == NULL)
        return NULL;
    /* once full, the table holds each further label without a slot */
    for (i = 0; i < PyTuple_GET_SIZE(names); i++, s = e) {
        name = PyTuple_GET_ITEM(names, i);
        e = s + PyUnicode_GET_LENGTH(name);
        h = label_hash(t->kind, t->data, s, e, 0);
        at = -1;
        if (!t->full && probe(t, h, t->kind, t->data, s, e, 0, &at) >= 0) {
            PyErr_Format(PyExc_ValueError, "duplicate taxon label %R", name);
            goto fail;
        }
        if ((r = table_add(t, h, s, e, 0, at)) == -1)
            goto fail;
        t->full |= r == -2 || at < 0;
    }
    return (PyObject *)t;
fail:
    Py_DECREF(t);
    return NULL;
}

static PySequenceMethods table_as_sequence = {
    .sq_length = (lenfunc)table_len,
    .sq_item = (ssizeargfunc)table_item,
};

PyDoc_STRVAR(table_doc,
"LabelTable(names)\n"
"--\n"
"\n"
"The labels of a TaxonSet, looked up by ``parse_newick`` from their code\n"
"points.  ``len(table)`` is the number of labels and ``table[i]`` the\n"
"label of taxon id i, so ``tuple(table)`` is the names tuple.  Built\n"
"from a tuple of distinct strs, label i being ``names[i]``, or by\n"
"``parse_newick``.  A repeated name raises ValueError.  When a name's\n"
"probe passes the bound on probe chains, the table gives up: it keeps\n"
"the later names without looking them up, and every parse against it\n"
"gives up.");

static PyTypeObject Table_type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "tripcon._kernels._fast.LabelTable",
    .tp_basicsize = sizeof(Table),
    .tp_dealloc = (destructor)table_dealloc,
    .tp_as_sequence = &table_as_sequence,
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_doc = table_doc,
    .tp_new = table_of_names,
};

/* ---------------------------------------------------------------------- */

PyDoc_STRVAR(parse_newick_doc,
"parse_newick(text, table)\n"
"--\n"
"\n"
"Parse one Newick statement into the taxon column of its tree.\n"
"\n"
"Follows the token grammar of ``tripcon.newick``.  Returns ``(taxon,\n"
"table)``: ``taxon``, an array('i') in post-order ids with a taxon id on\n"
"each leaf and -1 on each internal node, is the one input of\n"
"``tripcon.tree.Tree._from_structure``.  When ``table`` is None, the\n"
"labels are interned, ids in leaf order, into a new LabelTable that\n"
"holds a reference to ``text``; otherwise the leaves must carry the\n"
"labels of ``table`` exactly once each, and ``table`` is returned.  Two\n"
"labels are equal when their code points are, '' in a quoted label\n"
"being one quote.\n"
"\n"
"Returns None, and does nothing else, on any syntax, non-binary or\n"
"empty-tree error, on a duplicate, unknown or missing label, on any\n"
"character outside ASCII that is not in a quoted label or a comment,\n"
"and when a label's probe passes the bound on probe chains or\n"
"``table`` passed it when it was built: the regex parser then reports\n"
"the error or parses the text.");

static PyObject *parse_newick(PyObject *module, PyObject *args)
{
    PyObject *text, *arg, *taxon, *result = NULL;
    Table *table = NULL;
    int *col = NULL, cap = 0; /* the taxon column */
    int *groups = NULL, gcap = 0; /* per open '(': 1 once its ',' is read */
    unsigned char *seen = NULL; /* with a table given: per taxon id */
    const void *data;
    int kind, m = 0, nl = 0, ng = 0, want = 1, length_ok = 0, esc, t, at;
    Py_ssize_t n, i = 0, s = 0, e = 0;
    Py_UCS4 c;
    uint32_t h;

    (void)module;
    if (!PyArg_ParseTuple(args, "OO:parse_newick", &text, &arg))
        return NULL;
    if (arg != Py_None && !PyObject_TypeCheck(arg, &Table_type)) {
        PyErr_SetString(PyExc_TypeError, "table must be a LabelTable or None");
        return NULL;
    }
    /* node ids are ints, there are at most as many nodes as characters,
       and capacities double */
    if (!PyUnicode_Check(text) || PyUnicode_GET_LENGTH(text) > INT_MAX / 2)
        Py_RETURN_NONE;
#if PY_VERSION_HEX < 0x030C0000
    if (PyUnicode_READY(text) < 0)
        return NULL;
#endif
    kind = PyUnicode_KIND(text);
    data = PyUnicode_DATA(text);
    n = PyUnicode_GET_LENGTH(text);
    if (arg != Py_None) {
        table = (Table *)Py_NewRef(arg);
        if (table->full)
            goto reject;
        if ((seen = calloc((size_t)table->n + 1, 1)) == NULL) {
            PyErr_NoMemory();
            goto done;
        }
    } else if ((table = table_new(text)) == NULL) {
        return NULL;
    }

    /* want: a subtree is wanted next; length_ok: the token before was a
       label or a ')', which a branch length may follow */
    for (;;) {
        if ((i = skip_filler(kind, data, n, i)) < 0 || i == n)
            goto reject;
        c = PyUnicode_READ(kind, data, i);
        if (want && c == '(') {
            if (grow(&groups, &gcap, ng) < 0)
                goto done;
            groups[ng++] = 0;
            i++;
        } else if (want) { /* a leaf */
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
            h = label_hash(kind, data, s, e, esc);
            t = probe(table, h, kind, data, s, e, esc, &at);
            if (seen == NULL) { /* interning: a label seen before repeats */
                if (t != -1 || (t = table_add(table, h, s, e, esc, at)) == -2)
                    goto reject;
                if (t < 0)
                    goto done;
                t = table->n - 1;
            } else if (t < 0 || seen[t]) { /* unknown or repeated */
                goto reject;
            } else {
                seen[t] = 1;
            }
            if (grow(&col, &cap, m) < 0)
                goto done;
            col[m++] = t;
            nl++;
            want = 0;
            length_ok = 1;
        } else if (c == ',' && ng && !groups[ng - 1]) {
            groups[ng - 1] = 1;
            want = 1;
            i++;
        } else if (c == ')' && ng && groups[ng - 1]) {
            if (grow(&col, &cap, m) < 0)
                goto done;
            ng--;
            col[m++] = -1;
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
    if (skip_filler(kind, data, n, i + 1) != n || nl != table->n)
        goto reject;
    taxon = PyObject_CallFunction(array_type, "sy#", "i", (const char *)col,
                                  m * (Py_ssize_t)sizeof(int));
    if (taxon != NULL)
        result = Py_BuildValue("(NO)", taxon, (PyObject *)table);
    goto done;
reject:
    result = Py_NewRef(Py_None);
done:
    free(col);
    free(groups);
    free(seen);
    Py_XDECREF(table);
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

/* One piece of the check pass: id k against its table of offsets.  Sets
   the exception and returns -1 if the id is outside [0, n), its piece
   outside text, or *len plus the piece's length past limit, the characters
   that the scratch buffer can hold; else adds that length to *len. */
static inline int check_piece(const long long *table, const int *id,
                              Py_ssize_t k, Py_ssize_t n, Py_ssize_t size,
                              Py_ssize_t limit, Py_ssize_t *len)
{
    const long long *piece;

    if ((size_t)(unsigned)id[k] >= (size_t)n) {
        PyErr_Format(PyExc_IndexError, "ids[%zd] = %d is out of range",
                     k, id[k]);
        return -1;
    }
    piece = table + id[k];
    if (piece[0] < 0 || piece[0] > piece[1] || piece[1] > size) {
        PyErr_Format(PyExc_ValueError, "ids[%zd] = %d is the piece "
                     "[%lld, %lld), not inside the %zd characters of "
                     "text", k, id[k], piece[0], piece[1], size);
        return -1;
    }
    if (piece[1] - piece[0] > limit - *len) {
        PyErr_NoMemory();
        return -1;
    }
    *len += (Py_ssize_t)(piece[1] - piece[0]);
    return 0;
}

/* Copies the piece that starts at character a and ends at b, of a text of
   kind bytes per character, to at; returns the end of the copy.  A piece
   of at most 16 bytes that starts at or before far, so that 16 bytes of
   text follow its start, is copied as a fixed 16 bytes, which writes up to
   16 bytes past its end; any other piece is copied exactly. */
static inline char *copy_piece(char *at, const char *src, long long a,
                               long long b, long long far, const int kind)
{
    size_t bytes = (size_t)(b - a) * kind;

    if (bytes <= 16 && a <= far)
        memcpy(at, src + a * kind, 16);
    else
        memcpy(at, src + a * kind, bytes);
    return at + bytes;
}

/* The copy pass over checked ids, with kind a constant at each call: the
   full triples three pieces at a time, then a tail of one or two ids. */
static inline void copy_pieces(char *at, const char *src, Py_ssize_t size,
                               const long long *off, Py_ssize_t n,
                               const int *id, Py_ssize_t nid, const int kind)
{
    const long long *t0 = off, *t1 = off + n, *t2 = off + 2 * n;
    long long far = size - 16 / kind;
    Py_ssize_t k;

    for (k = 0; k + 3 <= nid; k += 3) {
        at = copy_piece(at, src, t0[id[k]], t0[id[k] + 1], far, kind);
        at = copy_piece(at, src, t1[id[k + 1]], t1[id[k + 1] + 1], far,
                        kind);
        at = copy_piece(at, src, t2[id[k + 2]], t2[id[k + 2] + 1], far,
                        kind);
    }
    if (k < nid)
        at = copy_piece(at, src, t0[id[k]], t0[id[k] + 1], far, kind);
    if (k + 1 < nid)
        copy_piece(at, src, t1[id[k + 1]], t1[id[k + 1] + 1], far, kind);
}

/* Two passes over the chunk, in triple order: the first checks each id
   and the offsets of its piece and sums the lengths, the second copies the
   pieces, all of text's kind, into one scratch buffer with 16 bytes of
   slack for the fixed copies.  PyUnicode_FromKindAndData narrows the
   result to its widest character, so that an ASCII chunk of a wider text
   is an ASCII str.  No Python code runs meanwhile, so the buffers cannot
   change. */
static PyObject *join_triples(PyObject *module, PyObject *args)
{
    PyObject *ids_obj, *text, *offsets_obj, *result = NULL;
    Py_buffer ids, offsets;
    const int *id;
    const long long *off;
    const char *src;
    char *buf = NULL;
    Py_ssize_t nid, n, k, size, limit, len = 0;
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
    limit = (PY_SSIZE_T_MAX - 16) / kind;
    for (k = 0; k + 3 <= nid; k += 3)
        if (check_piece(off, id, k, n, size, limit, &len) < 0
            || check_piece(off + n, id, k + 1, n, size, limit, &len) < 0
            || check_piece(off + 2 * n, id, k + 2, n, size, limit, &len) < 0)
            goto done;
    if (k < nid && check_piece(off, id, k, n, size, limit, &len) < 0)
        goto done;
    if (k + 1 < nid && check_piece(off + n, id, k + 1, n, size, limit,
                                   &len) < 0)
        goto done;
    if ((buf = xmalloc((size_t)len * kind + 16)) == NULL)
        goto done;
    switch (kind) {
    case PyUnicode_1BYTE_KIND:
        copy_pieces(buf, src, size, off, n, id, nid, 1);
        break;
    case PyUnicode_2BYTE_KIND:
        copy_pieces(buf, src, size, off, n, id, nid, 2);
        break;
    default:
        copy_pieces(buf, src, size, off, n, id, nid, 4);
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
"the algorithm and counter contract.  ``parse_newick`` reads a tree's\n"
"taxon column in one pass, with its labels in a ``LabelTable``, and\n"
"leaves every error to the regex parser of ``tripcon.newick``.\n"
"``join_triples`` writes one chunk of ids as the text of its lines,\n"
"from the label tables that ``tripcon.cli`` packs into one str and its\n"
"offsets.");

static struct PyModuleDef fast_module = {
    PyModuleDef_HEAD_INIT, "_fast", fast_doc, -1, fast_methods,
    NULL, NULL, NULL, NULL,
};

PyMODINIT_FUNC PyInit__fast(void)
{
    PyObject *array_mod, *module;

    if (array_type == NULL) {
        array_mod = PyImport_ImportModule("array");
        if (array_mod == NULL)
            return NULL;
        array_type = PyObject_GetAttrString(array_mod, "array");
        Py_DECREF(array_mod);
        if (array_type == NULL)
            return NULL;
    }
    if (PyType_Ready(&Table_type) < 0
        || (module = PyModule_Create(&fast_module)) == NULL)
        return NULL;
    if (PyModule_AddObjectRef(module, "LabelTable",
                              (PyObject *)&Table_type) < 0) {
        Py_DECREF(module);
        return NULL;
    }
    return module;
}
