/*
 * Compiled enumeration kernel: the C99 twin of tripcon._kernels.pure.
 *
 * Same recursion, same emission order and same work-counter arithmetic
 * as the pure kernel (the cross-backend tests pin all three).  Every
 * per-tree structure lives in flat int arrays and is rebuilt here rather
 * than imported from the Python modules, so the hot path never leaves C.
 * See tripcon.enumeration for the algorithm and the counter contract.
 *
 * Ownership.  A recursion context (a tree pair with its post-order data,
 * Euler tours, RMQ tables and leaf-set-equivalence map) is one malloc'ed
 * block whose layout follows from the two node counts alone.  Frames on
 * the stack point to their context and each holds one reference, which
 * is dropped once the popped frame has been processed; the context is
 * freed when its count reaches zero.  Pending frames have disjoint leaf
 * sets, so the frame stack never holds more frames than the input has
 * leaves.  The run's scratch (output chunks, frame stack, taxon maps,
 * partition buffers and sweep stacks) is a second block, sized from the
 * universe and the input lengths.
 *
 * Node ids and leaf counts are C ints; every count of triples, frames,
 * steps or violations (including each frame's d_r) is a long long.
 *
 * Build with any C99 compiler against the Python headers, e.g.
 *
 *     cc -O3 -shared -fPIC -I<python include dir> _fast.c -o _fast<EXT_SUFFIX>
 *
 * which tripcon._kernels does on first import when the module is missing.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <limits.h>
#include <stdlib.h>
#include <string.h>

/* Items buffered before they are appended to the returned arrays. */
#define TRI_CHUNK (3 * 4096)
#define DR_CHUNK 4096

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

/* Append nbytes of buf to the array.array arr. */
static int append_bytes(PyObject *arr, const void *buf, Py_ssize_t nbytes)
{
    PyObject *view, *res;
    if (nbytes == 0)
        return 0;
    view = PyMemoryView_FromMemory((char *)buf, nbytes, PyBUF_READ);
    if (view == NULL)
        return -1;
    res = PyObject_CallMethod(arr, "frombytes", "O", view);
    Py_DECREF(view);
    if (res == NULL)
        return -1;
    Py_DECREF(res);
    return 0;
}

/* ====================================================================== */
/* Per-tree structure: arena + post-order data + Euler tour + +-1 RMQ     */
/* ====================================================================== */

typedef struct {
    int *left, *right, *taxon;                    /* arena, -1 = none */
    int *post, *lc, *lb, *depth, *popo, *leaves;  /* post-order data */
    int *tour, *tdep, *fo;                        /* Euler tour */
    int *bminpos, *bminval, *pat, *tbl, *tflag, *lg, *st; /* +-1 RMQ */
    int m, root, nl, tlen, b, nb;
} Side;

/* Size s for an m-node tree and point its arrays into base, or only
   measure when base is NULL; returns the number of ints they take. */
static size_t side_layout(Side *s, int m, int *base)
{
    size_t used = 0, npat;
    int bl = 0, levels = 0, t;

    s->m = m;
    s->nl = (m + 1) / 2;
    s->tlen = 2 * m - 1; /* internal nodes appear 3x, leaves once */
    for (t = s->tlen; t; t >>= 1)
        bl++;
    s->b = (bl - 1) / 2;
    if (s->b < 1)
        s->b = 1;
    s->nb = (s->tlen + s->b - 1) / s->b;
    for (t = s->nb; t; t >>= 1)
        levels++;
    npat = (size_t)1 << (s->b - 1);

    s->left = take(base, &used, m);
    s->right = take(base, &used, m);
    s->taxon = take(base, &used, m);
    s->post = take(base, &used, m);
    s->lc = take(base, &used, m);
    s->lb = take(base, &used, m);
    s->depth = take(base, &used, m);
    s->popo = take(base, &used, m);
    s->fo = take(base, &used, m);
    s->leaves = take(base, &used, s->nl);
    s->tour = take(base, &used, s->tlen);
    s->tdep = take(base, &used, s->tlen);
    s->bminpos = take(base, &used, s->nb);
    s->bminval = take(base, &used, s->nb);
    s->pat = take(base, &used, s->nb);
    s->tbl = take(base, &used, npat * s->b * s->b);
    s->tflag = take(base, &used, npat);
    s->lg = take(base, &used, (size_t)s->nb + 1);
    s->st = take(base, &used, (size_t)levels * s->nb);
    return used;
}

static void build_pattern_table(Side *s, int p, int b)
{
    int val[64];
    int i, j, best, bv;
    int *row = s->tbl + (Py_ssize_t)p * b * b;

    val[0] = 0;
    for (i = 1; i < b; i++)
        val[i] = val[i - 1] + ((p & (1 << (i - 1))) ? 1 : -1);
    for (i = 0; i < b; i++) {
        best = i;
        bv = val[i];
        for (j = i; j < b; j++) {
            if (val[j] < bv) {
                best = j;
                bv = val[j];
            }
            row[i * b + j] = best;
        }
    }
}

static void rmq_build(Side *s)
{
    int n = s->tlen, b = s->b, nb = s->nb;
    int j, start, end, best, bv, p, i;
    int levels, k, half, width, a, c;
    const int *d = s->tdep;

    memset(s->tflag, 0, ((size_t)1 << (b - 1)) * sizeof(int));
    for (j = 0; j < nb; j++) {
        start = j * b;
        end = start + b;
        if (end > n)
            end = n;
        best = start;
        bv = d[start];
        p = 0;
        for (i = start + 1; i < end; i++) {
            if (d[i] < bv) {
                best = i;
                bv = d[i];
            }
            if (d[i] > d[i - 1])
                p |= 1 << (i - start - 1);
        }
        s->bminpos[j] = best;
        s->bminval[j] = bv;
        s->pat[j] = p;
        if (!s->tflag[p]) {
            build_pattern_table(s, p, b);
            s->tflag[p] = 1;
        }
    }

    s->lg[1] = 0;
    for (i = 2; i <= nb; i++)
        s->lg[i] = s->lg[i >> 1] + 1;

    levels = s->lg[nb] + 1;
    for (j = 0; j < nb; j++)
        s->st[j] = j;
    for (k = 1; k < levels; k++) {
        half = 1 << (k - 1);
        width = nb - (1 << k) + 1;
        for (i = 0; i < width; i++) {
            a = s->st[(k - 1) * nb + i];
            c = s->st[(k - 1) * nb + i + half];
            s->st[k * nb + i] = s->bminval[a] <= s->bminval[c] ? a : c;
        }
        for (i = width > 0 ? width : 0; i < nb; i++)
            s->st[k * nb + i] = s->st[(k - 1) * nb + i];
    }
}

static inline int inblock(const Side *s, int blk, int oi, int oj)
{
    int b = s->b;
    return blk * b + s->tbl[(Py_ssize_t)s->pat[blk] * b * b + oi * b + oj];
}

static inline int rmq(const Side *s, int l, int r)
{
    int b = s->b;
    int bl = l / b, br = r / b;
    int p1, p2, best, lo, hi, k, a, c, jb, pm;

    if (bl == br)
        return inblock(s, bl, l - bl * b, r - bl * b);
    p1 = inblock(s, bl, l - bl * b, b - 1);
    p2 = inblock(s, br, 0, r - br * b);
    best = s->tdep[p1] <= s->tdep[p2] ? p1 : p2;
    lo = bl + 1;
    hi = br - 1;
    if (lo <= hi) {
        k = s->lg[hi - lo + 1];
        a = s->st[k * s->nb + lo];
        c = s->st[k * s->nb + hi - (1 << k) + 1];
        jb = s->bminval[a] <= s->bminval[c] ? a : c;
        pm = s->bminpos[jb];
        if (s->tdep[pm] < s->tdep[best])
            best = pm;
    }
    return best;
}

static inline int lca(const Side *s, int u, int v)
{
    int lo = s->fo[u], hi = s->fo[v], t;
    if (lo > hi) {
        t = lo;
        lo = hi;
        hi = t;
    }
    return s->tour[rmq(s, lo, hi)];
}

static inline int is_below(const Side *s, int anc, int node)
{
    int hi = s->post[anc];
    int pn = s->post[node];
    return hi - (2 * s->lc[anc] - 1) < pn && pn <= hi;
}

/* Derive post-order data, the Euler tour and the RMQ tables from the
   arena, with stk (2m + 4 ints) as the traversal stack.  The first
   traversal rejects an arena that is not a full binary tree: a node
   reached twice, a node with one child, or nodes the root does not reach.
   Each node is entered once, so the stack holds at most 2m + 1 items. */
static int side_finish(Side *s, int *stk)
{
    int m = s->m;
    int sp, npost = 0, nleaf = 0, tpos = 0;
    int x, v, ph, lcn, rcn;
    const char *why;

    memset(s->lb, -1, (size_t)m * sizeof(int));
    s->depth[s->root] = 0;
    stk[0] = s->root << 1;
    sp = 1;
    while (sp) {
        x = stk[--sp];
        v = x >> 1;
        lcn = s->left[v];
        rcn = s->right[v];
        if (x & 1) {
            s->lc[v] = s->lc[lcn] + s->lc[rcn];
            s->post[v] = npost;
            s->popo[npost++] = v;
            continue;
        }
        why = s->lb[v] >= 0 ? "is reached twice"
              : (lcn < 0) != (rcn < 0) ? "has one child" : NULL;
        if (why != NULL) {
            PyErr_Format(PyExc_ValueError, "node %d %s", v, why);
            return -1;
        }
        s->lb[v] = nleaf;
        if (lcn < 0) {
            s->lc[v] = 1;
            s->post[v] = npost;
            s->popo[npost++] = v;
            s->leaves[nleaf++] = v;
        } else {
            s->depth[lcn] = s->depth[v] + 1;
            s->depth[rcn] = s->depth[v] + 1;
            stk[sp] = (v << 1) | 1;
            stk[sp + 1] = rcn << 1;
            stk[sp + 2] = lcn << 1;
            sp += 3;
        }
    }
    if (npost < m) {
        PyErr_Format(PyExc_ValueError,
                     "%d of %d nodes are not reached from the root",
                     m - npost, m);
        return -1;
    }

    stk[0] = s->root << 2;
    sp = 1;
    while (sp) {
        x = stk[--sp];
        v = x >> 2;
        ph = x & 3;
        if (ph == 0)
            s->fo[v] = tpos;
        s->tour[tpos] = v;
        s->tdep[tpos] = s->depth[v];
        tpos++;
        if (s->left[v] >= 0) {
            if (ph == 0) {
                stk[sp] = (v << 2) | 1;
                stk[sp + 1] = s->left[v] << 2;
                sp += 2;
            } else if (ph == 1) {
                stk[sp] = (v << 2) | 2;
                stk[sp + 1] = s->right[v] << 2;
                sp += 2;
            }
        }
    }
    rmq_build(s);
    return 0;
}

/* Fill s, laid out for 2k - 1 nodes, with the subtree of parent induced by
   k >= 2 post-ordered leaves z (stack sweep; odep and stk hold 4k + 2). */
static int side_from_leaflist(Side *s, const Side *parent, const int *z,
                              int k, int *odep, int *stk)
{
    int sp, nid, i, bnd, bd, top, nxt, inner, leaf;

    s->left[0] = -1;
    s->right[0] = -1;
    s->taxon[0] = parent->taxon[z[0]];
    odep[0] = parent->depth[z[0]];
    nid = 1;
    stk[0] = 0;
    sp = 1;
    for (i = 1; i < k; i++) {
        bnd = lca(parent, z[i - 1], z[i]);
        bd = parent->depth[bnd];
        top = stk[--sp];
        while (sp && odep[stk[sp - 1]] > bd) {
            nxt = stk[--sp];
            s->right[nxt] = top;
            top = nxt;
        }
        inner = nid++;
        odep[inner] = bd;
        s->left[inner] = top;
        s->right[inner] = -1;
        s->taxon[inner] = -1;
        stk[sp++] = inner;
        leaf = nid++;
        s->left[leaf] = -1;
        s->right[leaf] = -1;
        s->taxon[leaf] = parent->taxon[z[i]];
        odep[leaf] = parent->depth[z[i]];
        stk[sp++] = leaf;
    }
    top = stk[--sp];
    while (sp) {
        nxt = stk[--sp];
        s->right[nxt] = top;
        top = nxt;
    }
    s->root = top;
    return side_finish(s, stk);
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

    if (m < 1 || m >= (INT_MAX >> 2) || PyList_GET_SIZE(right) != m
        || PyList_GET_SIZE(taxon) != m || root < 0 || root >= m) {
        PyErr_SetString(PyExc_ValueError,
                        "left, right and taxon must have one equal, non-zero "
                        "length and root must index into them");
        return -1;
    }
    return (int)m;
}

/* Fill s, laid out for the lists' length, from a tree given as parallel
   lists.  Ids are range-checked and side_finish checks the shape. */
static int side_from_lists(Side *s, PyObject *left, PyObject *right,
                           PyObject *taxon, int root, int universe, int *stk)
{
    s->root = root;
    if (ints_from_list(s->left, left, -1, s->m, "left") < 0
        || ints_from_list(s->right, right, -1, s->m, "right") < 0
        || ints_from_list(s->taxon, taxon, -1, universe, "taxon") < 0)
        return -1;
    return side_finish(s, stk);
}

static void write_scratch(const Side *s, int *scratch)
{
    int r;
    for (r = 0; r < s->nl; r++)
        scratch[s->taxon[s->leaves[r]]] = s->leaves[r];
}

/* write_scratch for an input tree, into a scratch that holds -1 for every
   taxon not seen yet; fails on a leaf without a taxon or a repeated one. */
static int index_leaves(const Side *s, int *scratch)
{
    int r, v, t;
    for (r = 0; r < s->nl; r++) {
        v = s->leaves[r];
        t = s->taxon[v];
        if (t < 0 || scratch[t] >= 0) {
            PyErr_Format(PyExc_ValueError, "leaf %d has %s taxon", v,
                         t < 0 ? "no" : "a repeated");
            return -1;
        }
        scratch[t] = v;
    }
    return 0;
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
    int i, v;

    for (i = 0; i < p->m; i++) {
        v = p->popo[i];
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
    int store;
    long long work, frames, violations, emitted;
    /* output: flat triples (array('i')) and per-frame d_r (array('q')),
       each filled through a fixed chunk buffer */
    PyObject *tri_arr, *dr_arr;
    /* the rest is one block: dr, the int arrays, then fs */
    long long *dr;
    int *tri;
    int ntri, ndr;
    /* pending frames, at most one per input leaf */
    Frame *fs;
    int nfs;
    /* universe-sized taxon -> current leaf scratch */
    int *pleaf, *qleaf;
    /* partition buffers, each of size u */
    int *part[8];
    /* LSC's Z data; then the stack sweeps of LSC, restriction and
       side_finish */
    int *zlca, *ztax, *zpost;
    int *par, *plo, *phi, *odep, *stk;
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
    run->zlca = take(base, &used, u + 2);
    run->ztax = take(base, &used, u + 2);
    run->zpost = take(base, &used, u + 2);
    run->par = take(base, &used, w);
    run->plo = take(base, &used, w);
    run->phi = take(base, &used, w);
    run->odep = take(base, &used, w);
    run->stk = take(base, &used, w);
    return used;
}

/* m is the larger input tree's node count; it bounds the pending frames
   and, with the universe, every sweep. */
static int run_init(Run *run, int universe, int m, int store)
{
    size_t u = universe > 0 ? (size_t)universe : 1;
    size_t w = 2 * ((size_t)m > u ? (size_t)m : u) + 6;
    size_t nfs = ((size_t)m + 1) / 2;
    size_t ints = run_layout(run, u, w, NULL);

    run->store = store;
    run->tri_arr = PyObject_CallFunction(array_type, "s", "i");
    run->dr_arr = PyObject_CallFunction(array_type, "s", "q");
    if (run->tri_arr == NULL || run->dr_arr == NULL)
        return -1;
    /* the frames go last, where an overrun leaves the block; an even
       number of ints keeps them aligned */
    ints += ints & 1;
    run->dr = xmalloc(DR_CHUNK * sizeof(long long) + ints * sizeof(int)
                      + nfs * sizeof(Frame));
    if (run->dr == NULL)
        return -1;
    run_layout(run, u, w, (int *)(run->dr + DR_CHUNK));
    run->fs = (Frame *)((int *)(run->dr + DR_CHUNK) + ints);
    memset(run->pleaf, -1, u * sizeof(int));
    memset(run->qleaf, -1, u * sizeof(int));
    return 0;
}

static void run_free(Run *run)
{
    Py_XDECREF(run->tri_arr);
    Py_XDECREF(run->dr_arr);
    while (run->nfs)
        ctx_release(run->fs[--run->nfs].ctx);
    free(run->dr);
}

static int flush_output(Run *run)
{
    if (append_bytes(run->tri_arr, run->tri, run->ntri * (Py_ssize_t)sizeof(int)) < 0
        || append_bytes(run->dr_arr, run->dr, run->ndr * (Py_ssize_t)sizeof(long long)) < 0)
        return -1;
    run->ntri = 0;
    run->ndr = 0;
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

static int push_dr(Run *run, long long v)
{
    if (run->ndr == DR_CHUNK && flush_output(run) < 0)
        return -1;
    run->dr[run->ndr++] = v;
    return 0;
}

/* Append the canonical (ascending) form of taxa {a, b, c}; store mode only. */
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
    if (run->ntri == TRI_CHUNK && flush_output(run) < 0)
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
    int i, l, rz, rd, hi, lo;
    int pos, ci, c, cp, ctax, kk, nid, sp;
    int j, bnd, bd, top, nxt, inner, leaf, c_node, cur_orig;
    int y, pr, ylo, yhi, slo, shi, ia, ib, ta, tb, rootn;
    int *par = run->par, *plo = run->plo, *phi = run->phi;
    int *podep = run->odep, *pstk = run->stk;

    if (k < 2 || nc == 0)
        return 0;
    rz = z[0];
    rd = t->depth[rz];
    for (i = 1; i < k; i++) {
        l = lca(t, z[i - 1], z[i]);
        run->zlca[i - 1] = l;
        if (t->depth[l] < rd) {
            rz = l;
            rd = t->depth[l];
        }
    }
    for (i = 0; i < k; i++) {
        run->ztax[i] = t->taxon[z[i]];
        run->zpost[i] = t->post[z[i]];
    }
    run->work += k;

    hi = t->post[rz];
    lo = hi - (2 * t->lc[rz] - 1);

    pos = 0;
    for (ci = 0; ci < nc; ci++) {
        c = cand[ci];
        cp = t->post[c];
        while (pos < k && run->zpost[pos] < cp)
            pos++;
        run->work += 1;
        if (!(lo < cp && cp <= hi))
            continue;

        /* Build T' = T|_(Z + {c}); merged element j is z[j] for j < pos,
           c at pos, z[j-1] after. */
        run->work += k + 1;
        ctax = t->taxon[c];
        kk = k + 1;
        c_node = pos == 0 ? 0 : -1;
        par[0] = -1;
        plo[0] = 0;
        phi[0] = 1;
        podep[0] = pos == 0 ? t->depth[c] : t->depth[z[0]];
        nid = 1;
        pstk[0] = 0;
        sp = 1;
        for (j = 1; j < kk; j++) {
            if (j == pos) {
                bnd = lca(t, z[j - 1], c);
                cur_orig = c;
            } else if (j == pos + 1) {
                bnd = lca(t, c, z[j - 1]);
                cur_orig = z[j - 1];
            } else if (j < pos) {
                bnd = run->zlca[j - 1];
                cur_orig = z[j];
            } else {
                bnd = run->zlca[j - 2];
                cur_orig = z[j - 1];
            }
            bd = t->depth[bnd];
            top = pstk[--sp];
            while (sp && podep[pstk[sp - 1]] > bd) {
                nxt = pstk[--sp];
                par[top] = nxt;
                phi[nxt] = phi[top];
                top = nxt;
            }
            inner = nid++;
            podep[inner] = bd;
            plo[inner] = plo[top];
            par[top] = inner;
            pstk[sp++] = inner;
            leaf = nid++;
            podep[leaf] = t->depth[cur_orig];
            plo[leaf] = j;
            phi[leaf] = j + 1;
            if (j == pos)
                c_node = leaf;
            pstk[sp++] = leaf;
        }
        top = pstk[--sp];
        while (sp) {
            nxt = pstk[--sp];
            par[top] = nxt;
            phi[nxt] = phi[top];
            top = nxt;
        }
        par[top] = -1;
        rootn = top;

        /* Walk from c's parent to the root; emit (below y) x (sibling). */
        y = par[c_node];
        while (y != rootn) {
            run->work += 1;
            pr = par[y];
            ylo = plo[y];
            yhi = phi[y];
            if (plo[pr] < ylo) {
                slo = plo[pr];
                shi = ylo;
            } else {
                slo = yhi;
                shi = phi[pr];
            }
            if (!run->store) {
                run->emitted += (long long)(yhi - ylo - 1) * (shi - slo);
                y = pr;
                continue;
            }
            for (ia = ylo; ia < yhi; ia++) {
                if (ia == pos)
                    continue;
                ta = ia < pos ? run->ztax[ia] : run->ztax[ia - 1];
                for (ib = slo; ib < shi; ib++) {
                    tb = ib < pos ? run->ztax[ib] : run->ztax[ib - 1];
                    if (emit(run, ta, tb, ctax) < 0)
                        return -1;
                }
            }
            y = pr;
        }
    }
    return 0;
}

/* Child order: com(u) pair, com(v) pair, unc(u_p,u_q) = unc(v_q,v_p),
   unc(v_p,v_q) = unc(u_q,u_p); the buffer layout per pair is
   [com_p, unc_p, com_q, unc_q]. */
static const int SPEC_Z[4] = {0, 4, 1, 5};
static const int SPEC_ZQ[4] = {2, 6, 7, 3};

/* Process one popped frame and push the frames that follow it. */
static int run_frame(Run *run, Ctx *ctx, int rp, int rq)
{
    int **bufs = run->part;
    int pn[8];
    int up, vp, uq, vq, tswap;
    int base, end, r, leaf, nz, i, pi, x_p, x_q, other_p;
    int ai, bi, cri, ta, tb;
    long long before, d_r;
    const Side *P = &ctx->p, *Q = &ctx->q;
    Ctx *child;

    run->frames += 1;
    run->work += 1;
    if (P->lc[rp] <= 1)
        return push_dr(run, 0);

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
        push_frame(run, ctx, vp, vq);
        push_frame(run, ctx, up, uq);
        return push_dr(run, 0);
    }

    /* ---- partition both pairs ---------------------------------------- */
    for (pi = 0; pi < 2; pi++) {
        x_p = pi == 0 ? up : vp;
        x_q = pi == 0 ? uq : vq;
        pn[4 * pi] = 0;
        pn[4 * pi + 1] = 0;
        pn[4 * pi + 2] = 0;
        pn[4 * pi + 3] = 0;
        base = P->lb[x_p];
        end = base + P->lc[x_p];
        for (r = base; r < end; r++) {
            leaf = P->leaves[r];
            if (is_below(Q, x_q, run->qleaf[P->taxon[leaf]]))
                bufs[4 * pi][pn[4 * pi]++] = leaf;
            else
                bufs[4 * pi + 1][pn[4 * pi + 1]++] = leaf;
        }
        base = Q->lb[x_q];
        end = base + Q->lc[x_q];
        for (r = base; r < end; r++) {
            leaf = Q->leaves[r];
            if (is_below(P, x_p, run->pleaf[Q->taxon[leaf]]))
                bufs[4 * pi + 2][pn[4 * pi + 2]++] = leaf;
            else
                bufs[4 * pi + 3][pn[4 * pi + 3]++] = leaf;
        }
    }
    run->work += 2 * P->lc[rp];

    /* ---- conflicts touching the current roots ------------------------ */
    before = run->emitted;
    for (pi = 0; pi < 2; pi++) {
        other_p = pi == 0 ? vp : up;
        if (pn[4 * pi] && pn[4 * pi + 1] && !run->store) {
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
        if (side_from_leaflist(&child->p, P, bufs[SPEC_Z[i]], nz,
                               run->odep, run->stk) < 0
            || side_from_leaflist(&child->q, Q, bufs[SPEC_ZQ[i]], nz,
                                  run->odep, run->stk) < 0) {
            free(child);
            return -1;
        }
        write_scratch(&child->p, run->pleaf);
        write_scratch(&child->q, run->qleaf);
        ctx_map(child, run->qleaf);
        run->work += 2 * nz;
        run->work += child->p.m + child->q.m;
        run->work += child->p.tlen + child->q.tlen;
        run->work += child->p.m;
        push_frame(run, child, child->p.root, child->q.root);
    }
    return push_dr(run, d_r);
}

/* Pop and process frames until none is left; a popped frame's reference
   to its context is dropped once the frame has been processed. */
static int run_frames(Run *run)
{
    Frame f;
    int rc;

    while (run->nfs) {
        f = run->fs[--run->nfs];
        rc = run_frame(run, f.ctx, f.rp, f.rq);
        ctx_release(f.ctx);
        if (rc < 0)
            return -1;
    }
    return 0;
}

PyDoc_STRVAR(run_enumeration_doc,
"run_enumeration(p_left, p_right, p_taxon, p_root, q_left, q_right, q_taxon,\n"
"                q_root, universe, store=True)\n"
"--\n"
"\n"
"Enumerate conflicts; same contract and output as the pure kernel.\n"
"\n"
"With ``store`` false, triples are only counted, never materialized.\n"
"Returns ``(flat_triples, emitted, frames_opened, nodes_touched,\n"
"budget_violations, per_frame_dr)``; flat_triples is an array('i') and\n"
"per_frame_dr an array('q').  Raises ValueError unless both trees are\n"
"full binary trees whose leaves carry the same distinct taxa.");

static PyObject *run_enumeration(PyObject *module, PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"p_left", "p_right", "p_taxon", "p_root",
                             "q_left", "q_right", "q_taxon", "q_root",
                             "universe", "store", NULL};
    PyObject *p_left, *p_right, *p_taxon, *q_left, *q_right, *q_taxon;
    PyObject *result = NULL;
    int p_root, q_root, universe, store = 1, mp, mq, r;
    Ctx *top = NULL;
    Side *P, *Q;
    Run run = {0};

    (void)module;
    if (!PyArg_ParseTupleAndKeywords(
            args, kwargs, "O!O!O!iO!O!O!ii|p:run_enumeration", kwlist,
            &PyList_Type, &p_left, &PyList_Type, &p_right,
            &PyList_Type, &p_taxon, &p_root,
            &PyList_Type, &q_left, &PyList_Type, &q_right,
            &PyList_Type, &q_taxon, &q_root, &universe, &store))
        return NULL;

    if ((mp = list_size(p_left, p_right, p_taxon, p_root)) < 0
        || (mq = list_size(q_left, q_right, q_taxon, q_root)) < 0
        || run_init(&run, universe, mp > mq ? mp : mq, store) < 0
        || (top = ctx_new(mp, mq)) == NULL)
        goto done;
    push_frame(&run, top, p_root, q_root); /* run_free releases it on error */
    P = &top->p;
    Q = &top->q;
    if (side_from_lists(P, p_left, p_right, p_taxon, p_root, universe, run.stk) < 0
        || side_from_lists(Q, q_left, q_right, q_taxon, q_root, universe, run.stk) < 0
        || index_leaves(P, run.pleaf) < 0 || index_leaves(Q, run.qleaf) < 0)
        goto done;
    for (r = 0; r < P->nl && run.qleaf[P->taxon[P->leaves[r]]] >= 0; r++)
        ;
    if (r < P->nl || P->nl != Q->nl) {
        PyErr_SetString(PyExc_ValueError, "P and Q carry different leaf taxa");
        goto done;
    }
    ctx_map(top, run.qleaf);
    run.work += P->m + Q->m;
    run.work += P->tlen + Q->tlen;
    run.work += P->m;
    if (run_frames(&run) < 0 || flush_output(&run) < 0)
        goto done;

    result = Py_BuildValue("(OLLLLO)", run.tri_arr, run.emitted, run.frames,
                           run.work, run.violations, run.dr_arr);
done:
    run_free(&run);
    return result;
}

static PyMethodDef fast_methods[] = {
    {"run_enumeration", (PyCFunction)(void (*)(void))run_enumeration,
     METH_VARARGS | METH_KEYWORDS, run_enumeration_doc},
    {NULL, NULL, 0, NULL},
};

PyDoc_STRVAR(fast_doc,
"Compiled enumeration kernel.\n"
"\n"
"Twin of ``tripcon._kernels.pure``: same recursion, same emission order,\n"
"same work-counter arithmetic (the cross-backend tests pin all three).\n"
"See ``tripcon.enumeration`` for the algorithm and counter contract.");

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
