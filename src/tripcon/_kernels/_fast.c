/*
 * Compiled enumeration kernel: the C99 twin of tripcon._kernels.pure.
 *
 * Same recursion, same emission order and same work-counter arithmetic
 * as the pure kernel (the cross-backend tests pin all three).  Every
 * per-tree structure lives in flat malloc'ed int arrays and is rebuilt
 * here rather than imported from the Python modules, so the hot path
 * never leaves C.  See tripcon.enumeration for the algorithm and the
 * counter contract.
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

static void *xcalloc(size_t n, size_t size)
{
    void *p = calloc(n ? n : 1, size);
    if (p == NULL)
        PyErr_NoMemory();
    return p;
}

static int *ints(Py_ssize_t n)
{
    return xmalloc((size_t)n * sizeof(int));
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
    int *bminpos, *bminval, *pat, *tbl, *lg, *st; /* +-1 RMQ */
    unsigned char *tflag;
    int m, root, nl, tlen, b, nb;
} Side;

static void side_free(Side *s)
{
    if (s == NULL)
        return;
    free(s->left);
    free(s->right);
    free(s->taxon);
    free(s->post);
    free(s->lc);
    free(s->lb);
    free(s->depth);
    free(s->popo);
    free(s->leaves);
    free(s->tour);
    free(s->tdep);
    free(s->fo);
    free(s->bminpos);
    free(s->bminval);
    free(s->pat);
    free(s->tbl);
    free(s->lg);
    free(s->st);
    free(s->tflag);
    free(s);
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

static int rmq_build(Side *s)
{
    int n = s->tlen;
    int bl = 0, t = n;
    int b, nb, npat, j, start, end, best, bv, p, i;
    int levels, k, half, width, a, c;
    const int *d = s->tdep;

    while (t) {
        bl++;
        t >>= 1;
    }
    b = (bl - 1) / 2;
    if (b < 1)
        b = 1;
    nb = (n + b - 1) / b;
    s->b = b;
    s->nb = nb;

    npat = 1 << (b - 1);
    s->bminpos = ints(nb);
    s->bminval = ints(nb);
    s->pat = ints(nb);
    s->tbl = ints((Py_ssize_t)npat * b * b);
    s->tflag = xcalloc((size_t)npat, 1);
    s->lg = xcalloc((size_t)nb + 1, sizeof(int));
    if (!s->bminpos || !s->bminval || !s->pat || !s->tbl || !s->tflag || !s->lg)
        return -1;

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

    for (i = 2; i <= nb; i++)
        s->lg[i] = s->lg[i >> 1] + 1;

    levels = s->lg[nb] + 1;
    s->st = ints((Py_ssize_t)levels * nb);
    if (s->st == NULL)
        return -1;
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
    return 0;
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

/* Derive post-order data, the Euler tour, and the RMQ structures. */
static int side_finish(Side *s)
{
    int m = s->m;
    int sp, npost = 0, nleaf = 0, tpos = 0;
    int x, v, ph, lcn, rcn;
    int *stk;

    s->nl = (m + 1) / 2;
    s->tlen = 2 * m - 1; /* internal nodes appear 3x, leaves once */
    s->post = ints(m);
    s->lc = ints(m);
    s->lb = ints(m);
    s->depth = ints(m);
    s->popo = ints(m);
    s->leaves = ints(s->nl);
    s->tour = ints(s->tlen);
    s->tdep = ints(s->tlen);
    s->fo = ints(m);
    stk = ints(2 * (Py_ssize_t)m + 4);
    if (!s->post || !s->lc || !s->lb || !s->depth || !s->popo || !s->leaves
        || !s->tour || !s->tdep || !s->fo || !stk) {
        free(stk);
        return -1;
    }

    s->depth[s->root] = 0;
    stk[0] = s->root << 1;
    sp = 1;
    while (sp) {
        x = stk[--sp];
        v = x >> 1;
        if (x & 1) {
            lcn = s->left[v];
            rcn = s->right[v];
            s->lc[v] = s->lc[lcn] + s->lc[rcn];
            s->post[v] = npost;
            s->popo[npost++] = v;
            continue;
        }
        s->lb[v] = nleaf;
        lcn = s->left[v];
        if (lcn < 0) {
            s->lc[v] = 1;
            s->post[v] = npost;
            s->popo[npost++] = v;
            s->leaves[nleaf++] = v;
        } else {
            rcn = s->right[v];
            s->depth[lcn] = s->depth[v] + 1;
            s->depth[rcn] = s->depth[v] + 1;
            stk[sp] = (v << 1) | 1;
            stk[sp + 1] = rcn << 1;
            stk[sp + 2] = lcn << 1;
            sp += 3;
        }
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
    free(stk);
    return rmq_build(s);
}

/* A Side with its arena allocated for m nodes; NULL on failure. */
static Side *side_alloc(int m)
{
    Side *s = xcalloc(1, sizeof *s);
    if (s == NULL)
        return NULL;
    s->m = m;
    s->left = ints(m);
    s->right = ints(m);
    s->taxon = ints(m);
    if (!s->left || !s->right || !s->taxon) {
        side_free(s);
        return NULL;
    }
    return s;
}

/* Induced subtree over k >= 2 post-ordered leaves (stack sweep). */
static Side *side_from_leaflist(const Side *parent, const int *z, int k)
{
    Side *s = side_alloc(2 * k - 1);
    int *odep = ints(2 * (Py_ssize_t)k - 1);
    int *stk = ints(2 * (Py_ssize_t)k + 2);
    int sp, nid, i, bnd, bd, top, nxt, inner, leaf;

    if (s == NULL || odep == NULL || stk == NULL)
        goto fail;

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
    free(odep);
    free(stk);
    if (side_finish(s) < 0) {
        side_free(s);
        return NULL;
    }
    return s;

fail:
    side_free(s);
    free(odep);
    free(stk);
    return NULL;
}

/* Copy a list of ints, each in [lo, hi), into a new int array. */
static int *ints_from_list(PyObject *list, long lo, long hi, const char *what)
{
    Py_ssize_t i, n = PyList_GET_SIZE(list);
    int *out = ints(n);
    long v;

    if (out == NULL)
        return NULL;
    for (i = 0; i < n; i++) {
        v = PyLong_AsLong(PyList_GET_ITEM(list, i));
        if (v == -1 && PyErr_Occurred())
            goto fail;
        if (v < lo || v >= hi) {
            PyErr_Format(PyExc_ValueError, "%s[%zd] = %ld is out of range",
                         what, i, v);
            goto fail;
        }
        out[i] = (int)v;
    }
    return out;

fail:
    free(out);
    return NULL;
}

/* The top-level Side of a finalized tree given as parallel lists.  Ids are
   range-checked; the shape must be a full binary tree, as tripcon.tree.Tree
   guarantees. */
static Side *side_from_lists(PyObject *left, PyObject *right, PyObject *taxon,
                             int root, int universe)
{
    Py_ssize_t m = PyList_GET_SIZE(left);
    Side *s;

    if (m < 1 || m >= (INT_MAX >> 2) || PyList_GET_SIZE(right) != m
        || PyList_GET_SIZE(taxon) != m || root < 0 || root >= m) {
        PyErr_SetString(PyExc_ValueError,
                        "left, right and taxon must have one equal, non-zero "
                        "length and root must index into them");
        return NULL;
    }
    s = xcalloc(1, sizeof *s);
    if (s == NULL)
        return NULL;
    s->m = (int)m;
    s->root = root;
    if ((s->left = ints_from_list(left, -1, (long)m, "left")) == NULL
        || (s->right = ints_from_list(right, -1, (long)m, "right")) == NULL
        || (s->taxon = ints_from_list(taxon, -1, universe, "taxon")) == NULL
        || side_finish(s) < 0) {
        side_free(s);
        return NULL;
    }
    return s;
}

static void write_scratch(const Side *s, int *scratch)
{
    int r;
    for (r = 0; r < s->nl; r++)
        scratch[s->taxon[s->leaves[r]]] = s->leaves[r];
}

/* ====================================================================== */
/* Owned tree pair (a recursion context)                                  */
/* ====================================================================== */

typedef struct {
    Side *p, *q;
    int *m; /* leaf-set-equivalence map P -> Q */
} Ctx;

static void ctx_free(Ctx *c)
{
    if (c == NULL)
        return;
    side_free(c->p);
    side_free(c->q);
    free(c->m);
    free(c);
}

/* ====================================================================== */
/* The run                                                                */
/* ====================================================================== */

typedef struct {
    int store;
    long long work, frames, violations, emitted;
    /* output: flat triples (array('i')) and per-frame d_r (array('q')),
       each filled through a fixed chunk buffer */
    PyObject *tri_arr, *dr_arr;
    int *tri;
    long long *dr;
    int ntri, ndr;
    /* frame stack (ci, rp, rq per frame) */
    int *fs;
    Py_ssize_t fs_len, fs_cap;
    /* every context made so far */
    Ctx **ctxs;
    int nctx, ctx_cap;
    /* universe-sized taxon -> current leaf scratch */
    int *pleaf, *qleaf;
    /* partition buffers (8 of size u) and their fills */
    int *part;
    int pn[8];
    /* LSC scratch */
    int *zlca, *ztax, *zpost, *par, *plo, *phi, *podep, *pstk;
} Run;

static int run_init(Run *run, int universe, int store)
{
    Py_ssize_t u = universe > 0 ? universe : 1;

    run->store = store;
    run->tri_arr = PyObject_CallFunction(array_type, "s", "i");
    run->dr_arr = PyObject_CallFunction(array_type, "s", "q");
    if (run->tri_arr == NULL || run->dr_arr == NULL)
        return -1;
    run->tri = ints(TRI_CHUNK);
    run->dr = xmalloc(DR_CHUNK * sizeof(long long));
    run->fs_cap = 3 * 64;
    run->fs = ints(run->fs_cap);
    run->ctx_cap = 64;
    run->ctxs = xmalloc((size_t)run->ctx_cap * sizeof(Ctx *));
    run->pleaf = ints(u);
    run->qleaf = ints(u);
    run->part = ints(8 * u);
    run->zlca = ints(u + 2);
    run->ztax = ints(u + 2);
    run->zpost = ints(u + 2);
    run->par = ints(2 * u + 4);
    run->plo = ints(2 * u + 4);
    run->phi = ints(2 * u + 4);
    run->podep = ints(2 * u + 4);
    run->pstk = ints(2 * u + 6);
    if (!run->tri || !run->dr || !run->fs || !run->ctxs || !run->pleaf
        || !run->qleaf || !run->part || !run->zlca || !run->ztax
        || !run->zpost || !run->par || !run->plo || !run->phi
        || !run->podep || !run->pstk)
        return -1;
    return 0;
}

static void run_free(Run *run)
{
    int i;
    Py_XDECREF(run->tri_arr);
    Py_XDECREF(run->dr_arr);
    for (i = 0; i < run->nctx; i++)
        ctx_free(run->ctxs[i]);
    free(run->ctxs);
    free(run->tri);
    free(run->dr);
    free(run->fs);
    free(run->pleaf);
    free(run->qleaf);
    free(run->part);
    free(run->zlca);
    free(run->ztax);
    free(run->zpost);
    free(run->par);
    free(run->plo);
    free(run->phi);
    free(run->podep);
    free(run->pstk);
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

/* Bundle a tree pair with its leaf-set-equivalence map and append it to
   the run's contexts.  Takes ownership of p and q; returns the context
   index, or -1 on failure. */
static int run_add_ctx(Run *run, Side *p, Side *q)
{
    Ctx *c = xcalloc(1, sizeof *c);
    Ctx **grown;
    int i, v;

    if (c == NULL) {
        side_free(p);
        side_free(q);
        return -1;
    }
    c->p = p;
    c->q = q;
    c->m = ints(p->m);
    if (c->m == NULL)
        goto fail;
    for (i = 0; i < p->m; i++) {
        v = p->popo[i];
        if (p->left[v] < 0)
            c->m[v] = run->qleaf[p->taxon[v]];
        else
            c->m[v] = lca(q, c->m[p->left[v]], c->m[p->right[v]]);
    }
    if (run->nctx == run->ctx_cap) {
        grown = realloc(run->ctxs, 2 * (size_t)run->ctx_cap * sizeof(Ctx *));
        if (grown == NULL) {
            PyErr_NoMemory();
            goto fail;
        }
        run->ctxs = grown;
        run->ctx_cap *= 2;
    }
    run->ctxs[run->nctx] = c;
    return run->nctx++;

fail:
    ctx_free(c);
    return -1;
}

static int push_frame(Run *run, int ci, int rp, int rq)
{
    int *grown;
    if (run->fs_len + 3 > run->fs_cap) {
        grown = realloc(run->fs, 2 * (size_t)run->fs_cap * sizeof(int));
        if (grown == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        run->fs = grown;
        run->fs_cap *= 2;
    }
    run->fs[run->fs_len] = ci;
    run->fs[run->fs_len + 1] = rp;
    run->fs[run->fs_len + 2] = rq;
    run->fs_len += 3;
    return 0;
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
    int *podep = run->podep, *pstk = run->pstk;

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

/* The frame recursion; fills run's counters and output. */
static int run_frames(Run *run, int universe)
{
    int u = universe > 0 ? universe : 1;
    int *bufs[8];
    int child_ci[4], child_rp[4], child_rq[4];
    int nchild, ci, rp, rq, up, vp, uq, vq, tswap;
    int base, end, r, leaf, nz, i, pi, x_p, x_q, other_p;
    int ai, bi, cri, ta, tb;
    long long before, d_r;
    const Ctx *ctx;
    const Side *P, *Q;
    Side *cp_side, *cq_side;
    int *pn = run->pn;

    for (i = 0; i < 8; i++)
        bufs[i] = run->part + (Py_ssize_t)i * u;

    while (run->fs_len) {
        run->fs_len -= 3;
        ci = run->fs[run->fs_len];
        rp = run->fs[run->fs_len + 1];
        rq = run->fs[run->fs_len + 2];
        ctx = run->ctxs[ci];
        P = ctx->p;
        Q = ctx->q;
        run->frames += 1;
        run->work += 1;
        if (P->lc[rp] <= 1) {
            if (push_dr(run, 0) < 0)
                return -1;
            continue;
        }

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
            if (push_dr(run, 0) < 0 || push_frame(run, ci, vp, vq) < 0
                || push_frame(run, ci, up, uq) < 0)
                return -1;
            continue;
        }

        /* ---- partition both pairs ---------------------------------- */
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

        /* ---- conflicts touching the current roots -------------------- */
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
        if (push_dr(run, d_r) < 0)
            return -1;
        if (P->lc[rp] > d_r + 2)
            run->violations += 1;

        /* ---- children ------------------------------------------------ */
        nchild = 0;
        for (i = 0; i < 4; i++) {
            nz = pn[SPEC_Z[i]];
            if (nz < 3)
                continue;
            cp_side = side_from_leaflist(P, bufs[SPEC_Z[i]], nz);
            cq_side = side_from_leaflist(Q, bufs[SPEC_ZQ[i]], nz);
            if (cp_side == NULL || cq_side == NULL) {
                side_free(cp_side);
                side_free(cq_side);
                return -1;
            }
            write_scratch(cp_side, run->pleaf);
            write_scratch(cq_side, run->qleaf);
            run->work += 2 * nz;
            run->work += cp_side->m + cq_side->m;
            run->work += cp_side->tlen + cq_side->tlen;
            run->work += cp_side->m;
            child_rp[nchild] = cp_side->root;
            child_rq[nchild] = cq_side->root;
            child_ci[nchild] = run_add_ctx(run, cp_side, cq_side);
            if (child_ci[nchild] < 0)
                return -1;
            nchild++;
        }
        for (i = nchild - 1; i >= 0; i--)
            if (push_frame(run, child_ci[i], child_rp[i], child_rq[i]) < 0)
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
"per_frame_dr an array('q').");

static PyObject *run_enumeration(PyObject *module, PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"p_left", "p_right", "p_taxon", "p_root",
                             "q_left", "q_right", "q_taxon", "q_root",
                             "universe", "store", NULL};
    PyObject *p_left, *p_right, *p_taxon, *q_left, *q_right, *q_taxon;
    PyObject *result = NULL;
    int p_root, q_root, universe, store = 1, ci;
    Side *P0 = NULL, *Q0 = NULL;
    Run run = {0};

    (void)module;
    if (!PyArg_ParseTupleAndKeywords(
            args, kwargs, "O!O!O!iO!O!O!ii|p:run_enumeration", kwlist,
            &PyList_Type, &p_left, &PyList_Type, &p_right,
            &PyList_Type, &p_taxon, &p_root,
            &PyList_Type, &q_left, &PyList_Type, &q_right,
            &PyList_Type, &q_taxon, &q_root, &universe, &store))
        return NULL;

    if (run_init(&run, universe, store) < 0)
        goto done;
    P0 = side_from_lists(p_left, p_right, p_taxon, p_root, universe);
    Q0 = side_from_lists(q_left, q_right, q_taxon, q_root, universe);
    if (P0 == NULL || Q0 == NULL) {
        side_free(P0);
        side_free(Q0);
        goto done;
    }
    write_scratch(P0, run.pleaf);
    write_scratch(Q0, run.qleaf);
    run.work += P0->m + Q0->m;
    run.work += P0->tlen + Q0->tlen;
    run.work += P0->m;
    ci = run_add_ctx(&run, P0, Q0);
    if (ci < 0 || push_frame(&run, ci, p_root, q_root) < 0
        || run_frames(&run, universe) < 0 || flush_output(&run) < 0)
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
