/* Edge-list RK4 of the adaptive network: the C twin of _kernels_py.integrate_edges,
 * which states the contract. Plain CPython API and buffer protocol only; built on
 * first import by _backend.load_c_kernel. Every expression runs in the numpy
 * kernel's order, so without fused multiply-add (-ffp-contract=off in
 * _backend.CFLAGS) the two agree bit for bit. */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>
#include <stdint.h>
#include <string.h>

static const double TWO_PI = 6.283185307179586476925286766559;

/* _kernels_py.wrap_to_2pi: fmod moved into [0, 2 pi], then zero and the 2 pi
 * that a tiny negative x rounds to both as +0 */
static double wrap(double x)
{
    double t = fmod(x, TWO_PI);
    if (t < 0.0) t += TWO_PI;
    return t == 0.0 || t == TWO_PI ? 0.0 : t;
}

typedef struct {
    Py_ssize_t n, e, tn;
    const int64_t *recv, *src;
    const double *freqs, *table;
    double gamma, mu, offset;
    int kind;
} Net;

/* Gamma(s): cos(s), cos(s - offset) or the periodic linear interpolation of table */
static double rule(const Net *c, double s)
{
    if (c->kind == 0) return cos(s);
    if (c->kind == 1) return cos(s - c->offset);
    double t = wrap(s) * ((double)c->tn / TWO_PI);
    if (isnan(t)) return t;
    double base = floor(t), frac = t - base;
    Py_ssize_t i0 = (Py_ssize_t)base % c->tn;
    return c->table[i0] * (1.0 - frac) + c->table[(i0 + 1) % c->tn] * frac;
}

/* (dth (N,), dk (E,)) at (th, k); receiver sums start at 0, in edge order (np.bincount) */
static void edge_rhs(const Net *c, const double *th, const double *k, double *dth, double *dk)
{
    memset(dth, 0, c->n * sizeof(double));
    for (Py_ssize_t e = 0; e < c->e; e++) {
        double d = th[c->src[e]] - th[c->recv[e]];
        dth[c->recv[e]] += k[e] * sin(d);
        dk[e] = c->mu * rule(c, d) - c->gamma * k[e];
    }
    for (Py_ssize_t i = 0; i < c->n; i++) dth[i] = c->freqs[i] + dth[i];
}

/* the buffer arguments in call order: float64 ('d') or int64 ('q') */
static const struct { const char *name; char fmt; int ndim, writable; } ARGS[8] = {
    {"theta0", 'd', 1, 0}, {"k_e0", 'd', 1, 0}, {"recv", 'q', 1, 0}, {"src", 'q', 1, 0},
    {"freqs", 'd', 1, 0}, {"table", 'd', 1, 0}, {"thetas_out", 'd', 2, 1}, {"kes_out", 'd', 2, 1},
};

/* Borrow obj as a C-contiguous buffer shaped as ARGS[i]; errors name the argument. */
static int borrow(PyObject *obj, int i, Py_buffer *view)
{
    const char *name = ARGS[i].name, *f;
    if (PyObject_GetBuffer(obj, view, PyBUF_RECORDS_RO) < 0)
        return PyErr_Format(PyExc_TypeError, "%s must be an array", name), -1;
    f = view->format ? view->format : "B";
    if (view->itemsize != 8 || f[0] == '\0' || f[1] != '\0' ||
        (ARGS[i].fmt == 'd' ? f[0] != 'd' : f[0] != 'q' && f[0] != 'l'))
        PyErr_Format(PyExc_TypeError, "%s must be %s", name, ARGS[i].fmt == 'd' ? "float64" : "int64");
    else if (view->ndim != ARGS[i].ndim)
        PyErr_Format(PyExc_ValueError, "%s must be %d-dimensional", name, ARGS[i].ndim);
    else if (!PyBuffer_IsContiguous(view, 'C'))
        PyErr_Format(PyExc_ValueError, "%s must be C-contiguous", name);
    else if (ARGS[i].writable && view->readonly)
        PyErr_Format(PyExc_ValueError, "%s must be writable", name);
    else
        return 0;
    return -1;
}

static PyObject *integrate_edges(PyObject *self, PyObject *args)
{
    PyObject *o[8];
    Py_buffer v[8] = {{0}};
    Net c;
    double step;
    Py_ssize_t stride, n_valid = -1;
    if (!PyArg_ParseTuple(args, "OOOOOddidOdnOO", &o[0], &o[1], &o[2], &o[3], &o[4], &c.gamma,
                          &c.mu, &c.kind, &c.offset, &o[5], &step, &stride, &o[6], &o[7]))
        return NULL;
    for (int i = 0; i < 8; i++)
        if (borrow(o[i], i, &v[i]) < 0) goto done;
    c.recv = v[2].buf, c.src = v[3].buf, c.freqs = v[4].buf, c.table = v[5].buf;
    c.n = v[0].shape[0], c.e = v[1].shape[0], c.tn = v[5].shape[0];
    Py_ssize_t n = c.n, e = c.e, records = v[6].shape[0];
    const char *bad = NULL;
    if (v[2].shape[0] != e || v[3].shape[0] != e) bad = "recv and src must have the length of k_e0";
    else if (v[4].shape[0] != n) bad = "freqs must have the length of theta0";
    else if (records < 1 || v[6].shape[1] != n) bad = "thetas_out must have shape (records >= 1, N)";
    else if (v[7].shape[0] != records || v[7].shape[1] != e) bad = "kes_out must have shape (records, E)";
    else if (stride < 1) bad = "stride must be >= 1";
    else if (c.kind < 0 || c.kind > 2) bad = "kind must be 0, 1 or 2";
    else if (c.kind == 2 && c.tn < 1) bad = "table must hold at least 1 sample for kind 2";
    for (Py_ssize_t i = 0; !bad && i < e; i++) {
        if (c.recv[i] < 0 || c.recv[i] >= n) bad = "recv must lie in [0, N)";
        if (c.src[i] < 0 || c.src[i] >= n) bad = "src must lie in [0, N)";
    }
    if (bad) {
        PyErr_SetString(PyExc_ValueError, bad);
        goto done;
    }

    /* the state, one trial state and the four stage slopes, for theta (N) and k (E) */
    double *buf = PyMem_Malloc((6 * n + 6 * e) * sizeof(double)), *thetas = v[6].buf, *kes = v[7].buf;
    if (!buf) {
        PyErr_NoMemory();
        goto done;
    }
    double *th = buf, *tt = th + n, *ts[4] = {tt + n, tt + 2 * n, tt + 3 * n, tt + 4 * n};
    double *k = tt + 5 * n, *kt = k + e, *ks[4] = {kt + e, kt + 2 * e, kt + 3 * e, kt + 4 * e};
    const double h = step, h2 = 0.5 * step, h6 = step / 6.0;
    memcpy(th, v[0].buf, n * sizeof(double));
    memcpy(k, v[1].buf, e * sizeof(double));
    n_valid = 1;
    Py_BEGIN_ALLOW_THREADS
    for (Py_ssize_t rec = 1; rec < records; rec++) {
        for (Py_ssize_t s = 0; s < stride; s++) {
            edge_rhs(&c, th, k, ts[0], ks[0]);
            for (int q = 1; q < 4; q++) {  /* slopes at the state + (h/2, h/2, h) x the last */
                const double a = q < 3 ? h2 : h;
                for (Py_ssize_t i = 0; i < n; i++) tt[i] = th[i] + a * ts[q - 1][i];
                for (Py_ssize_t i = 0; i < e; i++) kt[i] = k[i] + a * ks[q - 1][i];
                edge_rhs(&c, tt, kt, ts[q], ks[q]);
            }
            for (Py_ssize_t i = 0; i < n; i++)
                th[i] = wrap(th[i] + h6 * (ts[0][i] + 2.0 * ts[1][i] + 2.0 * ts[2][i] + ts[3][i]));
            for (Py_ssize_t i = 0; i < e; i++)
                k[i] = k[i] + h6 * (ks[0][i] + 2.0 * ks[1][i] + 2.0 * ks[2][i] + ks[3][i]);
        }
        memcpy(thetas + rec * n, th, n * sizeof(double));  /* written, finite or not */
        memcpy(kes + rec * e, k, e * sizeof(double));
        int finite = 1;
        for (Py_ssize_t i = 0; i < n; i++) finite &= isfinite(th[i]) != 0;
        for (Py_ssize_t i = 0; i < e; i++) finite &= isfinite(k[i]) != 0;
        if (!finite) break;
        n_valid = rec + 1;
    }
    Py_END_ALLOW_THREADS
    PyMem_Free(buf);
done:
    for (int i = 0; i < 8; i++) PyBuffer_Release(&v[i]);
    return n_valid < 0 ? NULL : PyLong_FromSsize_t(n_valid);
}

static PyMethodDef methods[] = {
    {"integrate_edges", integrate_edges, METH_VARARGS,
     "integrate_edges(theta0, k_e0, recv, src, freqs, gamma, mu, kind, offset, table, step, stride, "
     "thetas_out, kes_out) -> n_valid"},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {PyModuleDef_HEAD_INIT, "_kernels_c", NULL, -1, methods};

PyMODINIT_FUNC PyInit__kernels_c(void)
{
    PyObject *m = PyModule_Create(&module);
    if (m && PyModule_AddStringConstant(m, "BACKEND_NAME", "c") < 0) Py_CLEAR(m);
    return m;
}
