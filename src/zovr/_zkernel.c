/* The z kernel of prng.normals: a CPython extension module whose one call
 * makes a whole window of normals with the interpreter lock released from
 * start to end. It also draws the minibatches of estimators.sample_minibatch
 * (`sample`, below), for which prng's `_python_sample` is the path without the
 * kernel and the reference it is tested against.
 *
 * Built by prng at import with -O2 -fPIC -shared -ffp-contract=off and
 * nothing that licenses value-changing rewrites: no -ffast-math (which lets
 * GCC send cos to libmvec) and no -march=native. A window is taken in blocks
 * of BLOCK values. Each block mixes its stream words and writes u1 and the
 * angle 2 pi u2 into scratch, runs numpy's own float64 log loop on u1 in
 * place, and finishes Box-Muller, writing scale * z into a fresh array or
 * adding it into a target. Each value takes the operations of prng's numpy
 * reference in the same order, and a target takes `z *= scale; target += z`'s
 * one multiply and one add, so the two agree bit for bit.
 *
 * The log is numpy's, not libm's: the two differ in the last bit. The loop is
 * the first d->d entry of np.log's loop table, the one numpy set at import to
 * the loop it dispatched for this CPU, so the kernel follows numpy to
 * whichever loop that is. The scratch comes from PyMem_RawMalloc, which
 * tracemalloc sees: a block's angles and, when adding into a target, their u1,
 * at most BLOCK values each (a fresh window takes u1 in place). The other
 * tables are static const or on the stack.
 *
 * Box-Muller is path-sorted. glibc's cos (s_sin.c, 2.28+) takes a different
 * branch in each of the nine intervals that PATH_EDGES cut from [0, 2 pi): its
 * small, pi/2-reflected and reduced ranges, the Taylor neighbourhoods of pi/2
 * and 3 pi/2, and the quadrants after reduction. On angles in stream order
 * the predictor cannot guess those branches. So in a window of at least BLOCK
 * values each block calls cos on its angles grouped by interval, ordered by a
 * counting sort into index arrays on the stack. Every value is still the same
 * cos, sqrt and multiply of the same inputs, so the edges can only change
 * speed, never a result, whatever the libm. A shorter window keeps the
 * straight loop: there the sort costs more than it saves. */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#define NPY_NO_DEPRECATED_API NPY_1_7_API_VERSION
#include <numpy/arrayobject.h>
#include <numpy/ufuncobject.h>
#include <math.h>
#include <stdint.h>
#include <string.h>

static const uint64_t GOLDEN = 0x9E3779B97F4A7C15ULL;

enum { BLOCK = 1024, PATHS = 9 };

/* 0.855469 and 2.426265 bound glibc's |x| < 0.855469 and pi/2 - |x| ranges;
 * pi/2 and 3 pi/2 +- 0.126 its Taylor sin; 5 pi/4 and 7 pi/4 its quadrants. */
static const double PATH_EDGES[PATHS - 1] = {
    0.855469, 1.5707963267948966 - 0.126, 1.5707963267948966 + 0.126, 2.426265,
    3.9269908169872414, 4.71238898038469 - 0.126, 4.71238898038469 + 0.126,
    5.497787143782138,
};

/* np.log, held for the life of the process, and its float64 loop */
static PyObject *log_ufunc;
static PyUFuncGenericFunction log_loop;
static void *log_data;

static uint64_t mix64(uint64_t x)
{
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
}

/* u1[j] = (even word >> 11) * 2^-53 + 2^-53 in (0, 1]; angle[j] = (odd word
 * >> 11) * (fl(2 pi) * 2^-53). `first` is the counter of the block's first
 * even word; its odd partner's is one GOLDEN more. */
static void uniform_pairs(uint64_t first, int n, double *u1, double *angle)
{
    const double scale = 0x1p-53, step = (2.0 * 3.141592653589793) * 0x1p-53;
    for (int j = 0; j < n; j++) {
        uint64_t counter = first + 2 * (uint64_t)j * GOLDEN;
        u1[j] = (double)(int64_t)(mix64(counter) >> 11) * scale + scale;
        angle[j] = (double)(int64_t)(mix64(counter + GOLDEN) >> 11) * step;
    }
}

static void log_in_place(double *x, int n)
{
    char *args[2] = {(char *)x, (char *)x};
    npy_intp dims[1] = {n};
    npy_intp steps[2] = {sizeof(double), sizeof(double)};
    log_loop(args, dims, steps, log_data);
}

/* dst[j] = scale * z, or dst[j] += scale * z, for z = sqrt(-2 log u1) * cos
 * of the angle, once r[j] holds log(u1) */
static inline void finish(double *dst, const double *r, const double *a, int j,
                          double scale, int add)
{
    double z = sqrt(r[j] * -2.0) * cos(a[j]);
    if (add)
        dst[j] += z * scale;
    else
        dst[j] = z * scale;
}

/* Box-Muller on one block of n <= BLOCK values, grouped by cos path if `sorted` */
static void box_muller(int n, const double *r, const double *a, double *dst,
                       double scale, int add, int sorted)
{
    if (!sorted) {
        for (int j = 0; j < n; j++)
            finish(dst, r, a, j, scale, add);
        return;
    }
    uint8_t path[BLOCK];
    uint16_t order[BLOCK];
    for (int i = 0; i < n; i++) {
        int key = 0;
        for (int e = 0; e < PATHS - 1; e++)
            key += a[i] >= PATH_EDGES[e];
        path[i] = (uint8_t)key;
    }
    int next[PATHS] = {0};  /* the first slot of each path, then its next */
    for (int i = 0; i < n; i++)
        next[path[i]]++;
    for (int k = 0, slot = 0; k < PATHS; k++) {
        int size = next[k];
        next[k] = slot;
        slot += size;
    }
    for (int i = 0; i < n; i++)
        order[next[path[i]]++] = (uint16_t)i;
    for (int i = 0; i < n; i++)
        finish(dst, r, a, order[i], scale, add);
}

/* The window of `count` normals whose first even word has counter `first`,
 * into dst. `scratch` holds the angles, min(count, BLOCK) of them, and, if
 * `add`, as many u1 after them; a fresh window takes u1 in dst itself. */
static void window(uint64_t first, Py_ssize_t count, double *dst, double scale, int add,
                   double *scratch)
{
    double *a = scratch, *r = scratch + (count < BLOCK ? count : BLOCK);
    for (Py_ssize_t base = 0; base < count; base += BLOCK) {
        int n = count - base < BLOCK ? (int)(count - base) : BLOCK;
        if (!add)
            r = dst + base;
        uniform_pairs(first + 2 * (uint64_t)base * GOLDEN, n, r, a);
        log_in_place(r, n);
        box_muller(n, r, a, dst + base, scale, add, count >= BLOCK);
    }
}

/* A float64 array the kernel may write `count` values into directly */
static int writable(PyObject *obj, Py_ssize_t count)
{
    if (!PyArray_Check(obj))
        return 0;
    PyArrayObject *arr = (PyArrayObject *)obj;
    return PyArray_NDIM(arr) == 1 && PyArray_DIM(arr, 0) == count
           && PyArray_TYPE(arr) == NPY_DOUBLE && PyArray_ISCARRAY(arr)
           && PyArray_ISNOTSWAPPED(arr);
}

/* A python integer mod 2^64, as prng's `& _MASK` takes it */
static int as_word(PyObject *obj, uint64_t *word)
{
    PyObject *index = PyNumber_Index(obj);
    if (index == NULL)
        return -1;
    *word = PyLong_AsUnsignedLongLongMask(index);
    Py_DECREF(index);
    return *word == (uint64_t)-1 && PyErr_Occurred() ? -1 : 0;
}

static PyObject *normals(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    (void)module;
    if (nargs != 5) {
        PyErr_Format(PyExc_TypeError,
                     "normals takes (seed, start, count, add_to, scale), got %zd arguments",
                     nargs);
        return NULL;
    }
    uint64_t seed, start;
    if (as_word(args[0], &seed) < 0 || as_word(args[1], &start) < 0)
        return NULL;
    Py_ssize_t count = PyNumber_AsSsize_t(args[2], PyExc_OverflowError);
    if (count == -1 && PyErr_Occurred())
        return NULL;
    if (count < 0) {
        PyErr_Format(PyExc_ValueError, "count must be non-negative, got %zd", count);
        return NULL;
    }
    double scale = PyFloat_AsDouble(args[4]);
    if (scale == -1.0 && PyErr_Occurred())
        return NULL;
    PyObject *add_to = args[3], *out = NULL;
    double *dst;
    if (add_to == Py_None) {
        npy_intp dims[1] = {count};
        out = PyArray_SimpleNew(1, dims, NPY_DOUBLE);
        if (out == NULL)
            return NULL;
        dst = PyArray_DATA((PyArrayObject *)out);
    } else if (writable(add_to, count)) {
        dst = PyArray_DATA((PyArrayObject *)add_to);
    } else {
        Py_RETURN_NOTIMPLEMENTED;  /* prng adds it in numpy */
    }
    int rows = add_to == Py_None ? 1 : 2;
    double *scratch = PyMem_RawMalloc(rows * (count < BLOCK ? count : BLOCK) * sizeof(double));
    if (scratch == NULL) {
        Py_XDECREF(out);
        return PyErr_NoMemory();
    }
    /* counter of word 2(start+j) is 2(start+j)+1; its odd partner's is one more */
    uint64_t first = seed + (2 * start + 1) * GOLDEN;
    Py_BEGIN_ALLOW_THREADS
    window(first, count, dst, scale, add_to != Py_None, scratch);
    Py_END_ALLOW_THREADS
    PyMem_RawFree(scratch);
    if (out != NULL)
        return out;
    Py_RETURN_NONE;
}

/* Whether `value` was chosen before; if not, it is marked chosen. The table
 * has 2^bits slots, each 0 or a chosen value + 1, probed linearly from the
 * value's Fibonacci hash. */
static int chosen_before(uint64_t *table, int bits, uint64_t value)
{
    uint64_t mask = ((uint64_t)1 << bits) - 1;
    for (uint64_t i = (value * GOLDEN) >> (64 - bits);; i = (i + 1) & mask) {
        if (table[i] == value + 1)
            return 1;
        if (table[i] == 0) {
            table[i] = value + 1;
            return 0;
        }
    }
}

/* x[0..n) in ascending order: an LSD radix sort on the bytes of values up
 * to `max`, through `scratch` of n words. It allocates nothing, where numpy's
 * sort took 2.6 KiB of scratch even for 32 values. */
static void radix_sort(int64_t *x, int64_t *scratch, Py_ssize_t n, uint64_t max)
{
    for (int shift = 0; shift < 64 && (max >> shift) != 0; shift += 8) {
        Py_ssize_t next[256] = {0};  /* the count of each byte, then its next slot */
        for (Py_ssize_t i = 0; i < n; i++)
            next[((uint64_t)x[i] >> shift) & 255]++;
        for (Py_ssize_t d = 0, slot = 0; d < 256; d++) {
            Py_ssize_t size = next[d];
            next[d] = slot;
            slot += size;
        }
        for (Py_ssize_t i = 0; i < n; i++)
            scratch[next[((uint64_t)x[i] >> shift) & 255]++] = x[i];
        memcpy(x, scratch, n * sizeof *x);
    }
}

/* Floyd's sampler (Bentley, "A sample of brilliance", CACM 1987): b distinct
 * indices from [0, n), uniform over the size-b subsets, ascending. Draw k takes
 * word k of the stream mod n - b + 1 + k; where that index is already chosen
 * it takes n - b + k, which no earlier draw could reach. The chosen indices
 * are kept in a table of at least 2b words from PyMem_RawCalloc, which then
 * serves as the sort's scratch and is freed before the call returns. Only
 * integer operations run, so a batch depends on no CPU feature, compiler flag
 * or libm. n is read as an unsigned word, up to 2^63, the int64 bound. */
static PyObject *sample(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    (void)module;
    if (nargs != 3) {
        PyErr_Format(PyExc_TypeError, "sample takes (n, b, seed), got %zd arguments", nargs);
        return NULL;
    }
    PyObject *index = PyNumber_Index(args[0]);
    if (index == NULL)
        return NULL;
    uint64_t n = PyLong_AsUnsignedLongLong(index), seed;
    Py_DECREF(index);
    if (n == (uint64_t)-1 && PyErr_Occurred())
        return NULL;
    Py_ssize_t b = PyNumber_AsSsize_t(args[1], PyExc_OverflowError);
    if (b == -1 && PyErr_Occurred())
        return NULL;
    if (as_word(args[2], &seed) < 0)
        return NULL;
    if (b < 1 || (uint64_t)b > n || n > ((uint64_t)1 << 63)) {
        PyErr_Format(PyExc_ValueError, "need 1 <= b <= n <= 2**63, got b=%zd, n=%llu", b,
                     (unsigned long long)n);
        return NULL;
    }
    npy_intp dims[1] = {b};
    PyObject *out = PyArray_SimpleNew(1, dims, NPY_INT64);
    if (out == NULL)
        return NULL;
    int bits = 1;  /* at least 2b slots, so a probe ends within a few */
    while (((Py_ssize_t)1 << bits) < 2 * b)
        bits++;
    uint64_t *table = PyMem_RawCalloc((size_t)1 << bits, sizeof(uint64_t));
    if (table == NULL) {
        Py_DECREF(out);
        return PyErr_NoMemory();
    }
    int64_t *dst = PyArray_DATA((PyArrayObject *)out);
    for (Py_ssize_t k = 0; k < b; k++) {
        /* word k of the stream, mod the bound of draw k */
        uint64_t t = mix64(seed + (uint64_t)(k + 1) * GOLDEN) % (n - b + 1 + k);
        if (chosen_before(table, bits, t)) {
            t = n - b + k;  /* above every earlier draw's bound */
            chosen_before(table, bits, t);
        }
        dst[k] = (int64_t)t;
    }
    radix_sort(dst, (int64_t *)table, b, n - 1);  /* the table is scratch by now */
    PyMem_RawFree(table);
    return out;
}

static PyObject *box_muller_rows(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    (void)module;
    if (nargs != 3) {
        PyErr_Format(PyExc_TypeError,
                     "box_muller takes (rows, add_to, scale), got %zd arguments", nargs);
        return NULL;
    }
    PyArrayObject *rows = (PyArrayObject *)args[0];
    if (!PyArray_Check(args[0]) || PyArray_NDIM(rows) != 2 || PyArray_DIM(rows, 0) != 2
        || PyArray_TYPE(rows) != NPY_DOUBLE || !PyArray_ISCARRAY(rows)
        || !PyArray_ISNOTSWAPPED(rows)) {
        PyErr_SetString(PyExc_ValueError, "rows must be a writable C-contiguous (2, n) "
                                          "float64 array");
        return NULL;
    }
    Py_ssize_t count = PyArray_DIM(rows, 1);
    double scale = PyFloat_AsDouble(args[2]);
    if (scale == -1.0 && PyErr_Occurred())
        return NULL;
    double *r = PyArray_DATA(rows), *a = r + count, *dst = r;
    if (args[1] != Py_None) {
        if (!writable(args[1], count)) {
            PyErr_SetString(PyExc_ValueError, "add_to must be a writable C-contiguous "
                                              "float64 array of n values");
            return NULL;
        }
        dst = PyArray_DATA((PyArrayObject *)args[1]);
    }
    Py_BEGIN_ALLOW_THREADS
    for (Py_ssize_t base = 0; base < count; base += BLOCK) {
        int n = count - base < BLOCK ? (int)(count - base) : BLOCK;
        box_muller(n, r + base, a + base, dst + base, scale, args[1] != Py_None,
                   count >= BLOCK);
    }
    Py_END_ALLOW_THREADS
    Py_RETURN_NONE;
}

static PyMethodDef methods[] = {
    {"normals", (PyCFunction)(void (*)(void))normals, METH_FASTCALL,
     "normals(seed, start, count, add_to, scale): scale * z for the window, as a new "
     "array if add_to is None, else added into add_to and None returned. NotImplemented "
     "if add_to is not a writable C-contiguous float64 array of count values."},
    {"box_muller", (PyCFunction)(void (*)(void))box_muller_rows, METH_FASTCALL,
     "box_muller(rows, add_to, scale): the window's last stage on a (2, n) array of "
     "log(u1) and angles: scale * z into rows[0] if add_to is None, else added into it."},
    {"sample", (PyCFunction)(void (*)(void))sample, METH_FASTCALL,
     "sample(n, b, seed): b distinct indices from [0, n) by Floyd's algorithm on the "
     "stream `seed`, ascending, as an int64 array."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef zkernel_module = {
    PyModuleDef_HEAD_INIT, "_zkernel", "The compiled z kernel of zovr.prng.", -1, methods,
    NULL, NULL, NULL, NULL,
};

PyMODINIT_FUNC PyInit__zkernel(void)
{
    import_array();
    import_umath();
    if (log_ufunc == NULL) {
        PyObject *numpy = PyImport_ImportModule("numpy");
        if (numpy == NULL)
            return NULL;
        PyObject *log = PyObject_GetAttrString(numpy, "log");
        Py_DECREF(numpy);
        if (log == NULL)
            return NULL;
        PyUFuncObject *ufunc = (PyUFuncObject *)log;
        if (PyObject_TypeCheck(log, &PyUFunc_Type) && ufunc->nin == 1 && ufunc->nout == 1)
            for (int i = 0; i < ufunc->ntypes; i++)
                if (ufunc->types[2 * i] == NPY_DOUBLE && ufunc->types[2 * i + 1] == NPY_DOUBLE) {
                    log_loop = ufunc->functions[i];
                    log_data = ufunc->data == NULL ? NULL : ufunc->data[i];
                    break;
                }
        if (log_loop == NULL) {
            Py_DECREF(log);
            PyErr_SetString(PyExc_ImportError, "np.log has no float64 loop to call");
            return NULL;
        }
        log_ufunc = log;
    }
    return PyModule_Create(&zkernel_module);
}
