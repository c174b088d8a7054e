/* Compiled kernel: the C twin of _core_py.py (see that module's docstring):
 * e_l and the ratio q_s = s_{l-1}/s_l per chain argument, scaled, s_l from
 * the Wronskian, and each mode factor ln(1 - rho) of a plain-double round
 * trip rho < 1: rho_TE, and for TM rho_TE (tr M - rho_TE det M) from 2x2
 * shell matrices, with their ratio derivatives. Each node's chains for the
 * 16 orders of a block are kept in a node table, one per thread and keyed
 * by each node's bits, where the pure twin keys one shared table by each
 * batch's node tuple. A record also keeps its node's upward runs after the
 * last order its fill made, and a fill of a later block at that node goes
 * on from there; neither the table nor a run that goes on changes a bit.
 * Its Python-visible surface is the pure twin's: log_delta_point and the
 * two node entries, log_delta_nodes and dlog_delta_nodes, and family,
 * s_pair, e_pair, sr_norm, sr_mul, sr_add and gamma_arg, the very objects
 * of _rules.py (core_exec). The rules and chain steps the node fill runs
 * (c_norm, c_exp_split, c_miller_start, c_steps, c_e_run, c_log1m,
 * c_block_top and c_gamma) stay static twins of that module.
 *
 * Lockstep with _core_py.py: every chain and every mode factor performs the
 * same floating-point operations on the same doubles in the same order, so
 * both backends produce bit-identical doubles. How a loop comes by its
 * operands may differ: a chain step here converts its counter to the odd
 * factor 2j + 1, where the pure twin reads the same exact double from a
 * table; each chain here runs alone, where the pure fill runs a node's
 * chains as lanes of its two loops and keeps its scales as ints; and a
 * node's record here holds its rows and runs only, where the pure twin's
 * batch entry also holds the products that do not depend on l, and where
 * the pure twin keeps the runs of the nodes that its last clear dropped,
 * this table keeps each record's runs until the record goes. Edit the two
 * together or not at all, and build with -ffp-contract=off: a fused
 * multiply-add rounds once where the pure twin rounds twice.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <math.h>
#include <stdarg.h>
#include <stdint.h>
#include <string.h>

/* Chain rescale: mantissas above BIG move down by 2^-STEP, exactly. */
static const double STEP = 128.0;
static const double DOWN = 0x1p-128;
static const double BIG = 1e250;
/* Cody-Waite split of ln 2, bit patterns shared with the pure twin. */
static const double INV_LN2 = 0x1.71547652b82fep+0;
static const double LN2_HI = 0x1.62e42p-1;
static const double LN2_MID = 0x1.fdf44p-22;
static const double LN2_LO = 0x1.9ef35793c7673p-41;
/* Chain arguments stay in [Z_MIN, Z_MAX): below 2^32 the split's products
 * are exact (a Miller chain at z = 2^32 starts near order 4.7e5,
 * c_miller_start), and from 2^-64 up one step's factor (2j + 1)/z stays
 * below 2^128, the rescale, for every order below 2^60. */
static const double Z_MIN = 0x1p-64;
static const double Z_MAX = 0x1p+32;
/* Miller start constant 45 / asinh(1), bit pattern shared with the pure
 * twin. */
static const double MILLER_T = 0x1.98740f2ce783bp+5;
/* Chain blocks: the orders with one block top l + (1 - l) mod BLOCK take
 * q_s from one downward run started for the top (c_s_rows). */
#define BLOCK 16
/* Orders stay below 2^31, which a C long holds on every platform; the
 * rescale headroom (2^60) and the exact odd factors (2^52) lie far above. */
#define L_END 2147483648LL
/* The node table (table, below): at most NODE_CAP nodes, found by open
 * addressing in an index of 2^NODE_BITS entries, at most half of it used. */
#define NODE_CAP 256
#define NODE_BITS 9

typedef struct {
    double m;
    double k;
} SR;

/* rho_TE and rho_TM at one node, and their derivatives in ratio. */
typedef struct {
    double te;
    double tm;
    double dte;
    double dtm;
} Modes;

/* One order of a node's record, the pure twin's _ROW doubles (see _fill). */
typedef struct {
    double aa, nn, qeg, qer, qsg, qsr, qsx, qex;
} Row;

/* A node's record: its bits, whether it holds TM's chains, the top order
 * of its block and a row per order of that block, lowest order first; and
 * the upward state {e_n, e_{n-1}, offset} of each upward lane, at g, gr
 * and (with three) xr, after the last order its fills made, n. */
typedef struct {
    uint64_t key;
    int tm;
    int three;
    long top;
    long n;
    double run[3][3];
    Row rows[BLOCK];
} Node;

static const SR SR_ZERO = {0.0, 0.0};

/* The node table: the records of one (mu, ratio) only, of any block,
 * cleared when a node of another is filled or when it holds NODE_CAP
 * nodes. at[i] is 1 + the number of the record at index entry i, 0 for a
 * free entry. Per thread (about 283 KiB), so the node batch needs no lock
 * without the GIL; ratio is 0 until the first fill, and no call has that
 * ratio. */
static _Thread_local struct {
    double mu;
    double ratio;
    int n;
    short at[1 << NODE_BITS];
    Node node[NODE_CAP];
} table;


/* -- scaled primitives ---------------------------------------------------- */

/* m is a finite chain value: frexp leaves the exponent of inf and NaN
 * unspecified. */
static inline SR c_norm(double m, double k)
{
    int e;
    if (m == 0.0)
        return SR_ZERO;
    m = frexp(m, &e);
    return (SR){m, k + e};
}


/* exp(x) as {exp(r), n} with x = n ln 2 + r, n = floor(x / ln 2); see
 * _exp_split in _rules.py for why r is good to about an ulp. */
static inline SR c_exp_split(double x)
{
    double n = floor(x * INV_LN2);
    double r = ((x - n * LN2_HI) - n * LN2_MID) - n * LN2_LO;
    return (SR){exp(r), n};
}


/* -- modified Riccati-Bessel chains --------------------------------------- */

static inline double c_gamma(double xi, double mu)
{
    if (mu == 0.0)
        return xi;
    if (xi == 0.0)
        return mu;
    return sqrt(xi * xi + mu * mu);
}

/* Start order of the downward recurrence for s_l(z): the seed's share at
 * order l after a start at L is about exp(-2 int_l^L asinh(nu/z) dnu)
 * (DLMF 10.41), and asinh(nu/z) >= asinh(1) nu/z up to nu = z, so
 * L^2 - l^2 >= T z with T = 45/asinh(1) keeps it below e^-45 ~ 3e-20.
 * Past z the inequality fails, so a bound above z falls back to
 * max(l, z) + 26: for nu >= z, asinh(nu/z) >= asinh(1), so those 26 steps
 * alone give e^-45.8, at z < l as well as at z > l. */
static long c_miller_start(long l, double z)
{
    double b = ceil(sqrt((double)l * (double)l + MILLER_T * z)) + 1.0;
    if (b <= z)
        return (long)b;
    return (long)(z > (double)l ? z : (double)l) + 26;
}

/* The three-term step t = ym + (2j + 1)/z y of both chains, over n orders
 * from j in steps of dj: y is the newest value, ym the one before, and a y
 * above BIG moves both down by 2^-STEP and adds STEP to the offset. */
static inline void c_steps(long j, long n, long dj, double z, double *y,
                           double *ym, double *off)
{
    double t;
    for (; n > 0; n--, j += dj) {
        t = *ym + (2.0 * j + 1.0) / z * *y;
        *ym = *y;
        *y = t;
        if (*y > BIG) {
            *y *= DOWN;
            *ym *= DOWN;
            *off += STEP;
        }
    }
}

/* The top order of l's block, as _block_top, and the lowest order of top's
 * block. */
static long c_block_top(long l)
{
    return l + ((1 - l) % BLOCK + BLOCK) % BLOCK;
}

static long c_block_lo(long top)
{
    return top - BLOCK + 1 > 0 ? top - BLOCK + 1 : 0;
}

/* The upward run from e_{-1} = e_0 = exp(-z) to order l: e_l in *y and
 * e_{l-1} in *ym, both at the one offset *off, as _e_run. */
static void c_e_run(long l, double z, double *y, double *ym, double *off)
{
    SR e = c_exp_split(-z);
    *y = *ym = e.m;
    *off = e.k;
    c_steps(0, l, 1, z, y, ym, off);
}

/* q_e = e_{l-1}/e_l at the orders of top's block, lowest first, as one lane
 * of the pure fill's upward loop, and with e also e_l scaled: the upward
 * run read at the block's lowest order and after each further step. The
 * run goes on from s = {e_n, e_{n-1}, offset} at an order 0 < n <= lo, or
 * starts at order 0 when n is 0, and leaves s at order top + 1. */
static void c_e_rows(long top, double z, long n, double *s, double *qe,
                     SR *e)
{
    long lo = c_block_lo(top);
    long j;
    if (n == 0)
        c_e_run(lo, z, &s[0], &s[1], &s[2]);
    else
        c_steps(n, lo - n, 1, z, &s[0], &s[1], &s[2]);
    for (j = lo; j <= top; j++) {
        qe[j - lo] = s[1] / s[0];
        if (e != NULL)
            e[j - lo] = c_norm(s[0], s[2]);
        c_steps(j, 1, 1, z, &s[0], &s[1], &s[2]);
    }
}

/* q_s = s_{l-1}/s_l at the orders of top's block, lowest first, from one
 * downward run started at c_miller_start(top, z), as one lane of the pure
 * fill's Miller loop: after the step of order j the run holds y = s_{j-1}
 * and ym = s_j at one offset, so q_s of order j is y/ym. */
static void c_s_rows(long top, double z, double *qs)
{
    long start = c_miller_start(top, z);
    long lo = c_block_lo(top);
    long j;
    double ym = 0.0;
    double y = 1.0;
    double off = 0.0;
    c_steps(start, start - top, -1, z, &y, &ym, &off);
    for (j = top; j >= lo; j--) {
        c_steps(j, 1, -1, z, &y, &ym, &off);
        qs[j - lo] = y / ym;
    }
}


/* -- mode determinants ---------------------------------------------------- */

/* ln(1 - rho), NaN when rho >= 1 or rho is NaN, as _log1m: 1 - rho is
 * exact from 1/2 up, and k ln 2 goes by the split of c_exp_split. */
static double c_log1m(double rho)
{
    int k;
    double m;
    if (rho < 0.5)
        return log1p(-rho);
    if (!(rho < 1.0))
        return NAN;
    m = frexp(1.0 - rho, &k);
    return k * LN2_HI + (k * LN2_MID + (k * LN2_LO + log(m)));
}

/* d ln(1 - rho) = -drho/(1 - rho), NaN where c_log1m is. */
static double c_dlog1m(double rho, double drho)
{
    if (!(rho < 1.0))
        return NAN;
    return -drho / (1.0 - rho);
}

/* The index entry of the node with bits key: its record's, or the free
 * entry where it goes. */
static short *c_find(uint64_t key)
{
    unsigned i = (unsigned)((key * UINT64_C(0x9e3779b97f4a7c15))
                            >> (64 - NODE_BITS));
    while (table.at[i] && table.node[table.at[i] - 1].key != key)
        i = (i + 1) & ((1u << NODE_BITS) - 1);
    return &table.at[i];
}

/* xi's record at (mu, ratio) for top's block, made and put in the table as
 * _fill does, with the rows (aa, nn, q_e(g), q_e(gr), q_s(g), q_s(gr),
 * q_s(x), q_e(xr)) at g = gamma, gr = g * ratio, x = xi and xr = xi * ratio;
 * (e(gr)/e(g))^2 is aa 2^nn, and the last two are 0.0 without tm. A node
 * already in the table takes its new record in place, and its upward runs
 * go on from the record's state if that holds the same lanes at an order
 * n <= lo; otherwise they start at order 0. */
static const Row *c_fill(long top, uint64_t key, double xi, double g,
                         double mu, double ratio, int tm)
{
    double gr = g * ratio;
    double qeg[BLOCK], qer[BLOCK], qsg[BLOCK], qsr[BLOCK];
    double qsx[BLOCK], qex[BLOCK];
    SR eg[BLOCK], er[BLOCK];
    /* Massless (or a mass too small to move gamma): xi*ratio == g*ratio, so
     * the vacuum-side chains are the ones at g and gr. */
    int three = tm && xi != g;
    long lo = c_block_lo(top);
    long n;
    short *at;
    Node *node;
    long i;
    if (mu != table.mu || ratio != table.ratio || table.n >= NODE_CAP) {
        memset(table.at, 0, sizeof table.at);
        table.n = 0;
        table.mu = mu;
        table.ratio = ratio;
    }
    at = c_find(key);
    if (!*at) {
        *at = (short)++table.n;
        table.node[*at - 1].n = 0;
    }
    node = &table.node[*at - 1];
    n = node->three == three && node->n <= lo ? node->n : 0;
    c_e_rows(top, g, n, node->run[0], qeg, eg);
    c_e_rows(top, gr, n, node->run[1], qer, er);
    c_s_rows(top, g, qsg);
    c_s_rows(top, gr, qsr);
    if (three) {
        c_s_rows(top, xi, qsx);
        c_e_rows(top, xi * ratio, n, node->run[2], qex, NULL);
    }
    node->key = key;
    node->tm = tm;
    node->three = three;
    node->top = top;
    node->n = top + 1;
    for (i = 0; i <= top - lo; i++) {
        double a = er[i].m / eg[i].m;
        node->rows[i] = (Row){a * a, 2.0 * (er[i].k - eg[i].k), qeg[i],
                              qer[i], qsg[i], qsr[i],
                              !tm ? 0.0 : three ? qsx[i] : qsg[i],
                              !tm ? 0.0 : three ? qex[i] : qer[i]};
    }
    return node->rows;
}

/* xi's rows for top's block at (mu, ratio), with TM's when tm: the table's
 * record when it serves the call, else a fill. The pure twin's _nodes finds
 * a batch's rows by its node tuple instead, and compares the block once. */
static const Row *c_rows(long top, double xi, double g, double mu,
                         double ratio, int tm)
{
    uint64_t key;
    short *at;
    memcpy(&key, &xi, sizeof key);
    at = c_find(key);
    if (*at && mu == table.mu && ratio == table.ratio
        && table.node[*at - 1].top == top && table.node[*at - 1].tm >= tm)
        return table.node[*at - 1].rows;
    return c_fill(top, key, xi, g, mu, ratio, tm);
}

/* With deriv, also the ratio derivatives dte and dtm, as in the pure
 * twin's node loop, _nodes. */
static Modes c_core_point(long l, double xi, double mu, double ratio,
                          long mode, int deriv)
{
    double g = c_gamma(xi, mu);
    double gr = g * ratio;
    long top = c_block_top(l);
    const Row *w = c_rows(top, xi, g, mu, ratio, mode != 0)
                   + (l - c_block_lo(top));
    double pg = w->qeg + w->qsg;
    double pr = w->qer + w->qsr;
    double x, xr, L2, m2, x2, ml, gts, gte, dsg, deg, dsr, der;
    double u22, v22, w22, y22, dv, dw, a11, a12, a21, a22;
    double b11, b12, b21, b22, tr, det, rho;
    double gg, dex, ddsr, dder, ddex, dgp, dgte, dw22, dy22, ddw;
    double c11, c12, c21, c22, dtr, ddet, drho;
    Modes out = {0.0, 0.0, 0.0, 0.0};

    /* rho_TE = s(g) e(gr) / (e(g) s(gr)) with s = 1/(e (q_e + q_s)), below
     * 1 by the pure twin's argument, so ldexp cannot overflow. Far apart
     * the exponent can pass INT_MIN (e_l(z) ~ e^-z, z < 2^32); any
     * exponent below -4200 already gives 0, so it is clamped before the
     * cast. */
    rho = ldexp(w->aa * (pr / pg), w->nn < -4200.0 ? -4200 : (int)w->nn);
    /* d ln rho_TE / d ratio = -g pr: ratio enters only at gr and xr. */
    drho = deriv ? -rho * (g * pr) : 0.0;
    if (mode != 1) {
        out.te = rho;
        out.dte = drho;
    }
    if (mode == 0)
        return out;

    x = xi;
    xr = xi * ratio;

    /* The four 2x2 blocks U, V, W, Y and the round trip
     * M = W^-1 Y V^-1 U, as in the pure twin. */
    L2 = l * (l + 1.0);
    m2 = mu * mu;
    x2 = x * x;
    ml = m2 * L2;
    gts = g * g * ((l + 1.0) - x * w->qsx);
    gte = g * g * ((l + 1.0) + xr * w->qex);
    dsg = g * w->qsg - l;
    deg = -(g * w->qeg + l);
    dsr = gr * w->qsr - l;
    der = -(gr * w->qer + l);
    u22 = gts - x2 * (1.0 - dsg);
    v22 = gts - x2 * (1.0 - deg);
    w22 = gte - x2 * (1.0 - dsr);
    y22 = gte - x2 * (1.0 - der);
    /* det V > 0 and det W > 0 by the sign argument of the pure twin. */
    dv = deg * v22 + ml;
    dw = dsr * w22 + ml;
    a11 = (v22 * dsg + ml) / dv;
    a12 = m2 * x2 * (g * pg) / dv;
    a21 = -L2 * (g * pg) / dv;
    a22 = (deg * u22 + ml) / dv;
    b11 = (w22 * der + ml) / dw;
    b12 = -m2 * x2 * (gr * pr) / dw;
    b21 = L2 * (gr * pr) / dw;
    b22 = (dsr * y22 + ml) / dw;
    tr = (b11 * a11 + b12 * a21) + (b21 * a12 + b22 * a22);
    det = (a11 * a22 - a12 * a21) * (b11 * b22 - b12 * b21);
    /* ln det(1 - rho M) = ln(1 - rho (tr M - rho det M)) */
    out.tm = rho * (tr - rho * det);
    if (!deriv)
        return out;
    /* W and Y through the Riccati equation of each d, as in the pure
     * twin. */
    gg = g * g;
    dex = -(xr * w->qex + l);
    ddsr = (dsr - dsr * dsr + gr * gr + L2) / ratio;
    dder = (der - der * der + gr * gr + L2) / ratio;
    ddex = (dex - dex * dex + xr * xr + L2) / ratio;
    dgp = g * pr * (1.0 - dsr - der);
    dgte = -(gg * ddex);
    dw22 = dgte + x2 * ddsr;
    dy22 = dgte + x2 * dder;
    ddw = ddsr * w22 + dsr * dw22;
    c11 = ((dw22 * der + w22 * dder) - b11 * ddw) / dw;
    c12 = (-m2 * x2 * dgp - b12 * ddw) / dw;
    c21 = (L2 * dgp - b21 * ddw) / dw;
    c22 = ((ddsr * y22 + dsr * dy22) - b22 * ddw) / dw;
    dtr = (c11 * a11 + c12 * a21) + (c21 * a12 + c22 * a22);
    ddet = (a11 * a22 - a12 * a21) * ((c11 * b22 + b11 * c22)
                                      - (c12 * b21 + b12 * c21));
    out.dtm = drho * (tr - 2.0 * rho * det) + rho * (dtr - rho * ddet);
    return out;
}


/* -- Python-visible surface (mirrors _core_py signatures) ----------------- */

/* Convert positional arguments by a format of 'd' (double), 'l' (long) and
 * 'O' (borrowed object). An order or a mode goes through PyLong_AsLong, so
 * a float raises TypeError, as operator.index does in the pure twin.
 * Returns 0 with an exception set. */
static int unpack(const char *name, PyObject *const *args, Py_ssize_t nargs,
                  const char *fmt, ...)
{
    Py_ssize_t want = (Py_ssize_t)strlen(fmt);
    Py_ssize_t i;
    va_list ap;
    if (nargs != want) {
        PyErr_Format(PyExc_TypeError,
                     "%s() takes %zd positional arguments but %zd were given",
                     name, want, nargs);
        return 0;
    }
    va_start(ap, fmt);
    for (i = 0; i < want; i++) {
        if (fmt[i] == 'l') {
            long *out = va_arg(ap, long *);
            *out = PyLong_AsLong(args[i]);
            if (*out == -1 && PyErr_Occurred())
                break;
        } else if (fmt[i] == 'O') {
            *va_arg(ap, PyObject **) = args[i];
        } else {
            double *out = va_arg(ap, double *);
            *out = PyFloat_AsDouble(args[i]);
            if (*out == -1.0 && PyErr_Occurred())
                break;
        }
    }
    va_end(ap);
    return i == want;
}

/* The domain of the mode factors, with the pure twin's message; returns 0
 * with ValueError set. Chains run at gamma and gamma * ratio, and in TM also
 * at xi and xi * ratio; TE alone takes any xi >= 0. */
static int point_ok(long l, double xi, double mu, double ratio, long mode)
{
    double xi_min = mode == 0 ? 0.0 : Z_MIN;
    double g = c_gamma(xi, mu);
    if (l >= 1 && l < L_END && mode >= 0 && mode <= 2 && xi >= xi_min
        && xi < INFINITY && mu >= 0.0 && mu < INFINITY && ratio > 1.0
        && ratio < INFINITY && g >= Z_MIN && g * ratio < Z_MAX)
        return 1;
    PyErr_SetString(PyExc_ValueError,
                    "mode factors need 1 <= l < 2**31, mode 0, 1 or 2, a "
                    "finite mu >= 0, a finite ratio > 1, a finite "
                    "xi >= 2**-64 (xi >= 0 in mode 0), sqrt(xi^2 + mu^2) "
                    ">= 2**-64 and sqrt(xi^2 + mu^2) * ratio < 2**32");
    return 0;
}

static PyObject *float_tuple(Py_ssize_t n, const double *v)
{
    PyObject *tup = PyTuple_New(n);
    Py_ssize_t i;
    if (tup == NULL)
        return NULL;
    for (i = 0; i < n; i++) {
        PyObject *f = PyFloat_FromDouble(v[i]);
        if (f == NULL) {
            Py_DECREF(tup);
            return NULL;
        }
        PyTuple_SET_ITEM(tup, i, f);
    }
    return tup;
}

static PyObject *py_log_delta_point(PyObject *Py_UNUSED(self),
                                    PyObject *const *args, Py_ssize_t nargs)
{
    long l, mode;
    double xi, mu, ratio;
    Modes r;
    if (!unpack("log_delta_point", args, nargs, "ldddl",
                &l, &xi, &mu, &ratio, &mode)
        || !point_ok(l, xi, mu, ratio, mode))
        return NULL;
    r = c_core_point(l, xi, mu, ratio, mode, 0);
    return PyFloat_FromDouble(c_log1m(r.te) + c_log1m(r.tm));
}

/* (TE per node, TM per node): ln Delta, or with deriv d ln Delta / d ratio;
 * -0.0 for a mode not requested, as in the pure twin. */
static PyObject *nodes(const char *name, PyObject *const *args,
                       Py_ssize_t nargs, int deriv)
{
    long l, mode;
    double mu, ratio;
    PyObject *xs, *seq, *te, *tm, *out = NULL;
    double *buf;
    Py_ssize_t n, i;
    if (!unpack(name, args, nargs, "lddlO",
                &l, &mu, &ratio, &mode, &xs))
        return NULL;
    /* A tuple copy: converting an item cannot resize what is being read. */
    seq = PySequence_Tuple(xs);
    if (seq == NULL)
        return NULL;
    n = PyTuple_GET_SIZE(seq);
    /* Nodes in the first half; TE then TM results over both halves. */
    buf = PyMem_New(double, n > 0 ? 2 * n : 1);
    if (buf == NULL) {
        Py_DECREF(seq);
        return PyErr_NoMemory();
    }
    for (i = 0; i < n; i++) {
        buf[i] = PyFloat_AsDouble(PyTuple_GET_ITEM(seq, i));
        if ((buf[i] == -1.0 && PyErr_Occurred())
            || !point_ok(l, buf[i], mu, ratio, mode))
            goto done;
    }
    /* Nodes are independent: the whole batch runs without the GIL. */
    Py_BEGIN_ALLOW_THREADS
    for (i = 0; i < n; i++) {
        Modes r = c_core_point(l, buf[i], mu, ratio, mode, deriv);
        if (deriv) {
            buf[i] = c_dlog1m(r.te, r.dte);
            buf[n + i] = c_dlog1m(r.tm, r.dtm);
        } else {
            buf[i] = c_log1m(r.te);
            buf[n + i] = c_log1m(r.tm);
        }
    }
    Py_END_ALLOW_THREADS
    te = float_tuple(n, buf);
    tm = te == NULL ? NULL : float_tuple(n, buf + n);
    if (tm != NULL)
        out = PyTuple_Pack(2, te, tm);
    Py_XDECREF(te);
    Py_XDECREF(tm);
done:
    PyMem_Free(buf);
    Py_DECREF(seq);
    return out;
}

static PyObject *py_log_delta_nodes(PyObject *Py_UNUSED(self),
                                    PyObject *const *args, Py_ssize_t nargs)
{
    return nodes("log_delta_nodes", args, nargs, 0);
}

static PyObject *py_dlog_delta_nodes(PyObject *Py_UNUSED(self),
                                     PyObject *const *args, Py_ssize_t nargs)
{
    return nodes("dlog_delta_nodes", args, nargs, 1);
}

#define FASTCALL(name) \
    {#name, (PyCFunction)(void (*)(void))py_##name, METH_FASTCALL, NULL}

static PyMethodDef core_methods[] = {
    FASTCALL(log_delta_point),
    FASTCALL(log_delta_nodes),
    FASTCALL(dlog_delta_nodes),
    {NULL, NULL, 0, NULL},
};

/* The scalar and lone-chain entries, the _rules objects themselves on both
 * twins. */
static const char *const RULES[] = {"sr_norm", "sr_mul", "sr_add",
                                    "gamma_arg", "family", "s_pair",
                                    "e_pair", NULL};

static int core_exec(PyObject *mod)
{
    PyObject *rules = PyImport_ImportModule("procasphere._rules");
    const char *const *name;
    int err = rules == NULL
              || PyModule_AddStringConstant(mod, "BACKEND", "compiled") < 0;
    for (name = RULES; !err && *name != NULL; name++) {
        PyObject *f = PyObject_GetAttrString(rules, *name);
        /* The method table's entries are added before exec, so a C entry
         * of a _rules name would be replaced here unseen: refuse it. */
        if (f != NULL && PyObject_HasAttrString(mod, *name))
            PyErr_Format(PyExc_ImportError,
                         "_core.%s is both a C entry and a _rules object",
                         *name);
        err = PyErr_Occurred() != NULL
              || PyModule_AddObjectRef(mod, *name, f) < 0;
        Py_XDECREF(f);
    }
    Py_XDECREF(rules);
    return -err;
}

static PyModuleDef_Slot core_slots[] = {
    {Py_mod_exec, core_exec},
    {0, NULL},
};

/* Multi-phase init. Exec imports procasphere._rules, and so the package if
 * it is not loaded yet, whose backend choice imports procasphere._core: a
 * loader by file path registers the module in sys.modules before exec. */
static struct PyModuleDef core_module = {
    PyModuleDef_HEAD_INIT,
    "_core",
    "Compiled kernel: bit-identical C twin of procasphere._core_py.",
    0,
    core_methods,
    core_slots,
    NULL,
    NULL,
    NULL,
};

PyMODINIT_FUNC PyInit__core(void)
{
    return PyModuleDef_Init(&core_module);
}
