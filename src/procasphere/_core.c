/* Compiled kernel: the C twin of _core_py.py (see that module's docstring).
 *
 * Every arithmetic statement matches _core_py.py in order, so both backends
 * produce bit-identical doubles. Edit the two together or not at all, and
 * build with -ffp-contract=off: a fused multiply-add rounds once where the
 * pure twin rounds twice.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <math.h>
#include <stdarg.h>

/* Chain rescale: mantissas above BIG move down by 2^-STEP, exactly. */
static const double STEP = 128.0;
static const double DOWN = 0x1p-128;
static const double BIG = 1e250;
/* Exponent gap beyond which an addend is below one ulp of the other term. */
static const double ADD_CUTOFF = 64.0;
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

typedef struct {
    double m;
    double k;
} SR;

typedef struct {
    double am;
    double ak;
    double bm;
    double bk;
} SRP;

typedef struct {
    SR sp;
    SR ep;
    SR st;
    SR et;
} Derivs;

typedef struct {
    double tem;
    double tek;
    double tmm;
    double tmk;
} Modes;

static const SR SR_ZERO = {0.0, 0.0};


/* -- scaled primitives ---------------------------------------------------- */

static inline SR c_norm(double m, double k)
{
    int e;
    if (m == 0.0)
        return SR_ZERO;
    /* frexp leaves the exponent of inf and NaN unspecified. */
    if (!isfinite(m))
        return (SR){m, k};
    m = frexp(m, &e);
    return (SR){m, k + e};
}

static inline SR c_mul(double m1, double k1, double m2, double k2)
{
    if (m1 == 0.0 || m2 == 0.0)
        return SR_ZERO;
    return c_norm(m1 * m2, k1 + k2);
}

static inline SR c_div(double m1, double k1, double m2, double k2)
{
    if (m1 == 0.0)
        return SR_ZERO;
    return c_norm(m1 / m2, k1 - k2);
}

static inline SR c_scale(double m, double k, double c)
{
    if (m == 0.0 || c == 0.0)
        return SR_ZERO;
    return c_norm(m * c, k);
}

static inline SR c_add(double m1, double k1, double m2, double k2)
{
    double d;
    if (m1 == 0.0)
        return (SR){m2, k2};
    if (m2 == 0.0)
        return (SR){m1, k1};
    /* ldexp(1, -d) is the pure twin's exact 2.0 ** -d; a NaN gap takes the
     * early exit before the cast. */
    if (k1 >= k2) {
        d = k1 - k2;
        if (!(d <= ADD_CUTOFF))
            return (SR){m1, k1};
        return c_norm(m1 + m2 * ldexp(1.0, -(int)d), k1);
    }
    d = k2 - k1;
    if (!(d <= ADD_CUTOFF))
        return (SR){m2, k2};
    return c_norm(m2 + m1 * ldexp(1.0, -(int)d), k2);
}


/* exp(x) as {exp(r), n} with x = n ln 2 + r, n = floor(x / ln 2); see
 * _exp_split in the pure twin for why r is good to about an ulp. */
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

/* (s_0, s_{-1}) = (sinh z, cosh z) scaled: the closed forms up to 30;
 * above, exp(z) enters through c_exp_split, so nothing overflows and the
 * mantissa never pays the z*eps penalty of an exp(log(..)) round-trip. */
static SRP c_s0_pair(double z)
{
    double em2;
    SR f, a, b;
    if (z > 30.0) {
        em2 = exp(-2.0 * z);
        f = c_exp_split(z);
        a = c_norm(f.m * (0.5 * (1.0 - em2)), f.k);
        b = c_norm(f.m * (0.5 * (1.0 + em2)), f.k);
    } else {
        a = c_norm(sinh(z), 0.0);
        b = c_norm(cosh(z), 0.0);
    }
    return (SRP){a.m, a.k, b.m, b.k};
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

static SRP c_s_miller(long l, double z)
{
    /* Three runs, so that no step compares orders: down to s_l, one step to
     * s_{l-1}, down to s_0, then normalized against s_0 from c_s0_pair. */
    long start = c_miller_start(l, z);
    double ym = 0.0;
    double y = 1.0;
    double off = 0.0;
    double out1m, out1k, out0m, out0k;
    SRP s0;
    SR a, b;
    c_steps(start, start - l, -1, z, &y, &ym, &off);
    out1m = y;
    out1k = off;
    c_steps(l, 1, -1, z, &y, &ym, &off);
    out0m = y;
    out0k = off;
    c_steps(l - 1, l - 1, -1, z, &y, &ym, &off);
    s0 = c_s0_pair(z);
    a = c_norm(out1m / y * s0.am, s0.ak + (out1k - off));
    b = c_norm(out0m / y * s0.am, s0.ak + (out0k - off));
    return (SRP){a.m, a.k, b.m, b.k};
}

static SRP c_s_pair(long l, double z)
{
    if (l == 0)
        return c_s0_pair(z);
    return c_s_miller(l, z);
}

static SRP c_e_pair(long l, double z)
{
    SR s = c_exp_split(-z);
    double k = s.k;
    double a = s.m;
    double b = s.m;
    SR p, q;
    c_steps(0, l, 1, z, &b, &a, &k);
    p = c_norm(b, k);
    q = c_norm(a, k);
    return (SRP){p.m, p.k, q.m, q.k};
}


/* (s', e', s - z s', e - z e') at z from the chain pairs (s_l, s_{l-1}) and
 * (e_l, e_{l-1}) at z. */
static inline Derivs c_derivs(long l, double z, SRP s, SRP e)
{
    double lz = l / z;
    Derivs d;
    SR t, a, b;
    t = c_scale(s.am, s.ak, lz);
    d.sp = c_add(s.bm, s.bk, -t.m, t.k);
    t = c_scale(e.am, e.ak, lz);
    d.ep = c_add(e.bm, e.bk, t.m, t.k);
    d.ep.m = -d.ep.m;
    a = c_scale(s.am, s.ak, l + 1.0);
    b = c_scale(s.bm, s.bk, z);
    d.st = c_add(a.m, a.k, -b.m, b.k);
    a = c_scale(e.am, e.ak, l + 1.0);
    b = c_scale(e.bm, e.bk, z);
    d.et = c_add(a.m, a.k, b.m, b.k);
    return d;
}


/* -- mode determinants ---------------------------------------------------- */

/* 2x2 determinant a*d - b*c of scaled entries. */
static inline SR c_two(double am, double ak, double bm, double bk,
                       double cm, double ck, double dm, double dk)
{
    SR p = c_mul(am, ak, dm, dk);
    SR q = c_mul(bm, bk, cm, ck);
    return c_add(p.m, p.k, -q.m, q.k);
}

/* g2 a*b - x2 c*d of scaled entries, the shape of the four
 * potential-matching entries of the TM matrix. */
static inline SR c_bracket(double g2, double x2, double am, double ak,
                           double bm, double bk, double cm, double ck,
                           double dm, double dk)
{
    SR p = c_mul(am, ak, bm, bk);
    SR q;
    p = c_scale(p.m, p.k, g2);
    q = c_mul(cm, ck, dm, dk);
    q = c_scale(q.m, q.k, x2);
    return c_add(p.m, p.k, -q.m, q.k);
}

static double c_log1m(double m, double k)
{
    double v;
    SR r, d;
    if (m == 0.0)
        return -0.0;
    if (!isfinite(m))
        return NAN;
    r = c_norm(m, k);
    if (r.k < 0.0) {
        /* pow(2, k) is the pure twin's exact 2.0 ** k, underflow included. */
        v = r.m * pow(2.0, r.k);
        if (v == 0.0)
            return -0.0;
        return log1p(-v);
    }
    d = c_add(0.5, 1.0, -r.m, r.k);
    if (d.m <= 0.0)
        return NAN;
    return d.k * LN2_HI + (d.k * LN2_MID + (d.k * LN2_LO + log(d.m)));
}

static Modes c_core_point(long l, double xi, double mu, double ratio, long mode)
{
    double g = c_gamma(xi, mu);
    double gr = g * ratio;
    SRP sg = c_s_pair(l, g);
    SRP eg = c_e_pair(l, g);
    SRP sr_ = c_s_pair(l, gr);
    SRP er = c_e_pair(l, gr);
    Modes out = {0.0, 0.0, 0.0, 0.0};
    SR n_, d_, t, a, b;
    SRP sx, ex;
    double x, xr, L2, m2, g2, x2;
    Derivs dg, dr;
    SR stx, etx;
    SR q11, q12, q13, q14, q21, q22, q23, q24;
    SR q31, q32, q33, q34, q41, q42, q43, q44;
    SR d0a, d0b, det0, t1, t2, t3, t4, t5, num;

    if (mode != 1) {
        n_ = c_mul(sg.am, sg.ak, er.am, er.ak);
        d_ = c_mul(eg.am, eg.ak, sr_.am, sr_.ak);
        t = c_div(n_.m, n_.k, d_.m, d_.k);
        out.tem = t.m;
        out.tek = t.k;
    }
    if (mode == 0)
        return out;

    x = xi;
    xr = xi * ratio;

    /* primes and s - z s' / e - z e' combinations at g and g*ratio */
    dg = c_derivs(l, g, sg, eg);
    dr = c_derivs(l, gr, sr_, er);

    if (x == g) {
        /* Massless (or a mass too small to move gamma): x*ratio == g*ratio,
         * so the vacuum-side chains and combinations are the ones above. */
        sx = sg;
        ex = er;
        stx = dg.st;
        etx = dr.et;
    } else {
        sx = c_s_pair(l, x);
        ex = c_e_pair(l, xr);
        /* s - z s' at x and e - z e' at x*ratio (the only vacuum-side
         * combos) */
        a = c_scale(sx.am, sx.ak, l + 1.0);
        b = c_scale(sx.bm, sx.bk, x);
        stx = c_add(a.m, a.k, -b.m, b.k);
        a = c_scale(ex.am, ex.ak, l + 1.0);
        b = c_scale(ex.bm, ex.bk, xr);
        etx = c_add(a.m, a.k, b.m, b.k);
    }

    L2 = l * (l + 1.0);
    m2 = mu * mu;
    g2 = g * g;
    x2 = x * x;

    q11 = c_scale(dg.sp.m, dg.sp.k, g);
    q12 = c_scale(dg.ep.m, dg.ep.k, g);
    q13 = c_scale(sg.am, sg.ak, -m2);
    q14 = c_scale(eg.am, eg.ak, -m2);
    q21 = c_scale(dr.sp.m, dr.sp.k, gr);
    q22 = c_scale(dr.ep.m, dr.ep.k, gr);
    q23 = c_scale(sr_.am, sr_.ak, -m2);
    q24 = c_scale(er.am, er.ak, -m2);
    a = c_mul(sx.am, sx.ak, sg.am, sg.ak);
    q31 = c_scale(a.m, a.k, L2);
    a = c_mul(sx.am, sx.ak, eg.am, eg.ak);
    q32 = c_scale(a.m, a.k, L2);
    q33 = c_bracket(g2, x2, sg.am, sg.ak, stx.m, stx.k, sx.am, sx.ak,
                    dg.st.m, dg.st.k);
    q34 = c_bracket(g2, x2, eg.am, eg.ak, stx.m, stx.k, sx.am, sx.ak,
                    dg.et.m, dg.et.k);
    a = c_mul(ex.am, ex.ak, sr_.am, sr_.ak);
    q41 = c_scale(a.m, a.k, L2);
    a = c_mul(ex.am, ex.ak, er.am, er.ak);
    q42 = c_scale(a.m, a.k, L2);
    q43 = c_bracket(g2, x2, sr_.am, sr_.ak, etx.m, etx.k, ex.am, ex.ak,
                    dr.st.m, dr.st.k);
    q44 = c_bracket(g2, x2, er.am, er.ak, etx.m, etx.k, ex.am, ex.ak,
                    dr.et.m, dr.et.k);

    /* Laplace split by odd/even column pairs: six surviving products, one of
     * which is the decoupled determinant; the other five all sit at the
     * interaction scale, so no large cancellation ever forms. */
    d0a = c_two(q21.m, q21.k, q23.m, q23.k, q41.m, q41.k, q43.m, q43.k);
    d0b = c_two(q12.m, q12.k, q14.m, q14.k, q32.m, q32.k, q34.m, q34.k);
    det0 = c_mul(d0a.m, d0a.k, d0b.m, d0b.k);

    a = c_two(q11.m, q11.k, q13.m, q13.k, q21.m, q21.k, q23.m, q23.k);
    b = c_two(q32.m, q32.k, q34.m, q34.k, q42.m, q42.k, q44.m, q44.k);
    t1 = c_mul(a.m, a.k, b.m, b.k);
    t1.m = -t1.m;
    a = c_two(q11.m, q11.k, q13.m, q13.k, q31.m, q31.k, q33.m, q33.k);
    b = c_two(q22.m, q22.k, q24.m, q24.k, q42.m, q42.k, q44.m, q44.k);
    t2 = c_mul(a.m, a.k, b.m, b.k);
    a = c_two(q11.m, q11.k, q13.m, q13.k, q41.m, q41.k, q43.m, q43.k);
    b = c_two(q22.m, q22.k, q24.m, q24.k, q32.m, q32.k, q34.m, q34.k);
    t3 = c_mul(a.m, a.k, b.m, b.k);
    t3.m = -t3.m;
    a = c_two(q21.m, q21.k, q23.m, q23.k, q31.m, q31.k, q33.m, q33.k);
    b = c_two(q12.m, q12.k, q14.m, q14.k, q42.m, q42.k, q44.m, q44.k);
    t4 = c_mul(a.m, a.k, b.m, b.k);
    t4.m = -t4.m;
    a = c_two(q31.m, q31.k, q33.m, q33.k, q41.m, q41.k, q43.m, q43.k);
    b = c_two(q12.m, q12.k, q14.m, q14.k, q22.m, q22.k, q24.m, q24.k);
    t5 = c_mul(a.m, a.k, b.m, b.k);
    t5.m = -t5.m;

    a = c_add(t1.m, t1.k, t2.m, t2.k);
    b = c_add(t4.m, t4.k, t5.m, t5.k);
    b = c_add(t3.m, t3.k, b.m, b.k);
    num = c_add(a.m, a.k, b.m, b.k);
    t = c_div(-num.m, num.k, det0.m, det0.k);
    out.tmm = t.m;
    out.tmk = t.k;
    return out;
}


/* -- Python-visible surface (mirrors _core_py signatures) ----------------- */

/* Convert positional arguments by a format of 'd' (double), 'l' (long) and
 * 'O' (borrowed object). An order goes through PyLong_AsLong, so a float
 * order raises TypeError, as range() does in the pure twin. Returns 0 with
 * an exception set. */
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

/* Domains of the Python-visible functions, with the pure twin's messages.
 * Each returns 0 with ValueError set. */
static int chain_ok(long l, double z)
{
    if (l >= 0 && z >= Z_MIN && z < Z_MAX)
        return 1;
    PyErr_SetString(PyExc_ValueError,
                    "Riccati-Bessel chains need l >= 0 and "
                    "2**-64 <= z < 2**32");
    return 0;
}

/* Chains run at gamma and gamma * ratio, and in TM also at xi and
 * xi * ratio; TE alone takes any xi >= 0. */
static int point_ok(long l, double xi, double mu, double ratio, long mode)
{
    double xi_min = mode == 0 ? 0.0 : Z_MIN;
    double g = c_gamma(xi, mu);
    if (l >= 1 && mode >= 0 && mode <= 2 && xi >= xi_min && xi < INFINITY
        && mu >= 0.0 && mu < INFINITY && ratio > 1.0 && ratio < INFINITY
        && g >= Z_MIN && g * ratio < Z_MAX)
        return 1;
    PyErr_SetString(PyExc_ValueError,
                    "mode factors need l >= 1, mode 0, 1 or 2, a finite "
                    "mu >= 0, a finite ratio > 1, a finite xi >= 2**-64 "
                    "(xi >= 0 in mode 0), sqrt(xi^2 + mu^2) >= 2**-64 and "
                    "sqrt(xi^2 + mu^2) * ratio < 2**32");
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

static PyObject *sr_tuple(SR r)
{
    return float_tuple(2, (const double[]){r.m, r.k});
}

static PyObject *srp_tuple(SRP r)
{
    return float_tuple(4, (const double[]){r.am, r.ak, r.bm, r.bk});
}

static PyObject *py_sr_norm(PyObject *Py_UNUSED(self), PyObject *const *args,
                            Py_ssize_t nargs)
{
    double m, k;
    if (!unpack("sr_norm", args, nargs, "dd", &m, &k))
        return NULL;
    return sr_tuple(c_norm(m, k));
}

static PyObject *py_sr_mul(PyObject *Py_UNUSED(self), PyObject *const *args,
                           Py_ssize_t nargs)
{
    double m1, k1, m2, k2;
    if (!unpack("sr_mul", args, nargs, "dddd", &m1, &k1, &m2, &k2))
        return NULL;
    return sr_tuple(c_mul(m1, k1, m2, k2));
}

static PyObject *py_sr_div(PyObject *Py_UNUSED(self), PyObject *const *args,
                           Py_ssize_t nargs)
{
    double m1, k1, m2, k2;
    if (!unpack("sr_div", args, nargs, "dddd", &m1, &k1, &m2, &k2))
        return NULL;
    return sr_tuple(c_div(m1, k1, m2, k2));
}

static PyObject *py_sr_scale(PyObject *Py_UNUSED(self), PyObject *const *args,
                             Py_ssize_t nargs)
{
    double m, k, c;
    if (!unpack("sr_scale", args, nargs, "ddd", &m, &k, &c))
        return NULL;
    return sr_tuple(c_scale(m, k, c));
}

static PyObject *py_sr_add(PyObject *Py_UNUSED(self), PyObject *const *args,
                           Py_ssize_t nargs)
{
    double m1, k1, m2, k2;
    if (!unpack("sr_add", args, nargs, "dddd", &m1, &k1, &m2, &k2))
        return NULL;
    return sr_tuple(c_add(m1, k1, m2, k2));
}

static PyObject *py_gamma_arg(PyObject *Py_UNUSED(self), PyObject *const *args,
                              Py_ssize_t nargs)
{
    double xi, mu;
    if (!unpack("gamma_arg", args, nargs, "dd", &xi, &mu))
        return NULL;
    return PyFloat_FromDouble(c_gamma(xi, mu));
}

static PyObject *py_s_pair(PyObject *Py_UNUSED(self), PyObject *const *args,
                           Py_ssize_t nargs)
{
    long l;
    double z;
    if (!unpack("s_pair", args, nargs, "ld", &l, &z) || !chain_ok(l, z))
        return NULL;
    return srp_tuple(c_s_pair(l, z));
}

static PyObject *py_e_pair(PyObject *Py_UNUSED(self), PyObject *const *args,
                           Py_ssize_t nargs)
{
    long l;
    double z;
    if (!unpack("e_pair", args, nargs, "ld", &l, &z) || !chain_ok(l, z))
        return NULL;
    return srp_tuple(c_e_pair(l, z));
}

static PyObject *py_family(PyObject *Py_UNUSED(self), PyObject *const *args,
                           Py_ssize_t nargs)
{
    long l;
    double z;
    SRP s, e;
    Derivs d;
    if (!unpack("family", args, nargs, "ld", &l, &z) || !chain_ok(l, z))
        return NULL;
    s = c_s_pair(l, z);
    e = c_e_pair(l, z);
    d = c_derivs(l, z, s, e);
    return float_tuple(12, (const double[]){s.am, s.ak, e.am, e.ak,
                                            d.sp.m, d.sp.k, d.ep.m, d.ep.k,
                                            d.st.m, d.st.k, d.et.m, d.et.k});
}

static PyObject *py_log1m_scaled(PyObject *Py_UNUSED(self),
                                 PyObject *const *args, Py_ssize_t nargs)
{
    double m, k;
    if (!unpack("log1m_scaled", args, nargs, "dd", &m, &k))
        return NULL;
    return PyFloat_FromDouble(c_log1m(m, k));
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
    r = c_core_point(l, xi, mu, ratio, mode);
    return PyFloat_FromDouble(c_log1m(r.tem, r.tek) + c_log1m(r.tmm, r.tmk));
}

/* (ln Delta_TE per node, ln Delta_TM per node), -0.0 for a mode not
 * requested, as in the pure twin. */
static PyObject *py_log_delta_nodes(PyObject *Py_UNUSED(self),
                                    PyObject *const *args, Py_ssize_t nargs)
{
    long l, mode;
    double mu, ratio;
    PyObject *xs, *seq, *te, *tm, *out = NULL;
    double *buf;
    Py_ssize_t n, i;
    if (!unpack("log_delta_nodes", args, nargs, "lddlO",
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
        Modes r = c_core_point(l, buf[i], mu, ratio, mode);
        buf[i] = c_log1m(r.tem, r.tek);
        buf[n + i] = c_log1m(r.tmm, r.tmk);
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

static PyObject *py_rho_tm_massless(PyObject *Py_UNUSED(self),
                                    PyObject *const *args, Py_ssize_t nargs)
{
    long l;
    double xi, ratio, xr;
    Derivs d, dr;
    SR n_, d_;
    /* The domain of a massless TM node: with mu = 0, gamma is xi. */
    if (!unpack("rho_tm_massless", args, nargs, "ldd", &l, &xi, &ratio)
        || !point_ok(l, xi, 0.0, ratio, 1))
        return NULL;
    xr = xi * ratio;
    d = c_derivs(l, xi, c_s_pair(l, xi), c_e_pair(l, xi));
    dr = c_derivs(l, xr, c_s_pair(l, xr), c_e_pair(l, xr));
    n_ = c_mul(d.sp.m, d.sp.k, dr.ep.m, dr.ep.k);
    d_ = c_mul(d.ep.m, d.ep.k, dr.sp.m, dr.sp.k);
    return sr_tuple(c_div(n_.m, n_.k, d_.m, d_.k));
}

#define FASTCALL(name) \
    {#name, (PyCFunction)(void (*)(void))py_##name, METH_FASTCALL, NULL}

static PyMethodDef core_methods[] = {
    FASTCALL(sr_norm),
    FASTCALL(sr_mul),
    FASTCALL(sr_div),
    FASTCALL(sr_scale),
    FASTCALL(sr_add),
    FASTCALL(gamma_arg),
    FASTCALL(s_pair),
    FASTCALL(e_pair),
    FASTCALL(family),
    FASTCALL(log1m_scaled),
    FASTCALL(log_delta_point),
    FASTCALL(log_delta_nodes),
    FASTCALL(rho_tm_massless),
    {NULL, NULL, 0, NULL},
};

static int core_exec(PyObject *mod)
{
    return PyModule_AddStringConstant(mod, "BACKEND", "compiled");
}

static PyModuleDef_Slot core_slots[] = {
    {Py_mod_exec, core_exec},
    {0, NULL},
};

/* Multi-phase init: loading the file by path (as the tests do) leaves
 * sys.modules alone, so it cannot change which backend the package picks. */
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
