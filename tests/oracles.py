"""High-precision reference formulas used as independent test oracles.

Everything here is written directly from the defining expressions in
mpmath, deliberately sharing no code with the library paths under test.
"""

import mpmath as mp

DPS = 40


def lr_gap(v):
    """ln(I/A) as a function of the gap, direct formula."""
    with mp.workdps(DPS):
        v = mp.mpf(v)
        return -1 + mp.atanh(v) / v + mp.log(1 - v * v) / 2


def family_log_ratio_u(u, s, x):
    """1 - atanh(x)/x - ln(1-x^2)/2 + (s/2) ln(1-u x^2), exact u."""
    with mp.workdps(DPS):
        u, s, x = mp.mpf(u), mp.mpf(s), mp.mpf(x)
        val = 1 - mp.atanh(x) / x - mp.log(1 - x * x) / 2
        if u != 0:
            val += s / 2 * mp.log(1 - u * x * x)
        return val


def family_log_ratio_t(t, s, x):
    with mp.workdps(DPS):
        u = (1 - 2 * mp.mpf(t)) ** 2
    return family_log_ratio_u(u, s, x)


def family_log_ratio_and_quotient_t(t, s, x):
    """``(f, f / x^2)`` to 60 digits for the exact u of the double t.

    f is O(x^2) while its terms are O(1), so 2 log10(1/x) more digits are
    carried; at x = 0 the quotient is its limit (1 - 3 s u) / 6.
    """
    x = mp.mpf(x)
    extra = 10 + (int(-2 * mp.log10(x)) if x > 0 else 0)
    with mp.workdps(60 + extra):
        u, s = (1 - 2 * mp.mpf(t)) ** 2, mp.mpf(s)
        if x == 0:
            return mp.mpf(0), (1 - 3 * s * u) / 6
        val = 1 - mp.atanh(x) / x - mp.log(1 - x * x) / 2
        if u != 0:
            val += s / 2 * mp.log(1 - u * x * x)
        return val, val / (x * x)


def membership_class(t, s):
    """The sharp-cutoff class of the double t, from the paper's theorem.

    I < Q(t, s) for all pairs iff 3 s u <= 1; Q(t, s) < I iff 3 s u > 1 and
    L = 1 - ln 2 + (s/2) ln(1 - u) <= 0 (L = -inf at u = 1).  u = (1-2t)^2
    and 3 s u are exact at 60 digits; |L| is far above 1e-50 at the doubles
    tested.
    """
    with mp.workdps(60):
        t, s = mp.mpf(t), mp.mpf(s)
        u = (1 - 2 * t) ** 2
        if 3 * s * u <= 1:
            return "upper_bound_holds"
        limit = 1 - mp.log(2) + s / 2 * mp.log(1 - u)
        assert not abs(limit) < mp.mpf("1e-50"), limit
        return "lower_bound_holds" if limit <= 0 else "neither"


def kernel_u(u, s, x):
    """-x + atanh(x) - s u x^3 / (1 - u x^2)."""
    with mp.workdps(DPS):
        u, s, x = mp.mpf(u), mp.mpf(s), mp.mpf(x)
        val = -x + mp.atanh(x)
        if u != 0:
            val -= s * u * x ** 3 / (1 - u * x * x)
        return val


def kernel_near_one_u(u, s, eps):
    """The kernel at x = 1 - eps, exact eps: resolves eps down to 1e-300."""
    with mp.workdps(360):
        u, s, x = mp.mpf(u), mp.mpf(s), 1 - mp.mpf(eps)
        return -x + mp.atanh(x) - s * u * x ** 3 / (1 - u * x * x)


def arithmetic_mean(a, b):
    with mp.workdps(DPS):
        return (mp.mpf(a) + mp.mpf(b)) / 2


def geometric_mean(a, b):
    with mp.workdps(DPS):
        return mp.sqrt(mp.mpf(a) * mp.mpf(b))


def harmonic_mean(a, b):
    with mp.workdps(DPS):
        a, b = mp.mpf(a), mp.mpf(b)
        return 2 * a * b / (a + b)


def gap(a, b):
    with mp.workdps(DPS):
        a, b = mp.mpf(a), mp.mpf(b)
        return abs(a - b) / (a + b)


def q_mean(a, b, t, s):
    """G(ta+(1-t)b, tb+(1-t)a)^s * A(a, b)^(1-s) from the definition."""
    with mp.workdps(DPS):
        a, b, t, s = mp.mpf(a), mp.mpf(b), mp.mpf(t), mp.mpf(s)
        g_mixed = mp.sqrt((t * a + (1 - t) * b) * (t * b + (1 - t) * a))
        return g_mixed ** s * ((a + b) / 2) ** (1 - s)


def identric_raw(a, b):
    """(1/e)(a^a / b^b)^(1/(a-b)) straight from the definition."""
    with mp.workdps(DPS):
        a, b = mp.mpf(a), mp.mpf(b)
        if a == b:
            return a
        return mp.exp(-1) * (a ** a / b ** b) ** (1 / (a - b))


def power_margin(p, alpha, side, x):
    """I^p - alpha A^p - (1-alpha) G^p on the pair (1+x, 1-x), A = 1."""
    with mp.workdps(DPS):
        p, alpha, x = mp.mpf(p), mp.mpf(alpha), mp.mpf(x)
        i_pow = mp.exp(p * lr_gap(x))
        g_pow = (1 - x * x) ** (p / 2)
        lower = i_pow - alpha - (1 - alpha) * g_pow
        return lower if side == "lower" else -lower


def exp_margin(coef, side, x):
    """ln(A/I) - coef x^2, negated for the upper side."""
    with mp.workdps(DPS):
        g = -lr_gap(x) - mp.mpf(coef) * mp.mpf(x) ** 2
        return g if side == "lower" else -g
