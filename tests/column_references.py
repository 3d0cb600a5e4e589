"""40-digit references for the directly summed columns.

Each column is summed in mpmath from scratch: its head term by term up to
n = N, and past N, where its weight is alpha + beta n, the sums

    S_k = sum over n >= N of n^k (n^2 + b)^{-z/2},    k = 0, 1,

each as its integral in closed form plus Euler-Maclaurin terms through
f^(7)(N).  The integrals are the hypergeometric series

    int_N^inf (t^2 + b)^{-z/2} dt
        = N^{1-z}/(z-1) 2F1(z/2, (z-1)/2; (z+1)/2; -b/N^2)

and (N^2 + b)^{1-z/2}/(z-2), neither of which the package forms.  With N
at least 600 the next Euler-Maclaurin term is below 1e-22 of f(N) at
z <= 40, and a reference moves by at most 4e-31 relative when N goes from
600 to 2500.
"""

import math

import mpmath as mp

#: The shortest head of a reference sum.
HEAD = 600


def power_tail(big_n, k, b, z):
    """S_k from n = big_n, at the working precision; z and b are mpf."""
    n0 = mp.mpf(big_n)
    s = z / 2
    if k == 0:
        integral = (n0 ** (1 - z) / (z - 1)
                    * mp.hyp2f1(s, s - mp.mpf(1) / 2, s + mp.mpf(1) / 2,
                                -b / (n0 * n0)))
    else:
        integral = (n0 * n0 + b) ** (1 - s) / (z - 2)

    def f(t):
        return t ** k * (t * t + b) ** -s

    total = integral + f(n0) / 2
    for j in (1, 3, 5, 7):
        total -= mp.bernoulli(j + 1) / mp.factorial(j + 1) * mp.diff(f, n0, j)
    return total


def cstarc_weight(n, m, q):
    """The c*c lattice weight at mpf q, every power of q nonnegative."""
    l2 = n + m
    q_top = q ** (2 * l2 + 2)
    geo = (1 - q_top) / (1 - q * q)
    eps_up = (1 - q ** (m + 1)) + (1 - q ** (m + 3))
    a_part = (eps_up * (q * geo - (l2 + 1) * q ** (2 * l2 + 3))
              / ((1 - q_top) * (1 - q ** (2 * l2 + 4))))
    eps_down = (1 - q ** (2 * n + m + 1)) + (1 - q ** (2 * n + m - 1))
    b_part = (eps_down * q ** m * ((l2 + 1) - geo)
              / ((1 - q ** (2 * l2)) * (1 - q_top)))
    return a_part + b_part


def lattice_column(zs, q, m, c_m, d_m, cstarc):
    """sum over n >= 0 of w(n) (n^2/4 + c_m - d_m q^{2n})^{-z/2} at each z
    of ``zs``, w the c*c weight or the identity's 2(n + m + 1), on the
    given float coefficients.  The head runs to N with q^{2N} < 1e-50, so
    past it the base is n^2/4 + c_m and the weight alpha + beta n to
    50 digits."""
    with mp.workdps(40):
        qm, c, d = mp.mpf(q), mp.mpf(c_m), mp.mpf(d_m)
        big_n = max(HEAD, math.ceil(50 * math.log(10) / (-2 * math.log(q))))
        if cstarc:
            def weight(n):
                return cstarc_weight(n, m, qm)
        else:
            def weight(n):
                return 2 * (n + m + 1)
        weights, bases = [], []
        power = mp.mpf(1)
        for n in range(big_n):
            weights.append(weight(n))
            bases.append(mp.mpf(n) ** 2 / 4 + c - d * power)
            power *= qm * qm
        beta = weight(big_n + 1) - weight(big_n)
        alpha = weight(big_n) - beta * big_n
        values = []
        for z in zs:
            zm = mp.mpf(z)
            head = mp.fsum(w * b ** (-zm / 2) for w, b in zip(weights, bases))
            tail = 2 ** zm * (alpha * power_tail(big_n, 0, 4 * c, zm)
                              + beta * power_tail(big_n, 1, 4 * c, zm))
            values.append(head + tail)
        return values


def h_column(z, x, y, r, m):
    """sum over n >= 1 of e^{rm} / (x^2 n^2 + y^2 e^{rm})^{z/2}."""
    with mp.workdps(40):
        zm, xm, ym, rm = map(mp.mpf, (z, x, y, r))
        e = mp.exp(rm * m)
        b = ym * ym * e / (xm * xm)
        head = mp.fsum((mp.mpf(n) ** 2 + b) ** (-zm / 2)
                       for n in range(1, HEAD))
        return e * xm ** -zm * (head + power_tail(HEAD, 0, b, zm))
