"""Special-function primitives for the closed-form intra-cavity field.

Only the specialization 2F1(1,1;c;z) is needed.  For z <= 0.5 the power
series converges quickly.  The closed-form field evaluated on a full time
grid also probes z -> 1 (late times), where the series is useless; there the
standard z -> 1-z connection formula is applied, with an arbitrary-precision
fallback near the poles of Gamma(2-c) at integer c.
"""

import numpy as np

MAX_TERMS = 10_000


class SpecFunDomainError(ValueError):
    """Argument outside the supported domain."""


class SpecFunConvergenceError(ArithmeticError):
    """Series failed to converge within the term budget."""


def sech(x):
    """2/(e^x + e^-x), computed without overflow for large |x|."""
    ax = np.abs(np.asarray(x, dtype=float))
    out = np.zeros_like(ax)
    m = ax < 700.0
    out[m] = 2.0 * np.exp(-ax[m]) / (1.0 + np.exp(-2.0 * ax[m]))
    return out if out.ndim else float(out)


def _series_11(c, z):
    """Power series sum_n [(1)_n (1)_n / (c)_n] z^n / n! = sum_n n!/(c)_n z^n.

    Term ratio: t_{n+1}/t_n = (n+1)/(c+n) * z.  Terminates once the running
    term magnitude stays below 1e-16 of the partial sum for 3 consecutive
    terms.
    """
    s = 0.0 + 0.0j
    term = 1.0 + 0.0j
    small = 0
    for n in range(MAX_TERMS):
        s += term
        term *= (n + 1) / (c + n) * z
        if abs(term) < 1e-16 * abs(s):
            small += 1
            if small >= 3:
                return s
        else:
            small = 0
    raise SpecFunConvergenceError(f"2F1 series did not converge: c={c}, z={z}")


def gauss_2f1_11(c, z, w=None):
    """Gauss hypergeometric function 2F1(1, 1; c; z) for real z in [0, 1).

    Parameters
    ----------
    c : complex
        Third parameter, Re(c) > 0.
    z : float
        Argument, 0 <= z < 1.
    w : float, optional
        Pre-computed 1 - z.  When z is close to 1, cancellation in ``1 - z``
        destroys accuracy; callers that know w directly (e.g. from a logistic
        parametrization) should pass it.

    For z <= 0.5 the direct series is used.  For z > 0.5 the connection
    formula in powers of w = 1 - z is used:

        2F1(1,1;c;z) = G(c)G(c-2)/G(c-1)^2 * 2F1(1,1;3-c;w)
                       + G(c)G(2-c) * w^(c-2) * z^(1-c)

    Near integer c the Gamma factors are singular (logarithmic case); an
    mpmath evaluation is substituted there.
    """
    c = complex(c)
    if c.real <= 0.0:
        raise SpecFunDomainError(f"Re(c) must be positive, got c={c}")
    if w is None:
        if not 0.0 <= z < 1.0:
            raise SpecFunDomainError(f"z must lie in [0, 1), got z={z}")
        w = 1.0 - z
    else:
        if not 0.0 < w <= 1.0:
            raise SpecFunDomainError(f"1-z must lie in (0, 1], got {w}")
        z = 1.0 - w

    if z <= 0.5:
        return _series_11(c, z)

    if abs(c.imag) < 1e-6 and abs(c.real - round(c.real)) < 1e-6:
        import mpmath as mp

        return complex(mp.hyp2f1(1, 1, mp.mpc(c), mp.mpf(1) - mp.mpf(w)))

    from scipy.special import gamma as _cgamma

    g1 = _cgamma(c) * _cgamma(c - 2) / _cgamma(c - 1) ** 2
    t1 = g1 * _series_11(3 - c, w)
    # w^(c-2) * z^(1-c) via logs; log1p(-w) keeps accuracy for tiny w
    t2 = _cgamma(c) * _cgamma(2 - c) * np.exp((c - 2) * np.log(w) + (1 - c) * np.log1p(-w))
    return t1 + t2
