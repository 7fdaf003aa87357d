"""Test oracle: the scalars that a series' kernel views stand for.

A ``TruncSeries`` holds only views ``(k, shift, digits, bound)`` of its
coefficients.  Tests that compare coefficients as ``PAdicScalar`` values
rebuild them here; ``series._term`` inverts ``scalar``.
"""

from froblat.padics import INF, PAdicScalar


def scalar(params, term):
    """The coefficient a kernel view stands for: masked when it has no
    digits, exact when its bound is INF."""
    _, shift, digits, bound = term
    if digits is None:
        return PAdicScalar.masked(params, bound)
    coeffs = [0] * params.d
    for i, x in digits:
        coeffs[i] = x
    return PAdicScalar(params, shift, tuple(coeffs),
                       None if bound == INF else bound - shift)


def coeffs(series):
    """The coefficients of a series by exponent, as scalars."""
    return {t[0]: scalar(series.params, t) for t in series.terms}


def assert_agree(a, b):
    """Every coefficient of the series a and b agrees to its known bound."""
    ca, cb = coeffs(a), coeffs(b)
    zero = a.params.zero()
    for k in ca.keys() | cb.keys():
        d = ca.get(k, zero) - cb.get(k, zero)
        assert d.is_zero() or d.is_precision_zero(), k
