"""Closed-form expectations behind attack sizing and ``siamsketch theory``.

* the coupon-collector expectation used to size attack streams: hitting
  ``m`` of ``w`` slots with uniformly placed flows costs
  ``w * (H(w) - H(w - m))`` flows in expectation;
* the hypergeometric law of the winner-take-all split: when two counter
  members feed one joint ``K``-bit sub-counter in randomly mixed order, the
  wrap credits received by one member follow a hypergeometric distribution.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .rules import Int, Rules, SpecError

_EXACT_COMB_LIMIT = 60  # population size below which the pmf is exact integer math

# Harmonic numbers of arguments up to this are summed term by term; larger
# ones take the asymptotic expansion, whose first omitted term,
# 1/(120 n**4), is below 1e-25 there.
_DIRECT_HARMONIC = 1 << 20
_EULER_GAMMA = 0.5772156649015329


_COUPON = Rules(width=Int(1), targets=Int(0))
_HYPER = Rules(side1=Int(0), side2=Int(0), draws=Int(0))


def coupon_expect(width: int, targets: int) -> float:
    """Expected uniform draws to hit ``targets`` distinct slots out of ``width``.

    Equals ``width * (H(width) - H(width - targets))``. Up to
    ``_DIRECT_HARMONIC`` targets it is the partial sum of their terms, so
    large widths lose no precision. More targets take the expansion
    ``H(n) = ln n + gamma + 1/(2n) - 1/(12n**2)`` in constant time: the
    logarithms' difference is ``-log1p(-targets / width)`` and each
    correction's difference one exact fraction, or, when ``width - targets``
    is at most ``_DIRECT_HARMONIC``, ``H(width - targets)`` is its term sum.
    """
    width, targets = _COUPON.args(width=width, targets=targets)
    if targets > width:
        raise SpecError("targets", "targets must be in [0, width]")
    rest = width - targets
    if targets <= _DIRECT_HARMONIC:
        return width * math.fsum(1.0 / i for i in range(rest + 1, width + 1))
    if rest <= _DIRECT_HARMONIC:
        h_width = math.log(width) + _EULER_GAMMA + (6 * width - 1) / (12 * width * width)
        return width * (h_width - math.fsum(1.0 / i for i in range(1, rest + 1)))
    corrections = targets * (6 * width * rest - width - rest) / (12 * width * width * rest * rest)
    return width * (-math.log1p(-targets / width) - corrections)


def _check_hyper(side1: int, side2: int, draws: int) -> None:
    _HYPER.args(side1=side1, side2=side2, draws=draws)
    if draws > side1 + side2:
        raise SpecError("draws", "draws must be in [0, side1 + side2]")


def hyper_pmf(side1: int, side2: int, draws: int, i: int) -> float:
    """P(X1 = i) for the winner-take-all split.

    ``C(side1, i) * C(side2, draws - i) / C(side1 + side2, draws)``; values of
    ``i`` outside the support return 0 rather than raising.
    """
    _check_hyper(side1, side2, draws)
    if i < max(0, draws - side2) or i > min(draws, side1):
        return 0.0
    if side1 + side2 <= _EXACT_COMB_LIMIT:
        num = math.comb(side1, i) * math.comb(side2, draws - i)
        return float(Fraction(num, math.comb(side1 + side2, draws)))
    return math.exp(
        _log_comb(side1, i)
        + _log_comb(side2, draws - i)
        - _log_comb(side1 + side2, draws)
    )


def _log_comb(n: int, k: int) -> float:
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def hyper_mean(side1: int, side2: int, draws: int) -> float:
    _check_hyper(side1, side2, draws)
    if side1 + side2 == 0:
        return 0.0
    return draws * side1 / (side1 + side2)


def hyper_var(side1: int, side2: int, draws: int) -> float:
    _check_hyper(side1, side2, draws)
    total = side1 + side2
    if total <= 1:
        return 0.0
    p = side1 / total
    return draws * p * (1.0 - p) * (total - draws) / (total - 1)
