"""Unit-ball volumes, unit-sphere surface areas, and the gamma function.

Conventions: ``unit_ball_volume(n)`` is the Lebesgue measure of the solid unit
ball in R^n, and ``unit_sphere_area(k)`` is the k-dimensional surface measure
of the unit k-sphere (the boundary of the unit ball in R^{k+1}). The boundary
of the n-ball therefore has area ``unit_sphere_area(n - 1) = n * unit_ball_volume(n)``.
"""

from __future__ import annotations

import math

from .errors import check_int, check_real

__all__ = ["gamma", "unit_ball_volume", "unit_sphere_area"]

SQRT_PI = math.sqrt(math.pi)

# math.gamma overflows past 171.6; the exact integer/half-integer ladders stop
# well before that.
_EXACT_CUTOFF = 170


def gamma(x: float) -> float:
    """Gamma function on the positive reals.

    Integer and half-integer arguments short-circuit to exact product
    formulas; everything else defers to the platform Lanczos implementation,
    which is accurate to a few ulp.
    """
    x = check_real(x, "gamma argument")
    if x <= _EXACT_CUTOFF:
        n = round(x)
        if x == n:
            return float(math.factorial(n - 1))
        if x == n + 0.5 or x == n - 0.5:
            # Gamma(k + 1/2) = (2k-1)!! / 2^k * sqrt(pi)
            k = int(x - 0.5)
            acc = SQRT_PI
            for j in range(1, k + 1):
                acc *= j - 0.5
            return acc
    return math.gamma(x)


def unit_ball_volume(n: int) -> float:
    """Volume of the unit ball in R^n: pi^(n/2) / Gamma(n/2 + 1). V_0 = 1."""
    n = check_int(n, "ball dimension n", 0)
    return math.pi ** (n / 2.0) / gamma(n / 2.0 + 1.0)


def unit_sphere_area(k: int) -> float:
    """Surface area of the unit k-sphere: 2 pi^((k+1)/2) / Gamma((k+1)/2).

    S_0 = 2 (two points), S_1 = 2 pi, S_2 = 4 pi.
    """
    k = check_int(k, "sphere dimension k", 0)
    return 2.0 * math.pi ** ((k + 1) / 2.0) / gamma((k + 1) / 2.0)
