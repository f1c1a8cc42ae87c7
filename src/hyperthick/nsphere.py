"""Unit-ball volumes, unit-sphere surface areas, and the gamma function.

Conventions: ``unit_ball_volume(n)`` is the Lebesgue measure of the solid unit
ball in R^n, and ``unit_sphere_area(k)`` is the k-dimensional surface measure
of the unit k-sphere (the boundary of the unit ball in R^{k+1}). The boundary
of the n-ball therefore has area ``unit_sphere_area(n - 1) = n * unit_ball_volume(n)``.
Both are computed as long as they are normal doubles (V_n up to n = 435);
past that they raise DomainError, as gamma does where it overflows.
"""

from __future__ import annotations

import math
import sys

from .errors import DomainError, check_int, check_real

__all__ = ["gamma", "unit_ball_volume", "unit_sphere_area"]

SQRT_PI = math.sqrt(math.pi)
TWO_PI = 2.0 * math.pi

# math.gamma overflows past 171.6; the exact integer/half-integer ladders stop
# well before that, and so do the closed forms of V_n and S_k.
_EXACT_CUTOFF = 170


def gamma(x: float) -> float:
    """Gamma function on the positive reals.

    Integer and half-integer arguments short-circuit to exact product
    formulas; everything else defers to the platform Lanczos implementation,
    which is accurate to a few ulp. Past about 171.6 Gamma overflows a
    double, and DomainError is raised.
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
    try:
        return math.gamma(x)
    except OverflowError:
        raise DomainError(f"gamma({x!r}) overflows a double") from None


def _carry(value: float, start: int, n: int, shift: int, name: str) -> float:
    """Carry a value at index ``start`` to index n by x_j = x_{j-2} 2 pi / (j - shift).

    Both V_n (shift 0) and S_k (shift 1) obey this recurrence. It costs an
    ulp or so per step, where the closed form would need gamma past its
    exact ladder. The value falls with j there, so DomainError is raised as
    soon as it is no longer a normal double.
    """
    for j in range(start + 2, n + 1, 2):
        value *= TWO_PI / (j - shift)
        if value < sys.float_info.min:
            raise DomainError(f"{name} is below the smallest normal double")
    return value


def unit_ball_volume(n: int) -> float:
    """Volume of the unit ball in R^n: pi^(n/2) / Gamma(n/2 + 1). V_0 = 1.

    Past n = 338, where Gamma(n/2 + 1) leaves its exact ladder, by
    V_n = V_{n-2} 2 pi / n; past n = 435 it raises DomainError.
    """
    n = check_int(n, "ball dimension n", 0)
    top = 2 * _EXACT_CUTOFF - 2
    if n <= top:
        return math.pi ** (n / 2.0) / gamma(n / 2.0 + 1.0)
    start = top - (n - top) % 2
    return _carry(unit_ball_volume(start), start, n, 0, f"the volume of the unit {n}-ball")


def unit_sphere_area(k: int) -> float:
    """Surface area of the unit k-sphere: 2 pi^((k+1)/2) / Gamma((k+1)/2).

    S_0 = 2 (two points), S_1 = 2 pi, S_2 = 4 pi. Past k = 339, where
    Gamma((k+1)/2) leaves its exact ladder, by S_k = S_{k-2} 2 pi / (k - 1);
    once the area is no longer a normal double it raises DomainError.
    """
    k = check_int(k, "sphere dimension k", 0)
    top = 2 * _EXACT_CUTOFF - 1
    if k <= top:
        return 2.0 * math.pi ** ((k + 1) / 2.0) / gamma((k + 1) / 2.0)
    start = top - (k - top) % 2
    return _carry(unit_sphere_area(start), start, k, 1, f"the area of the unit {k}-sphere")
