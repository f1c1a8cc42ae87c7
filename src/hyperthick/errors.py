"""Exception types shared across the library, and the scalar argument rules.

Every integer argument (a dimension, a node or sample count) goes through
check_int, every size or multiplier through check_real and every random seed
through check_seed, so each rule is written once and raises DomainError the
same way.
"""

import math
import numbers


class HyperthickError(Exception):
    """Base class for all library errors."""


class DomainError(HyperthickError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class BudgetError(HyperthickError):
    """A requested grid or table would exceed one of the fixed size limits."""


class DegenerateBodyError(HyperthickError):
    """The body has zero or negative measure where positive measure is required."""


class InsufficientSamplingError(HyperthickError):
    """A Monte Carlo run produced no usable samples."""


class NoRootError(HyperthickError):
    """The boundary equation has no positive root along the requested direction."""


class ConvergenceError(HyperthickError):
    """An iterative solver failed to reach its tolerance."""


class OutsideSupportError(HyperthickError):
    """An axial coordinate lies outside the body's support interval."""


class PoleError(HyperthickError):
    """The meridian equation is evaluated at or beyond its pole."""


class UnboundedRegionError(HyperthickError):
    """The requested shape is open and has no bounded support."""


class ProjectionError(HyperthickError):
    """Constraint projection of a perturbed shape failed to converge."""


class GeometryError(HyperthickError):
    """A composite body's parts violate a geometric precondition."""


class RankError(HyperthickError):
    """A deformation matrix failed the rank-deficiency test.

    Carries the full singular-value spectrum for diagnosis.
    """

    def __init__(self, message: str, singular_values=None):
        super().__init__(message)
        self.singular_values = None if singular_values is None else list(singular_values)


def check_int(value, name: str, low: int, high: int | None = None) -> int:
    """``value`` as an int if it is an integer in [low, high], else DomainError.

    Python and numpy integers pass; bool, floats and everything else do not.
    ``high=None`` leaves the range open above.
    """
    # int is listed before the ABC: it is tested without the ABC machinery,
    # which costs several times the rest of the check
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, numbers.Integral))
        or value < low
        or (high is not None and value > high)
    ):
        span = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise DomainError(f"{name} must be an integer {span}, got {value!r}")
    return int(value)


def check_real(value, name: str, low: float | None = 0.0, inclusive: bool = False) -> float:
    """``value`` as a float if it is a finite real above ``low``, else DomainError.

    ``inclusive`` admits ``low`` itself, and ``low=None`` admits every finite
    value. Python and numpy reals pass (integers too); bool does not.
    """
    real = math.nan
    # float and int before the ABC, as in check_int
    if not isinstance(value, bool) and isinstance(value, (float, int, numbers.Real)):
        try:
            real = float(value)
        except OverflowError:  # an int beyond the float range
            pass
    if not math.isfinite(real) or (
        low is not None and not (real >= low if inclusive else real > low)
    ):
        span = "" if low is None else f" {'>=' if inclusive else '>'} {low:g}"
        raise DomainError(f"{name} must be a finite real{span}, got {value!r}")
    return real


def check_seed(value) -> tuple[int, ...]:
    """A random seed as a tuple of ints, else DomainError.

    A seed is a non-negative integer (as check_int takes it, so never bool)
    or a non-empty list or tuple of them. numpy's SeedSequence gives the
    same streams for s and (s,), so the tuple seeds it in either case.
    """
    items = value if isinstance(value, (list, tuple)) else (value,)
    if not items:
        raise DomainError("seed must not be an empty sequence")
    return tuple(check_int(item, "seed", 0) for item in items)
