"""Output checks and the independent references they compare against.

A task's check is a list of ``Check`` bounds; the task fails when any value is
not finite or falls outside its bounds. References here use only numpy and
``math``: closed forms for ball constants, and 1-D Gauss-Legendre or periodic
trapezoid rules for axisymmetric and planar bodies, which share no code with
the library's tensor-product grids.

Monte Carlo values are checked against the exact value with bounds sized to
the sample count (``mc_bounds``), never against the estimator's own stderr.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Chance, per Monte Carlo bound, that a correct estimator falls outside it.
MC_FALSE_ALARM = 1e-6


@dataclass(frozen=True)
class Check:
    name: str
    value: float
    lo: float
    hi: float

    @property
    def ok(self) -> bool:
        return math.isfinite(self.value) and self.lo <= self.value <= self.hi

    def __str__(self) -> str:
        return f"{self.name}={self.value!r} not in [{self.lo!r}, {self.hi!r}]"


def near(name: str, value, ref: float, rtol: float, atol: float = 0.0) -> Check:
    tol = rtol * abs(ref) + atol
    return Check(name, float(value), ref - tol, ref + tol)


def at_most(name: str, value, bound: float) -> Check:
    """A non-negative quantity (a residual or an error) no larger than bound."""
    return Check(name, float(value), 0.0, bound)


def ball_volume(n: int) -> float:
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)


def sphere_area(k: int) -> float:
    return 2.0 * math.pi ** ((k + 1) / 2.0) / math.gamma((k + 1) / 2.0)


_THETA_X, _THETA_W = np.polynomial.legendre.leggauss(400)
THETA = (_THETA_X + 1.0) * (math.pi / 2.0)
THETA_W = _THETA_W * (math.pi / 2.0)


def axisymmetric_reference(radius: np.ndarray, n: int, m: int) -> dict:
    """T (section dimension m), V and axial moment of a body symmetric about e1.

    ``radius`` holds the boundary radius at the polar angles ``THETA``.
    """
    dens = np.sin(THETA) ** (n - 2) * THETA_W
    ring = sphere_area(n - 2)
    return {
        "T": ball_volume(m) / sphere_area(n - 1) * ring * float(np.dot(radius**m, dens)),
        "V": ring / n * float(np.dot(radius**n, dens)),
        "M": ring / (n + 1) * float(np.dot(radius ** (n + 1) * np.cos(THETA), dens)),
    }


def cosine_radius(coeffs, theta: np.ndarray) -> np.ndarray:
    return sum(c * np.cos(k * theta) for k, c in enumerate(coeffs))


def planar_reference(cos_coeffs, sin_coeffs, count: int = 4096) -> dict:
    """T (m = 1), area and first moment of a planar trig-series body."""
    phi = 2.0 * math.pi * np.arange(count) / count
    f = cosine_radius(cos_coeffs, phi)
    for k, s in enumerate(sin_coeffs, start=1):
        f = f + s * np.sin(k * phi)
    w = 2.0 * math.pi / count
    return {
        "T": 2.0 / (2.0 * math.pi) * float(f.sum()) * w,
        "V": float((f**2).sum()) * w / 2.0,
        "M": np.array([(f**3 * np.cos(phi)).sum(), (f**3 * np.sin(phi)).sum()]) * w / 3.0,
    }


def mc_bounds(n: int, m: int, samples: int, rb: float, mean: float) -> tuple[float, float]:
    """Bounds on the sample mean of W = r^(m-n) 1[x in body], x uniform in a ball.

    ``rb`` is the radius of the sampling ball and ``mean`` the exact E[W].
    For m <= n/2 the variance of W is infinite, so a bound from the variance
    does not exist; both sides are built from the tail P(r < rho) =
    (rho / rb)^n instead, each missed with chance at most MC_FALSE_ALARM:

    * lower: for any cut rc, W >= W 1[r >= rc] >= 0, whose mean falls more
      than sqrt(2 E[W^2 1[r >= rc]] L / N) below its expectation with chance
      at most exp(-L) (the one-sided bound for non-negative variables); the
      cut drops at most n rc^m / (m rb^n) of the mean. The best rc is used.
    * upper: no sample lies nearer the origin than rj = rb (p/2N)^(1/n)
      except with chance p/2, so no term exceeds B = rj^(m-n) and the
      estimate is the mean of W 1[r >= rj], whose expectation is at most
      E[W]. By Bernstein's inequality that mean exceeds its expectation by
      more than sqrt(2 s L / N) + 2 B L / (3 N), with s = E[W^2 1[r >= rj]]
      and L = ln(2/p), with chance at most p/2.
    """
    scale = n / rb**n

    def second_moment(cut):
        a = 2 * m - n
        if a == 0:
            return scale * math.log(rb / cut)
        return scale * (rb**a - cut**a) / a

    log_lo = math.log(1.0 / MC_FALSE_ALARM)
    lower_dev = min(
        scale * cut**m / m + math.sqrt(2.0 * second_moment(cut) * log_lo / samples)
        for cut in rb * np.logspace(-6, 0, 241)[:-1]
    )
    rj = rb * (MC_FALSE_ALARM / (2.0 * samples)) ** (1.0 / n)
    log_hi = math.log(2.0 / MC_FALSE_ALARM)
    upper_dev = (math.sqrt(2.0 * second_moment(rj) * log_hi / samples)
                 + 2.0 * rj ** (m - n) * log_hi / (3.0 * samples))
    return mean - lower_dev, mean + upper_dev


def mc_check(name: str, estimate: float, exact: float, n: int, m: int, samples: int, rb: float) -> Check:
    """Check a uniform-ball thickness estimate against its exact value."""
    coef = m * ball_volume(m) / sphere_area(n - 1) * ball_volume(n) * rb**n
    lo, hi = mc_bounds(n, m, samples, rb, exact / coef)
    return Check(name, float(estimate), coef * lo, coef * hi)
