"""Variational verification tools.

Three independent ways of probing stationarity and optimality:

* sphere_optimality_test perturbs the unit ball with random volume- and
  centroid-preserving radial deformations and confirms the average thickness
  never increases (and drops quadratically in the amplitude);
* nullvector_recover rebuilds the multipliers (lambda, mu vector) from n+2
  boundary samples of a candidate shape via the rank-deficiency of the
  deformation matrix, failing loudly when the shape is not stationary;
* dumbbell_thickness evaluates, in closed form, the two-disc configuration
  showing that with the centroid pinned away from the section point the
  thickness supremum 2 sqrt(A/pi) is approached but never attained; the far
  disc's integral of 1/|x| is a complete elliptic-integral combination,
  computed by the arithmetic-geometric mean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainError,
    GeometryError,
    ProjectionError,
    RankError,
    check_int,
    check_real,
    check_seed,
)
from .geometry import DirectionGrid, _check_axis, build_grid, unit_vectors
from .nsphere import unit_ball_volume, unit_sphere_area
from .stationary import StationaryParams, _radial_from_cos
from .thickness import StarShape, _check_pair, _check_section_dim, capped_resolution

__all__ = [
    "DeformationSample",
    "DumbbellConfig",
    "dumbbell_thickness",
    "nullvector_recover",
    "sphere_optimality_test",
    "stationarity_residual",
    "stationary_shape",
]

RANK_THRESHOLD = 1e-8
PROJECTION_TOL = 1e-14
PROJECTION_SWEEPS = 300
POLYNOMIAL_TERMS = 8


def stationary_shape(params: StationaryParams) -> StarShape:
    """Radial-function view of a stationary profile, cusp axis along +x1.

    The profile depends on cos(theta) = u_1 only (axisymmetry about x1), so
    the shape is zonal.
    """
    return StarShape.zonal(
        params.n,
        lambda t: _radial_from_cos(params, t),
        name=f"stationary:{params.shape_class.value}",
    )


def stationarity_residual(
    shape: StarShape, m: int, lam: float, mu: float, axis, grid: DirectionGrid
) -> float:
    """Worst-case relative defect of the stationary equation over the grid.

    Returns max |r^(m-1) - lambda r^(n-1) - mu r^n cos(theta)| / r^(m-1)
    with theta measured from the given axis. Zero (to quadrature rounding)
    exactly when the shape is stationary with these multipliers.
    """
    n = shape.dimension
    m = _check_section_dim(m, n)
    lam = check_real(lam, "lambda")
    mu = check_real(mu, "mu", low=None)
    _check_pair(shape, grid)
    a = _check_axis(axis, n)
    worst = 0.0
    for u, _ in grid.iter_blocks():
        r = shape.radial(u)
        cos_t = u @ a
        lead = r ** (m - 1)
        res = np.abs(lead - lam * r ** (n - 1) - mu * r**n * cos_t) / lead
        worst = max(worst, float(res.max()))
    return worst


@dataclass(frozen=True)
class DeformationSample:
    """n+2 boundary samples of a candidate stationary shape.

    Each point contributes the row (r^(m-1), r^(n-1), r^n u_1, ..., r^n u_n)
    with u the direction cosines; the stationary equation says the vector
    (1, -lambda, -mu_1, ..., -mu_n) annihilates every row, so for a true
    stationary shape the matrix is rank-deficient by exactly one.
    """

    n: int
    m: int
    radii: np.ndarray
    angles: np.ndarray

    def __post_init__(self):
        n = check_int(self.n, "n", 2)
        radii = np.asarray(self.radii, dtype=float)
        angles = np.asarray(self.angles, dtype=float)
        if radii.shape != (n + 2,) or angles.shape != (n + 2, n - 1):
            raise DomainError(f"need exactly n+2 = {n + 2} points with {n - 1} angles each")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "m", _check_section_dim(self.m, n))
        object.__setattr__(self, "radii", radii)
        object.__setattr__(self, "angles", angles)

    @classmethod
    def from_shape(cls, shape: StarShape, m: int, angles) -> "DeformationSample":
        angles = np.asarray(angles, dtype=float)
        return cls(
            n=shape.dimension, m=m, radii=shape.radial(unit_vectors(angles)), angles=angles
        )

    def matrix(self) -> np.ndarray:
        r = self.radii
        u = unit_vectors(self.angles)
        cols = [r ** (self.m - 1), r ** (self.n - 1)]
        cols.extend(r**self.n * u[:, i] for i in range(self.n))
        return np.stack(cols, axis=1)


def nullvector_recover(sample: DeformationSample) -> tuple[float, np.ndarray, float]:
    """Multipliers (lambda, mu vector) from the null space of the sample matrix.

    The null direction is taken from the SVD and normalized to a leading 1;
    the returned condition number is the smallest over second-smallest
    singular value, the published degeneracy diagnostic. A ratio at or above
    RANK_THRESHOLD means the points do not lie on one stationary shape (or are
    degenerate) and raises a rank error carrying the spectrum.
    """
    a = sample.matrix()
    _, s, vt = np.linalg.svd(a)
    if s[0] == 0.0 or not s[-2] > RANK_THRESHOLD * s[0]:
        # two vanishing singular values: the multipliers are not identifiable
        raise RankError(
            "null space dimension exceeds one; sample directions are degenerate",
            singular_values=s,
        )
    ratio = s[-1] / s[-2]
    if not ratio < RANK_THRESHOLD:
        raise RankError(
            f"null space is not one-dimensional (sv ratio {ratio:.3e})",
            singular_values=s,
        )
    v = vt[-1]
    if abs(v[0]) < 1e-8 * np.linalg.norm(v):
        raise RankError(
            "null vector has no leading component; points are degenerate",
            singular_values=s,
        )
    v = v / v[0]
    return float(-v[1]), -v[2:].copy(), float(ratio)


# ---------------------------------------------------------------------------
# sphere optimality
# ---------------------------------------------------------------------------


def _random_direction_polynomial(rng, u: np.ndarray) -> np.ndarray:
    """Node values of a random polynomial (POLYNOMIAL_TERMS monomials of
    degree <= 4) in direction cosines, scaled to unit max magnitude."""
    b, n = u.shape
    while True:
        p = np.zeros(b)
        for _ in range(POLYNOMIAL_TERMS):
            deg = int(rng.integers(1, 5))
            idx = rng.integers(0, n, size=deg)
            term = rng.standard_normal() * np.ones(b)
            for i in idx:
                term = term * u[:, i]
            p += term
        top = float(np.abs(p).max())
        if top > 1e-9:
            return p / top


def _project_constraints(f, u, w, n, v_target):
    """Alternate exact volume rescale and first-harmonic centroid shift.

    Both constraints are low-dimensional; at small amplitude the alternation
    contracts by a factor of the amplitude per sweep, and PROJECTION_SWEEPS
    sweeps without reaching PROJECTION_TOL raise ProjectionError.
    """
    for _ in range(PROJECTION_SWEEPS):
        vol = float(np.dot(f**n, w)) / n
        f = f * (v_target / vol) ** (1.0 / n)
        mom = ((f ** (n + 1) * w) @ u) / (n + 1)
        g = mom / v_target
        f = f - u @ g
        vol = float(np.dot(f**n, w)) / n
        if abs(vol / v_target - 1.0) <= PROJECTION_TOL and np.abs(g).max() <= PROJECTION_TOL:
            return f
    raise ProjectionError(
        "volume/centroid projection did not converge; amplitude too large?"
    )


def _optimality_resolution(n: int) -> int:
    """Default grid resolution of sphere_optimality_test in R^n.

    64 for n = 2, 48 for n = 3, and otherwise the largest up to 32 whose
    build_grid nodes stay within SCAN_NODES (27 at n = 6, 17 at n = 7:
    capped_resolution), so the materialized grid stays within the bounding
    scan's cap.
    """
    return capped_resolution(n, {2: 64, 3: 48}.get(n, 32))


def sphere_optimality_test(
    n: int,
    m: int,
    trials: int,
    amplitude: float,
    seed: int,
    resolution: int | None = None,
) -> list[tuple[int, float]]:
    """Thickness change of random constrained perturbations of the unit ball.

    Each trial draws a random radial perturbation (polynomial in the
    direction cosines), restores the ball's volume and a centered centroid by
    alternating projection, and reports deltaT = T_perturbed - T_ball. The
    ball maximizes T under these constraints, so deltaT <= 0 is the expected
    outcome for every trial. Trial randomness derives from (seed, trial), so
    any subset reproduces. The default resolution is _optimality_resolution(n).
    The comparison baseline is the grid value of the ball's own thickness,
    cancelling what little quadrature rounding there is.
    """
    n = check_int(n, "n", 2)
    m = _check_section_dim(m, n)
    trials = check_int(trials, "trials", 1)
    amplitude = check_real(amplitude, "amplitude", 0.0, inclusive=True)
    if amplitude > 0.1:
        raise DomainError(f"amplitude must lie in [0, 0.1], got {amplitude!r}")
    seed = check_seed(seed)
    if resolution is None:
        resolution = _optimality_resolution(n)
    u, w = build_grid(n, resolution).nodes()
    coef = unit_ball_volume(m) / unit_sphere_area(n - 1)
    t_ball = coef * float(w.sum())
    v_ball = unit_ball_volume(n)

    out = []
    for trial in range(trials):
        rng = np.random.default_rng([*seed, trial])
        p = _random_direction_polynomial(rng, u)
        f = 1.0 + amplitude * p
        f = _project_constraints(f, u, w, n, v_ball)
        t = coef * float(np.dot(f**m, w))
        out.append((trial, t - t_ball))
    return out


# ---------------------------------------------------------------------------
# dumbbell
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DumbbellConfig:
    """Two-disc configuration with total area A and centroid at distance G.

    The near disc (area A(1-gamma)) is centered at the origin; the far disc
    (area gamma A) sits on the axis at x_far, fixed by the centroid
    constraint gamma A x_far = G A.
    """

    area: float
    centroid_distance: float
    gamma: float

    def __post_init__(self):
        check_real(self.area, "area")
        check_real(self.centroid_distance, "centroid distance")
        if not check_real(self.gamma, "gamma") < 1.0:
            raise DomainError(f"gamma must lie in (0, 1), got {self.gamma!r}")

    @property
    def area_near(self) -> float:
        return self.area * (1.0 - self.gamma)

    @property
    def area_far(self) -> float:
        return self.area * self.gamma

    @property
    def x_far(self) -> float:
        return self.centroid_distance / self.gamma

    @property
    def radius_near(self) -> float:
        return math.sqrt(self.area_near / math.pi)

    @property
    def radius_far(self) -> float:
        return math.sqrt(self.area_far / math.pi)


def _far_disc_factor(k: float) -> float:
    """(4/pi) B(k), the far disc's exact correction to its point-mass value.

    B(k) = int_0^(pi/2) cos^2(phi) (1 - k^2 sin^2 phi)^(-1/2) dphi
         = (E - (1 - k^2) K) / k^2 = K (1/2 - sum_{j>=1} 2^(j-1) (c_j/k)^2)
    over the arithmetic-geometric mean (a_j, b_j, c_j) started at
    (1, sqrt(1 - k^2), k), with K = pi / (2 a_inf). The ratios q_j = c_j/k
    follow q_(j+1) = k q_j^2 / (4 a_(j+1)), so no difference of nearly
    equal numbers is ever formed; the factor is 1 + k^2/8 + 3k^4/64 + ...
    """
    a, b, q = 1.0, math.sqrt((1.0 - k) * (1.0 + k)), 1.0
    s = 0.5
    for j in range(1, 13):  # quadratic convergence: 12 steps cover k < 1
        a, b = 0.5 * (a + b), math.sqrt(a * b)
        q = k * q * q / (4.0 * a)
        s -= 2.0 ** (j - 1) * q * q
        if k * q <= 2.0**-52 * a:
            break
    return (2.0 / a) * s


def dumbbell_thickness(
    config: DumbbellConfig,
    exact: bool = False,
    samples: int = 2_000_000,
    seed: int = 0,
):
    """Average 1-section thickness of the two-disc body.

    The planar thickness is (1/pi) times the integral of 1/|x| over the body.
    The near disc contributes exactly 2 R_near (the mean of 1/rho over a
    centred disc is 2/R). The far disc, of radius a at distance d, contributes
    (A_far / (pi d)) (4/pi) B(a/d), where B is the elliptic combination of
    _far_disc_factor, so its point-mass value is corrected by 1 + (a/d)^2/8 + ...

    exact=False returns the asymptotic value 2 R_near + A_far/(pi x_far) as a
    float. exact=True returns (T, 0.0): the closed form and a zero error
    term. ``samples`` and ``seed`` are accepted for compatibility with the
    former Monte Carlo evaluation and ignored.
    """
    r_near, r_far, x_far = config.radius_near, config.radius_far, config.x_far
    if x_far <= r_near + r_far:
        raise GeometryError(
            f"discs overlap: separation {x_far:.6g} <= radii sum {r_near + r_far:.6g}"
        )
    far = config.area_far / (math.pi * x_far)
    if not exact:
        return 2.0 * r_near + far
    return 2.0 * r_near + far * _far_disc_factor(r_far / x_far), 0.0
