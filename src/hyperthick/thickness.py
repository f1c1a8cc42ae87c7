"""Average m-dimensional thickness and related functionals of star-shaped bodies.

The central quantity is the mean m-volume of the m-dimensional planar sections
of a body through the origin, averaged over all section orientations. For a
star-shaped body with radial function f this reduces to a solid-angle
integral:

    T(m, n) = (V_m / S_{n-1}) * integral of f^m over the sphere

with V_m the unit m-ball volume and S_{n-1} the sphere area. Volume and
centroid are the analogous integrals of f^n/n and f^{n+1}/(n+1) times the
direction cosines. Directions are unit vectors u in R^n throughout: radial
functions take a (B, n) batch of them and quadrature grids yield them in
blocks.

Axisymmetric (zonal) shapes, whose radius depends on t = u_1 alone, carry
their profile g(t): balls, cosine series for n >= 3, stationary shapes, and
scaled copies of these. For them T, V and the moment are 1-D integrals in t,
taken with zonal_rule(n, grid.resolution): Gauss-Legendre in theta =
arccos t, with max(grid.resolution, n) + 16 nodes whatever the grid holds,
which stays spectral at the cusp of a critical stationary shape. Rotating a
zonal shape off the axis loses the profile and falls back to the tensor
grid, whose Gauss-Jacobi nodes in the direction cosines converge only
algebraically at such a cusp.

For bodies given only by an indicator function the same thickness is
estimated by Monte Carlo straight from the radial form: a uniform direction u
and a radius r with density proportional to r^(m-1) on [0, R] make
V_m R^m * 1[r u in body] an unbiased estimate of T, a Bernoulli mean whose
variance is bounded. A body that is star-shaped about the origin (every
StarShape.indicator) holds its StarShape, and the test is then r <= f(u) on
the drawn direction, with no point formed and no norm taken again; such a
run raises as soon as some f(u) exceeds R, since a body that leaves its
bounding ball biases the estimate. For a zonal shape the test is
r <= g(u_1) on its profile g, which reads one coordinate: only u_1 is drawn,
from its exact marginal, with two uniforms per sample at every n. Other
bodies draw each batch of directions component-major, an (n, B) Gaussian
array whose columns are normalised in place; those that are not star-shaped
get the points r u and their own membership test.

The samples are split over MC_LANES lanes, each drawing from its own child
stream of the seed (child_rng), and the lanes run on as many threads as the
process has CPUs: the calling thread and workers started for the call. The
lanes' integer hit counts are summed, so an estimate depends on the seed, the
sample count and the body alone, never on the number of CPUs. A body's
radial function, profile and membership test may therefore be called from
several threads at once; every shape the library builds is pure numpy and
safe to share.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.polynomial.chebyshev import chebval

from .errors import (
    DegenerateBodyError,
    DomainError,
    InsufficientSamplingError,
    check_int,
    check_real,
    check_seed,
)
from .geometry import (
    DirectionGrid,
    _grid_size,
    build_grid,
    frame_from_pole,
    legendre_angles,
    zonal_rule,
)
from .nsphere import unit_ball_volume, unit_sphere_area

__all__ = [
    "BodyProperties",
    "IndicatorBody",
    "StarShape",
    "average_thickness",
    "axis_section_average",
    "centroid",
    "thickness_montecarlo",
    "volume",
]

# Monte Carlo samples drawn and tested per batch of one lane. With glibc on
# Linux, 2^16 or 2^15 made a 2e6-sample call at n = 6 take about 24,000 minor
# page faults (the batch arrays returned to the system and touched afresh each
# batch); at 2^14 the allocator keeps reusing them and the call takes none.
# A worker thread is started only for at least one batch of samples.
MC_CHUNK = 1 << 14

# Independent streams a Monte Carlo call splits its samples over: lane i
# takes samples // MC_LANES + (i < samples % MC_LANES) of them from
# child_rng(seed, i). Fixed, so estimates do not depend on the CPU count,
# and a power of two, so 1, 2, 4 and 8 workers share the lanes evenly.
MC_LANES = 8

# bounding_radius pads its scan maximum by this factor to cover excursions
# between scan nodes; an overestimate only costs Monte Carlo acceptance
BOUNDING_PAD = 1.05

# Most nodes a tensor bounding scan visits: the default resolution 64 holds
# 33^4 * 64 = 7.6e7 nodes at n = 6. Monte Carlo on a star-shaped body raises
# if the coarser scan this forces underestimates the radius.
SCAN_NODES = 1 << 20


def capped_resolution(n: int, resolution: int) -> int:
    """The largest resolution <= ``resolution`` whose build_grid(n, resolution)
    nodes stay within SCAN_NODES."""
    while resolution > 1 and _grid_size(n, resolution) > SCAN_NODES:
        resolution -= 1
    return resolution


def _check_section_dim(m, n: int) -> int:
    """Validate 1 <= m < n and return m as a Python int (numpy integers pass)."""
    return check_int(m, "section dimension m", 1, n - 1)


def _checked_radii(values, count: int) -> np.ndarray:
    """Radii as a (count,) array, validated positive and finite (scalars broadcast)."""
    r = np.asarray(values, dtype=float)
    r = np.broadcast_to(r, (count,)).copy() if r.ndim == 0 else r
    if r.shape != (count,):
        raise DomainError(f"radial function returned shape {r.shape}")
    if not np.all(np.isfinite(r)) or np.any(r <= 0.0):
        raise DomainError("radial function must be positive and finite everywhere")
    return r


class StarShape:
    """Star-shaped body: boundary at radius f(u) from the origin.

    ``radial_fn`` receives a (B, n) array of unit direction vectors and must
    return the (B,) array of boundary radii. Radii are validated to be
    positive and finite on every evaluation; continuity is assumed.
    ``profile`` is None, except for zonal shapes (see zonal), where it is
    the radius as a function of u_1 alone. thickness_montecarlo may call
    ``radial_fn`` and ``profile`` from several threads at once, so they must
    not mutate shared state; every shape the library builds is pure numpy.
    """

    def __init__(self, dimension: int, radial_fn: Callable, name: str = "custom"):
        self.dimension = check_int(dimension, "shape dimension", 2)
        self.name = name
        self._radial_fn = radial_fn
        self.profile = None

    def __repr__(self):
        return f"StarShape(dimension={self.dimension}, name={self.name!r})"

    def radial(self, u) -> np.ndarray:
        """Boundary radii along unit vectors u, (n,) for one or (B, n) for a batch."""
        u = np.asarray(u, dtype=float)
        single = u.ndim == 1
        batch = u[None, :] if single else u
        if batch.ndim != 2 or batch.shape[1] != self.dimension:
            raise DomainError(
                f"expected unit vectors with {self.dimension} components, got shape {u.shape}"
            )
        r = _checked_radii(self._radial_fn(batch), batch.shape[0])
        return r[0] if single else r

    def _profile_radii(self, t: np.ndarray) -> np.ndarray:
        """Validated profile values g(t) for a 1-D array t of u_1 values (zonal shapes)."""
        return _checked_radii(self.profile(t), t.shape[0])

    @staticmethod
    def zonal(dimension: int, profile, name: str = "zonal") -> "StarShape":
        """Axisymmetric shape about x_1 with radius g(u_1).

        ``profile`` maps a 1-D array of t = u_1 values to radii. For n >= 3
        the shape keeps it as ``shape.profile``, and thickness, volume and
        moment integrate it with the 1-D zonal rule. In the plane the circle
        has no smaller rule than the tensor one, so for n = 2 this returns a
        plain shape with the same radial function.
        """

        def fn(u, _g=profile):
            return _g(u[:, 0])

        shape = StarShape(dimension, fn, name=name)
        if dimension >= 3:
            shape.profile = profile
        return shape

    @staticmethod
    def ball(dimension: int, radius: float = 1.0) -> "StarShape":
        radius = check_real(radius, "ball radius")
        return StarShape.zonal(
            dimension,
            lambda t: np.full(t.shape[0], radius),
            name=f"ball:{radius:g}",
        )

    @staticmethod
    def cosine_series(dimension: int, cos_coeffs, sin_coeffs=()) -> "StarShape":
        """Radial cosine series in the first angle.

        f = c0 + c1 cos(phi_1) + c2 cos(2 phi_1) + ... (+ s_k sin(k phi_1)).
        For n = 2 the first angle is the full azimuth, so sine terms make
        sense; for n >= 3 it is the polar angle and the shape is axisymmetric
        (sine terms are rejected there). With cos(phi_1) = u_1, the terms are
        Chebyshev polynomials: cos(k phi_1) = T_k(u_1) and, for n = 2,
        sin(k phi_1) = u_2 U_{k-1}(u_1). Without sine terms the shape is
        zonal.
        """
        cos_coeffs = [float(c) for c in cos_coeffs]
        sin_coeffs = [float(s) for s in sin_coeffs]
        if not cos_coeffs:
            raise DomainError("cosine series needs at least the constant term")
        if sin_coeffs and dimension != 2:
            raise DomainError("sine terms are only meaningful for dimension 2")
        if not sin_coeffs:
            return StarShape.zonal(
                dimension, lambda t, _c=cos_coeffs: chebval(t, _c), name="cosine_series"
            )

        def fn(u, _c=cos_coeffs, _s=sin_coeffs):
            x = u[:, 0]
            # sum of s_k U_{k-1}(x) by the three-term recurrence
            acc, u_prev, u_k = 0.0, 0.0, 1.0
            for s in _s:
                acc = acc + s * u_k
                u_prev, u_k = u_k, 2.0 * x * u_k - u_prev
            return chebval(x, _c) + u[:, 1] * acc

        return StarShape(dimension, fn, name="cosine_series")

    def scaled(self, factor: float) -> "StarShape":
        factor = check_real(factor, "scale factor")
        name = f"{self.name}*{factor:g}"
        if self.profile is not None:
            return StarShape.zonal(
                self.dimension, lambda t: factor * self.profile(t), name=name
            )
        return StarShape(self.dimension, lambda u: factor * self.radial(u), name=name)

    def rotated(self, matrix) -> "StarShape":
        """Precompose directions with an orthogonal map (rows act on the right).

        The result is never zonal, even for a zonal shape: its axis moves.
        """
        q = np.asarray(matrix, dtype=float)
        n = self.dimension
        if q.shape != (n, n):
            raise DomainError(f"rotation matrix must be {n}x{n}, got {q.shape}")
        if not np.allclose(q @ q.T, np.eye(n), atol=1e-10):
            raise DomainError("rotation matrix must be orthogonal")

        def fn(u, _q=q):
            # g(d) = f(Q^T d): the body is carried forward by Q
            return self.radial(u @ _q)

        return StarShape(n, fn, name=f"{self.name}@rot")

    def contains(self, points) -> np.ndarray:
        """Membership |x| <= f(x / |x|) of (n,) or (B, n) points; the origin raises."""
        pts = np.asarray(points, dtype=float)
        r = np.sqrt(np.einsum("...i,...i->...", pts, pts))
        if not np.all(r > 0.0):
            raise DomainError("the origin has no defined direction")
        return r <= self.radial(pts / r[..., None])

    def bounding_radius(self, scan_resolution: int = 64) -> float:
        """Upper bound on the radial function: a grid scan padded by BOUNDING_PAD.

        Zonal shapes scan their profile on the max(scan_resolution, n) + 16
        t nodes of zonal_rule(n, scan_resolution), at a cost independent of
        n. Other shapes scan the tensor grid, at the largest resolution up
        to ``scan_resolution`` whose build_grid nodes stay within SCAN_NODES
        (capped_resolution).
        """
        if self.profile is not None:
            t, _ = zonal_rule(self.dimension, scan_resolution)
            return float(self._profile_radii(t).max()) * BOUNDING_PAD
        resolution = check_int(scan_resolution, "scan resolution", 1)
        grid = build_grid(self.dimension, capped_resolution(self.dimension, resolution))
        top = 0.0
        for u, _ in grid.iter_blocks():
            top = max(top, float(self.radial(u).max()))
        return top * BOUNDING_PAD

    def indicator(self, scan_resolution: int = 64) -> "IndicatorBody":
        """Indicator view of the same body, for the Monte Carlo estimator: its
        membership test, its bounding radius scanned at ``scan_resolution``,
        and the shape itself."""
        return IndicatorBody(
            self.dimension, self.contains, self.bounding_radius(scan_resolution), self
        )


@dataclass(frozen=True)
class IndicatorBody:
    """Body known only through membership tests inside a bounding ball.

    ``contains`` maps a (B, n) point array to a (B,) boolean array and must be
    false everywhere outside the bounding ball. ``shape`` is set only for a
    body that is star-shaped about the origin (StarShape.indicator sets it),
    and thickness_montecarlo then tests radii against the shape's radial
    function, or its profile if it is zonal, instead of calling ``contains``.
    Like those, ``contains`` may be called from several threads at once.
    """

    dimension: int
    contains: Callable
    bounding_radius: float
    shape: StarShape | None = None

    def __post_init__(self):
        check_real(self.bounding_radius, "bounding radius")


@dataclass(frozen=True)
class BodyProperties:
    """Volume, axial first moment, and average thickness of one body.

    ``moment`` is the first moment of volume along the symmetry axis (the
    chart pole); the centroid sits at moment / volume.
    """

    volume: float
    moment: float
    thickness: float


def _check_pair(shape: StarShape, grid: DirectionGrid):
    if grid.dimension != shape.dimension:
        raise DomainError(
            f"grid dimension {grid.dimension} != shape dimension {shape.dimension}"
        )


def _power_integral(shape: StarShape, grid: DirectionGrid, power: int) -> float:
    """Quadrature of f^power over the unit sphere, in 1-D for zonal shapes."""
    _check_pair(shape, grid)
    if shape.profile is not None:
        t, w = zonal_rule(shape.dimension, grid.resolution)
        return float(np.dot(shape._profile_radii(t) ** power, w))
    total = 0.0
    for u, w in grid.iter_blocks():
        total += float(np.dot(shape.radial(u) ** power, w))
    return total


def average_thickness(shape: StarShape, m: int, grid: DirectionGrid) -> float:
    """Mean m-volume of m-planar sections through the origin."""
    n = shape.dimension
    m = _check_section_dim(m, n)
    coef = unit_ball_volume(m) / unit_sphere_area(n - 1)
    return coef * _power_integral(shape, grid, m)


def volume(shape: StarShape, grid: DirectionGrid) -> float:
    n = shape.dimension
    return _power_integral(shape, grid, n) / n


def moment_vector(shape: StarShape, grid: DirectionGrid) -> np.ndarray:
    """First moment of volume, all n components (not divided by volume).

    For a zonal shape only the axial component is integrated; the others
    vanish by symmetry and are returned as exact zeros.
    """
    n = shape.dimension
    _check_pair(shape, grid)
    acc = np.zeros(n)
    if shape.profile is not None:
        t, w = zonal_rule(n, grid.resolution)
        acc[0] = float(np.dot(shape._profile_radii(t) ** (n + 1) * t, w))
        return acc / (n + 1)
    for u, w in grid.iter_blocks():
        acc += (shape.radial(u) ** (n + 1) * w) @ u
    return acc / (n + 1)


def centroid(shape: StarShape, grid: DirectionGrid) -> np.ndarray:
    v = volume(shape, grid)
    if v <= 0.0:
        raise DegenerateBodyError(f"volume {v!r} admits no centroid")
    return moment_vector(shape, grid) / v


def _axial_cosines(rng: np.random.Generator, n: int, count: int) -> np.ndarray:
    """u_1 of ``count`` uniform unit vectors in R^n, n >= 3, from two uniforms each.

    For u uniform on the sphere, s^2 = u_1^2 + u_2^2 is Beta(1, (n - 2)/2),
    drawn by inversion as 1 - U^(2/(n-2)), and the angle of (u_1, u_2) is
    uniform and independent of s; cos(pi V) has the law of its cosine. This
    is the coordinate-block marginal of Barthe, Guedon, Mendelson and Naor
    (Ann. Probab. 33, 2005).
    """
    # in place: fresh chunk-sized temporaries go back to the system and are
    # touched afresh every batch, in page faults
    t, v = rng.random((2, count))
    t **= 2.0 / (n - 2)
    np.sqrt(np.subtract(1.0, t, out=t), out=t)
    v *= np.pi
    t *= np.cos(v, out=v)
    return t


def child_rng(seed: tuple[int, ...], index: int) -> np.random.Generator:
    """Generator of child stream ``index`` of a checked seed (check_seed).

    The stream is that of SeedSequence(seed).spawn(index + 1)[index], built
    directly, so any one child reproduces alone. A spawn key is mixed in
    apart from the seed words, so no child of one seed is a child of
    another: default_rng([*seed, index]) was not, since numpy pads seed
    words with zeros and child i of seed s was then child 0 of seed (s, i).
    """
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))


def _worker_count() -> int:
    """CPUs this process may run on: the most threads a Monte Carlo call uses."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask outside Linux
        return os.cpu_count() or 1


def _run_lanes(lane: Callable, tasks: list, workers: int, stop: threading.Event) -> list:
    """[lane(*task) for task in tasks], computed on ``workers`` threads.

    The calling thread is one worker; the others are started here, take
    tasks from the same list and are joined before this returns or raises.
    The first exception raised in any lane sets ``stop``, which the lanes
    poll between batches, and is re-raised unchanged once every thread has
    ended.
    """
    results = [None] * len(tasks)
    pending = list(range(len(tasks)))
    errors = []

    def work():
        try:
            while not stop.is_set():
                try:
                    k = pending.pop()  # atomic: no two workers take one task
                except IndexError:
                    return
                results[k] = lane(*tasks[k])
        except BaseException as exc:  # re-raised below, on the calling thread
            errors.append(exc)
            stop.set()

    threads = []
    try:
        for _ in range(workers - 1):
            threads.append(threading.Thread(target=work, daemon=True))
            threads[-1].start()
        work()
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]
    return results


def thickness_montecarlo(
    body: IndicatorBody, m: int, samples: int, seed: int
) -> tuple[float, float]:
    """Monte Carlo thickness of an indicator body: (estimate, one-sigma stderr).

    Samples the radial form of T directly: u uniform on the sphere and
    r = R (1 - U)^(1/m), whose density is m r^(m-1) / R^m on (0, R]. The
    estimate is V_m R^m times the fraction of points r u inside the body, a
    Bernoulli mean, so its variance is bounded and the binomial stderr is a
    valid error bar for every 1 <= m < n. For any body its expectation is
    m V_m / S_{n-1} times the integral of |x|^(m-n) over the body.

    The samples are split over MC_LANES lanes, lane i drawing from
    child_rng(seed, i), and the lanes run on up to one thread per CPU, the
    calling thread among them, with no more threads than lanes holding
    samples or batches of MC_CHUNK samples. The hit counts of the lanes are
    summed, so the result is a function of (seed, samples, body) alone,
    whatever the CPU count: deterministic for a fixed seed, a non-negative
    integer or a non-empty list or tuple of them. The body's radial
    function, profile or ``contains`` may be called from several threads at
    once. The first exception raised in any lane stops the others at their
    next batch and is re-raised once every thread has ended.

    For a zonal ``body.shape`` a point is inside when r <= g(u_1), with g
    the shape's profile, and only u_1 is drawn (see _axial_cosines).
    Otherwise u is a normalised Gaussian vector; with ``body.shape`` set, a
    point is inside when r <= f(u), and without it when contains(r u). On
    either radial test a radius above R raises DomainError, because the body
    then leaves its bounding ball and the estimate would be biased low.
    """
    n = body.dimension
    m = _check_section_dim(m, n)
    samples = check_int(samples, "samples", 1)
    seed = check_seed(seed)
    radius = float(body.bounding_radius)
    coef = unit_ball_volume(m) * radius**m
    shape = body.shape
    zonal = shape is not None and shape.profile is not None
    stop = threading.Event()

    def lane(index: int, count: int) -> int:
        rng = child_rng(seed, index)
        hits = done = 0
        while done < count and not stop.is_set():
            c = min(MC_CHUNK, count - done)
            if zonal:
                f = shape._profile_radii(_axial_cosines(rng, n, c))
            else:
                # component-major (n, c): the norm and the radial test loop over
                # rows of length c, not over the n = 2-6 components of each point
                u = rng.standard_normal((n, c))
                u /= np.sqrt(np.einsum("ij,ij->j", u, u))
                f = None if shape is None else shape.radial(u.T)
            r = radius * (1.0 - rng.random(c)) ** (1.0 / m)
            if f is None:
                u *= r
                inside = body.contains(u.T)
            else:
                top = float(f.max())
                if top > radius:
                    raise DomainError(
                        f"the body reaches radius {top!r}, beyond its bounding radius "
                        f"{radius!r}: the bounding radius is underestimated"
                    )
                inside = r <= f
            hits += int(np.count_nonzero(inside))
            done += c
        return hits

    # lanes with no samples make no draw
    tasks = [(i, samples // MC_LANES + (i < samples % MC_LANES))
             for i in range(min(samples, MC_LANES))]
    workers = min(_worker_count(), len(tasks), -(-samples // MC_CHUNK))
    hits = sum(_run_lanes(lane, tasks, workers, stop))
    if hits == 0:
        raise InsufficientSamplingError(
            f"no sample of {samples} landed inside the body; "
            "bounding radius may be far too large"
        )
    p = hits / samples
    return coef * p, coef * math.sqrt(p * (1.0 - p) / max(samples - 1, 1))


def axis_section_average(shape: StarShape, axis, grid: DirectionGrid) -> float:
    """Average area of planar sections through a fixed axis, n = 3 only.

    Averaging directions in a chart whose pole is the axis cancels the
    1/sqrt(1 - (d.axis)^2) kernel against the chart's own sine density, so
    the integral reduces to f^2 over the two chart angles with uniform
    measure, divided by 2 pi. Averaging this quantity over all axes
    reproduces average_thickness with m = 2. Only the resolution is taken
    from the grid; the aligned rule is built here.
    """
    if shape.dimension != 3:
        raise DomainError("axis-conditional sections are implemented for dimension 3")
    _check_pair(shape, grid)
    axis = np.asarray(axis, dtype=float)
    q = frame_from_pole(axis)  # validates unit length

    theta, w_theta = legendre_angles(grid.resolution)
    n_phi = grid.resolution
    phi = 2.0 * math.pi * np.arange(n_phi) / n_phi
    w_phi = 2.0 * math.pi / n_phi

    # unit vectors of the aligned chart, theta-major
    sin_theta = np.sin(theta)
    u = np.stack([np.repeat(np.cos(theta), n_phi), np.outer(sin_theta, np.cos(phi)).ravel(),
                  np.outer(sin_theta, np.sin(phi)).ravel()], axis=1)
    f = shape.radial(u @ q.T)
    ww = np.repeat(w_theta, n_phi) * w_phi
    return float(np.dot(f * f, ww)) / (2.0 * math.pi)
