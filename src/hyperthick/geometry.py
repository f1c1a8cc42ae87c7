"""Directions on the unit sphere in R^n and tensor-product quadrature grids.

Angle convention: a direction in R^n is described by n-1 angles
(phi_1, ..., phi_{n-1}) with the polar angles phi_1 .. phi_{n-2} in [0, pi]
and the azimuthal angle phi_{n-1} in [0, 2 pi). The Cartesian components are

    x_1 = r cos phi_1
    x_2 = r sin phi_1 cos phi_2
    ...
    x_n = r sin phi_1 ... sin phi_{n-1}

so the pole of the chart is the +x_1 axis. The solid-angle element carries the
density sin^{n-2}(phi_1) sin^{n-3}(phi_2) ... sin(phi_{n-2}).

Quadrature grids are tensor products: Gauss-Jacobi nodes in cos(phi_i) for
each polar angle (the sin-power density is the Jacobi weight function, so
weight sums are exact; see polar_rule) and a uniform trapezoid rule in the
azimuth. At resolution R the azimuth's R nodes are exact to trigonometric
degree R-1, and each polar axis gets the R//2 + 1 Gauss nodes that are
exact to the same degree, so the grid integrates every polynomial in the
direction cosines of degree <= R-1 and holds (R//2 + 1)^(n-2) R nodes
(_grid_size). Each polar table is built once per (node count, power) and
cached as read-only arrays. Grids are stored in factored per-axis form;
dense enumeration happens in blocks of unit direction vectors, so large
grids never materialize all at once (DirectionGrid.nodes() gathers them
when a caller needs every node), and the node budget applies there.
Integrands that depend on u_1 alone (zonal ones) are 1-D integrals in
t = u_1: zonal_rule(n, resolution) is the polar rule for the density
sin^(n-2) times the area of the (n-2)-sphere the other coordinates sweep,
so it has resolution nodes whatever n is and needs no grid: about twice the
first polar axis of build_grid(n, resolution), since one axis alone is not
limited by the azimuth. Angles are the chart that builds grids and lays out
shape tables; everything that evaluates a radius works on the unit vectors.

legendre_angles is the Gauss-Legendre rule on [0, pi] shared by the
meridian quadrature of stationary shapes and the axis-aligned section rule;
it is built on first use per node count and cached as read-only arrays.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache, reduce

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import BudgetError, ConvergenceError, DomainError, check_int
from .nsphere import unit_sphere_area

__all__ = [
    "DEFAULT_NODE_BUDGET",
    "DirectionGrid",
    "build_grid",
    "cartesian_to_spherical",
    "frame_from_pole",
    "legendre_angles",
    "polar_rule",
    "unit_vectors",
    "zonal_rule",
]

# Most nodes a tensor grid may hold, and most nodes one iter_blocks block holds
DEFAULT_NODE_BUDGET = 1 << 28
DEFAULT_BLOCK = 1 << 22
# Most entries one materialized array may hold: the nodes of nodes() and
# angles(), the dense Jacobi matrix of a polar table and the companion matrix
# of a Legendre rule (4096 nodes)
MATERIALIZE_LIMIT = 1 << 24

TWO_PI = 2.0 * math.pi


def _as_angle_batch(angles) -> tuple[np.ndarray, bool]:
    """Coerce to a (B, n-1) float array; report whether input was a single direction."""
    arr = np.asarray(angles, dtype=float)
    if arr.ndim == 1:
        return arr[None, :], True
    if arr.ndim == 2:
        return arr, False
    raise DomainError(f"angles must be 1-D or 2-D, got shape {arr.shape}")


def unit_vectors(angles) -> np.ndarray:
    """Cartesian unit vectors for a batch of directions.

    Accepts (n-1,) for one direction or (B, n-1) for a batch; returns (n,)
    or (B, n) correspondingly.
    """
    arr, single = _as_angle_batch(angles)
    b, m = arr.shape
    n = m + 1
    if n < 2:
        raise DomainError("directions need at least one angle")
    out = np.empty((b, n))
    sin_running = np.ones(b)
    for i in range(m):
        out[:, i] = sin_running * np.cos(arr[:, i])
        sin_running = sin_running * np.sin(arr[:, i])
    out[:, n - 1] = sin_running
    return out[0] if single else out


def cartesian_to_spherical(points) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of r * unit_vectors(angles).

    Returns (r, angles). Polar angles come out in [0, pi] and the azimuth in
    [0, 2 pi). The origin has no direction and raises.
    """
    pts = np.asarray(points, dtype=float)
    single = pts.ndim == 1
    if single:
        pts = pts[None, :]
    b, n = pts.shape
    if n < 2:
        raise DomainError("points must live in R^n with n >= 2")
    sq = pts * pts
    # suffix[:, i] = |(x_i, ..., x_{n-1})|
    suffix = np.sqrt(np.cumsum(sq[:, ::-1], axis=1)[:, ::-1])
    r = suffix[:, 0]
    if np.any(r == 0.0):
        raise DomainError("the origin has no defined direction")
    ang = np.empty((b, n - 1))
    for i in range(n - 2):
        ang[:, i] = np.arctan2(suffix[:, i + 1], pts[:, i])
    az = np.arctan2(pts[:, n - 1], pts[:, n - 2])
    ang[:, n - 2] = np.where(az < 0.0, az + TWO_PI, az)
    if single:
        return float(r[0]), ang[0]
    return r, ang


def _check_axis(axis, n: int) -> np.ndarray:
    a = np.asarray(axis, dtype=float)
    if a.shape != (n,):
        raise DomainError(f"axis must be a length-{n} vector, got shape {a.shape}")
    norm = float(np.linalg.norm(a))
    if abs(norm - 1.0) > 1e-10:
        raise DomainError(f"axis must be unit length, |axis| = {norm!r}")
    return a


def frame_from_pole(axis) -> np.ndarray:
    """Orthogonal matrix Q with Q e_1 = axis (Householder reflection).

    Used to re-align a chart so its pole sits on an arbitrary axis; being a
    reflection rather than a rotation is immaterial for integration.
    """
    axis = np.asarray(axis, dtype=float)
    n = axis.shape[0]
    axis = _check_axis(axis, n)
    v = axis.copy()
    v[0] -= 1.0
    vv = float(v @ v)
    if vv < 1e-30:
        return np.eye(n)
    return np.eye(n) - 2.0 * np.outer(v, v) / vv


# ---------------------------------------------------------------------------
# quadrature grids
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DirectionGrid:
    """Tensor-product quadrature rule over the unit sphere in R^n.

    ``axes`` holds one (nodes, weights) pair per angle, polar angles first and
    the azimuth last. Weights of a full tensor node multiply together and
    already include the solid-angle density, so summing f(direction) * weight
    over all nodes approximates the integral of f over the sphere.
    """

    dimension: int
    resolution: int
    axes: tuple = field(repr=False)

    @property
    def node_count(self) -> int:
        return math.prod(nodes.size for nodes, _ in self.axes)

    def total_weight(self) -> float:
        """Exact total weight (the area of the unit (n-1)-sphere up to rounding)."""
        return math.prod(float(weights.sum()) for _, weights in self.axes)

    def iter_blocks(self):
        """Yield (u, weights) blocks covering the full tensor product.

        ``u`` is the (B, n) array of unit direction vectors and ``weights``
        is (B,). Both arrays are reused between blocks; copy them if they
        must outlive one iteration. Blocks are aligned with the trailing
        axes: the unit vectors of the trailing sub-chart are built once from
        per-axis cosine and sine tables, and each block only scales them by
        the leading angles' sine product, so no node pays for trigonometry.
        A block holds at most DEFAULT_BLOCK nodes unless the azimuth alone
        holds more. A tensor product of more than DEFAULT_NODE_BUDGET nodes
        raises BudgetError.
        """
        if self.node_count > DEFAULT_NODE_BUDGET:
            raise BudgetError(
                f"grid holds {self.node_count} nodes, over the budget of "
                f"{DEFAULT_NODE_BUDGET}; lower the resolution"
            )
        sizes = [nodes.size for nodes, _ in self.axes]
        num_axes = len(sizes)
        # longest suffix whose node count fits in a block
        t = 1
        tail_size = sizes[-1]
        while t < num_axes and tail_size * sizes[num_axes - t - 1] <= DEFAULT_BLOCK:
            tail_size *= sizes[num_axes - t - 1]
            t += 1
        q = num_axes - t  # prefix axes enumerated one combination per block

        cos_tab = [np.cos(nodes) for nodes, _ in self.axes]
        sin_tab = [np.sin(nodes) for nodes, _ in self.axes]
        # unit vectors of the trailing sub-chart, one row per component
        tail_u = np.empty((t + 1, tail_size))
        rows = tail_u.reshape(t + 1, *sizes[q:])  # written in place, with no temporaries
        running = np.ones([1] * t)
        for j in range(t):
            axis_shape = [1] * t
            axis_shape[j] = sizes[q + j]
            np.multiply(running, cos_tab[q + j].reshape(axis_shape), out=rows[j])
            # the last sine product is the last component
            out = rows[t] if j == t - 1 else None
            running = np.multiply(running, sin_tab[q + j].reshape(axis_shape), out=out)
        # a fresh array even for one axis: starting from 1.0 copies the table
        tw = reduce(np.multiply.outer, [w for _, w in self.axes[q:]], 1.0).reshape(-1)

        # component-major buffer: each direction cosine is one contiguous row;
        # a single block (no prefix) is the trailing sub-chart itself
        ubuf = np.empty((num_axes + 1, tail_size)) if q else tail_u
        wbuf = np.empty(tail_size) if q else tw

        # one block per prefix index, in C order (the last prefix axis fastest)
        for idx in itertools.product(*map(range, sizes[:q])):
            scale = 1.0
            for col in range(q - 1, -1, -1):
                scale *= self.axes[col][1][idx[col]]
            sin_prod = 1.0
            for col in range(q):
                ubuf[col].fill(sin_prod * cos_tab[col][idx[col]])
                sin_prod *= sin_tab[col][idx[col]]
            np.multiply(tail_u, sin_prod, out=ubuf[q:])
            np.multiply(tw, scale, out=wbuf)
            yield ubuf.T, wbuf

    def nodes(self) -> tuple[np.ndarray, np.ndarray]:
        """(N, n) unit vectors and (N,) weights of every node, copied from
        iter_blocks in block order; over MATERIALIZE_LIMIT nodes raises BudgetError."""
        self._check_limit()
        u, w = np.empty((self.node_count, self.dimension)), np.empty(self.node_count)
        start = 0
        for block_u, block_w in self.iter_blocks():
            u[start : start + block_w.size] = block_u
            w[start : start + block_w.size] = block_w
            start += block_w.size
        return u, w

    def _check_limit(self) -> None:
        if self.node_count > MATERIALIZE_LIMIT:
            raise BudgetError(
                f"{self.node_count} nodes exceed the materialization limit "
                f"{MATERIALIZE_LIMIT}"
            )

    def angles(self) -> np.ndarray:
        """Every node's angles as one (N, n-1) array, in block order: the shape-table layout."""
        self._check_limit()
        mesh = np.meshgrid(*[nodes for nodes, _ in self.axes], indexing="ij")
        return np.stack([g.reshape(-1) for g in mesh], axis=1)


def _gauss_jacobi(count: int, power: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss rule (t, weights) for the weight (1 - t^2)^((power - 1)/2) on [-1, 1].

    t = cos(phi) carries the density sin^power(phi) dphi to this weight.
    Golub-Welsch: the nodes (ascending) are the eigenvalues of the symmetric
    Jacobi matrix of the orthonormal polynomials q_k, polished by one Newton
    step on the three-term recurrence. The weights come from the derivative
    formula w = 1 / (b_N q_N'(t) q_{N-1}(t)) and are not normalized, so
    their sum still checks the rule.
    """
    a = (power - 1) / 2.0
    k = np.arange(1.0, count + 1.0)
    # b[k-1] is b_k in b_{k+1} q_{k+1} = t q_k - b_k q_{k-1}
    b = np.sqrt(k * (k + 2.0 * a) / ((2.0 * k + 2.0 * a) ** 2 - 1.0))
    t = np.linalg.eigvalsh(np.diag(b[:-1], -1))
    # q_0 = 1 / sqrt(int_0^pi sin^power), and that integral is S_{power+1} / S_power
    q0 = math.sqrt(unit_sphere_area(power) / unit_sphere_area(power + 1))

    def recurrence(t):
        """q_N(t), q_N'(t) and q_{N-1}(t)."""
        q_prev, q = np.zeros_like(t), np.full_like(t, q0)
        d_prev, d = np.zeros_like(t), np.zeros_like(t)
        b_prev = 0.0
        for b_next in b:
            q_prev, q = q, (t * q - b_prev * q_prev) / b_next
            d_prev, d = d, (q_prev + t * d - b_prev * d_prev) / b_next
            b_prev = b_next
        return q, d, q_prev

    q, d, _ = recurrence(t)
    t = t - q / d
    _, d, q_prev = recurrence(t)
    return t, 1.0 / (b[-1] * d * q_prev)


def polar_rule(count: int, power: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Jacobi rule for a polar angle with density sin^power.

    Returns read-only (angles, weights), the angles ascending in (0, pi):
    the Gauss nodes of _gauss_jacobi in the cosine variable, mapped back
    through arccos. The raw weights must sum to S_{power+1} / S_power
    within 1e-12 (else ConvergenceError) and are then scaled to that sum,
    so the rule integrates the density exactly and smooth integrands
    spectrally. It is built on first use for each (count, power)
    and cached, like legendre_angles; callers must not (and cannot) modify
    it. Raises BudgetError above 4096 nodes (MATERIALIZE_LIMIT matrix
    entries).
    """
    # validated before the cache lookup, which would fail on a list
    return _polar_table(check_int(count, "node count", 1), check_int(power, "density power", 1))


@lru_cache(maxsize=64)
def _polar_table(count: int, power: int) -> tuple[np.ndarray, np.ndarray]:
    # the Jacobi matrix is dense: about count^3 flops and count^2 floats
    # (4096 nodes take seconds and 128 MB, once per process)
    if count * count > MATERIALIZE_LIMIT:
        raise BudgetError(
            f"a polar table of {count} nodes needs a {count}^2 Jacobi matrix, "
            f"over the limit of {MATERIALIZE_LIMIT} entries"
        )
    t, w = _gauss_jacobi(count, power)
    # the weights must sum to the integral of sin^power over [0, pi],
    # S_{power+1} / S_power; a rule that misses it is broken, and the
    # rounding left in a sum that meets it is scaled away
    total, raw = unit_sphere_area(power + 1) / unit_sphere_area(power), float(w.sum())
    if not abs(raw / total - 1.0) < 1e-12:
        raise ConvergenceError(
            f"polar weights of {count} nodes for sin^{power} sum to {raw!r}, not {total!r}"
        )
    # ascending polar angle; arccos reverses the node order
    angles, weights = np.arccos(t)[::-1].copy(), w[::-1] * (total / raw)
    angles.flags.writeable = False
    weights.flags.writeable = False
    return angles, weights


def zonal_rule(n: int, resolution: int) -> tuple[np.ndarray, np.ndarray]:
    """1-D rule (t, weights) over the sphere in R^n, n >= 3, for integrands
    that depend on t = u_1 only.

    The nodes are the cosines of polar_rule(resolution, n - 2), exact to
    degree 2 resolution - 1 in t: the u_1 values the first polar axis of
    build_grid(n, 2 resolution - 2) carries, and about twice those of
    build_grid(n, resolution). The weights are that rule's weights times
    the area S_{n-2} of the sphere the other coordinates sweep, so they sum
    to S_{n-1}.
    """
    angles, weights = polar_rule(resolution, n - 2)
    return np.cos(angles), weights * unit_sphere_area(n - 2)


@lru_cache(maxsize=16)
def legendre_angles(count: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre rule mapped to [0, pi]: read-only (nodes, weights).

    Built on first use for each node count and cached, so repeated calls at
    one resolution cost nothing; callers must not (and cannot) modify it.
    Raises BudgetError above 4096 nodes, as polar_rule does: leggauss builds
    a dense count^2 companion matrix.
    """
    if count * count > MATERIALIZE_LIMIT:
        raise BudgetError(
            f"a Legendre rule of {count} nodes needs a {count}^2 companion matrix, "
            f"over the limit of {MATERIALIZE_LIMIT} entries"
        )
    x, w = leggauss(count)
    nodes = (x + 1.0) * (math.pi / 2.0)
    weights = w * (math.pi / 2.0)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def _polar_count(resolution: int) -> int:
    """Nodes on each polar axis of a grid at ``resolution``: the fewest Gauss
    nodes (exact to degree 2 (R//2) + 1 >= R - 1) that keep the azimuth's
    exact degree R - 1."""
    return resolution // 2 + 1


def _grid_size(n: int, resolution: int) -> int:
    """Node count of build_grid(n, resolution): (R//2 + 1)^(n-2) R."""
    return _polar_count(resolution) ** (n - 2) * resolution


def build_grid(n: int, resolution: int) -> DirectionGrid:
    """Build the tensor-product sphere rule for R^n.

    The azimuth gets ``resolution`` uniform nodes (trapezoid on the circle),
    exact to trigonometric degree resolution - 1. Polar angle i (density
    power p = n-1-i) gets the polar_rule of _polar_count(resolution) =
    resolution//2 + 1 nodes for that power, exact to the same degree, so
    the grid integrates every polynomial of degree <= resolution - 1 in the
    direction cosines exactly. Total node count is _grid_size(n,
    resolution) = (resolution//2 + 1)^(n-2) resolution; iter_blocks
    refuses to enumerate more than DEFAULT_NODE_BUDGET of them.
    """
    n = check_int(n, "grid dimension n", 2)
    resolution = check_int(resolution, "resolution", 1)
    # only the per-axis tables are built here; the tensor product is checked
    # against DEFAULT_NODE_BUDGET where iter_blocks enumerates it. polar_rule
    # caps each polar table at MATERIALIZE_LIMIT Jacobi-matrix entries, and
    # all polar nodes together are capped at sqrt(DEFAULT_NODE_BUDGET).
    count = _polar_count(resolution)
    polar, polar_cap = (n - 2) * count, math.isqrt(DEFAULT_NODE_BUDGET)
    if polar > polar_cap or resolution > DEFAULT_NODE_BUDGET:
        raise BudgetError(
            f"per-axis tables would hold {polar} polar and {resolution} azimuth "
            f"nodes, over the limits of {polar_cap} and {DEFAULT_NODE_BUDGET}"
        )
    axes = [polar_rule(count, n - 1 - i) for i in range(1, n - 1)]
    az_nodes = TWO_PI * np.arange(resolution) / resolution
    az_weights = np.full(resolution, TWO_PI / resolution)
    axes.append((az_nodes, az_weights))
    grid = DirectionGrid(dimension=n, resolution=resolution, axes=tuple(axes))
    # cheap self-check: the factored weight sum must reproduce the sphere area
    total, area = grid.total_weight(), unit_sphere_area(n - 1)
    if not abs(total / area - 1.0) < 1e-12:
        raise ConvergenceError(
            f"quadrature weights sum to {total!r}, not the sphere area {area!r}"
        )
    return grid
