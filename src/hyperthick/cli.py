"""Command line surface.

Every JSON result carries a reproducibility envelope (tool_version,
params_echo, grid_resolution, seed when randomness is involved). CSV output
is RFC 4180 with a mandatory header row and 17 significant digits. Exit
codes: 0 success, 1 computation or domain failure (JSON {error, detail} on
stdout), 2 usage error.
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import json
import math
import os
import sys

import click
import numpy as np

from . import __version__
from .analysis import (
    DeformationSample,
    DumbbellConfig,
    _optimality_resolution,
    dumbbell_thickness,
    nullvector_recover,
    sphere_optimality_test,
    stationary_shape,
)
from .errors import DomainError, HyperthickError, RankError, check_int, check_seed
from .geometry import build_grid, cartesian_to_spherical
from .nsphere import unit_ball_volume, unit_sphere_area
from .properties import (
    body_properties,
    closed_form,
    linear_identity_residual,
    thickness_via_identity,
)
from .stationary import StationaryParams, factorization_residual, profile_curve
from .thickness import StarShape, average_thickness, thickness_montecarlo

CONFIG_KEYS = {"resolution": int, "samples": int, "tolerance": float}


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _emit(payload: dict, params_echo: dict, grid=None, seed=None) -> None:
    doc = {
        "tool_version": __version__,
        "params_echo": params_echo,
        "grid_resolution": grid,
    }
    if seed is not None:
        doc["seed"] = seed
    doc.update(payload)
    click.echo(json.dumps(doc))


def _handle_errors(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except HyperthickError as exc:
            click.echo(json.dumps({"error": type(exc).__name__, "detail": str(exc)}))
            sys.exit(1)

    return wrapper


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    out = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            key = key.strip()
            if not sep or key not in CONFIG_KEYS:
                raise click.UsageError(
                    f"{path}:{lineno}: expected '<key>=<value>' with key in "
                    f"{sorted(CONFIG_KEYS)}, got {line!r}"
                )
            try:
                out[key] = CONFIG_KEYS[key](value.strip())
            except ValueError:
                raise click.UsageError(f"{path}:{lineno}: bad value for {key}: {value!r}")
    return out


def _pick(flag, cfg: dict, key: str, fallback):
    """Flag wins over config file; config wins over the built-in default."""
    if flag is not None:
        return flag
    return cfg.get(key, fallback)


def _write_csv(stream, header, rows) -> None:
    writer = csv.writer(stream, lineterminator="\r\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) if isinstance(v, float) else v for v in row])


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    _write_csv(buf, header, rows)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# shape mini-language
# ---------------------------------------------------------------------------


def _parse_harmonic(body: str) -> StarShape:
    kv = {}
    for part in body.split(";"):
        part = part.strip()
        if not part:
            continue
        key, sep, value = part.partition("=")
        if not sep:
            raise click.BadParameter(f"harmonic field {part!r} is not key=value")
        kv[key.strip()] = value.strip()
    if "n" not in kv:
        raise click.BadParameter("harmonic spec needs n=<dim>")
    try:
        n = int(kv.pop("n"))
        cos_terms, sin_terms = {}, {}
        for key, value in kv.items():
            if key.startswith("c") and key[1:].isdigit():
                cos_terms[int(key[1:])] = float(value)
            elif key.startswith("s") and key[1:].isdigit():
                sin_terms[int(key[1:])] = float(value)
            else:
                raise click.BadParameter(f"unknown harmonic field {key!r}")
    except ValueError:
        raise click.BadParameter(f"bad numeric value in harmonic spec {body!r}")
    cos_coeffs = [cos_terms.get(i, 0.0) for i in range(max(cos_terms, default=0) + 1)]
    sin_coeffs = [sin_terms.get(i, 0.0) for i in range(1, max(sin_terms, default=0) + 1)]
    return StarShape.cosine_series(n, cos_coeffs, sin_coeffs)


def _multilinear(coords, values, points) -> np.ndarray:
    """Multilinear interpolation of a rectilinear table at (B, d) points.

    Each point is located on each axis by searchsorted and its value blended
    from the 2^d corners of its cell. Past the end nodes the end cells
    extend linearly.
    """
    cells, fractions = [], []
    for axis, x in zip(coords, points.T):
        i = np.clip(np.searchsorted(axis, x, side="right") - 1, 0, axis.size - 2)
        cells.append(i)
        fractions.append((x - axis[i]) / (axis[i + 1] - axis[i]))
    out = np.zeros(points.shape[0])
    for corner in itertools.product((0, 1), repeat=len(coords)):
        weight = np.ones(points.shape[0])
        for upper, frac in zip(corner, fractions):
            weight = weight * (frac if upper else 1.0 - frac)
        out += weight * values[tuple(i + upper for i, upper in zip(cells, corner))]
    return out


def _shape_from_file(path: str) -> StarShape:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise DomainError(f"cannot read shape file {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise DomainError(f"shape file {path} is not valid JSON: {exc}")
    for key in ("n", "resolution", "values"):
        if key not in doc:
            raise DomainError(f"shape file {path} is missing key {key!r}")
    n, resolution = doc["n"], doc["resolution"]
    grid = build_grid(n, resolution)
    coords = [nodes for nodes, _ in grid.axes]
    values = np.asarray(doc["values"], dtype=float)
    if values.shape != (grid.node_count,):
        raise DomainError(
            f"shape file holds {values.size} values; a table needs one per node of "
            f"build_grid({n}, {resolution}), {grid.node_count} in angles() order"
        )
    if not np.all(np.isfinite(values)) or values.min() <= 0.0:
        raise DomainError("tabulated radii must be finite and positive")
    values = values.reshape([c.size for c in coords])
    # periodic closure of the azimuth axis so queries near 2*pi interpolate
    # across the seam instead of extrapolating
    coords[-1] = np.append(coords[-1], 2.0 * math.pi)
    values = np.concatenate([values, values[..., :1]], axis=-1)
    # an axis with a single node (resolution 1) holds no variation
    keep = np.array([c.size > 1 for c in coords])
    coords = [c for c, k in zip(coords, keep) if k]
    values = values.reshape([c.size for c in coords])

    def radial_fn(u):
        # the table lives on the angle chart: convert directions on the way in
        _, angles = cartesian_to_spherical(u)
        return _multilinear(coords, values, angles[:, keep])

    return StarShape(n, radial_fn, name=f"file:{os.path.basename(path)}")


def parse_shape(spec: str, dim: int | None) -> StarShape:
    """Build a shape from the mini-language.

    ball:R (dimension from --n), harmonic:n=2;c0=1;c1=0.3;s1=0.1 (cosine and,
    for n=2, sine series in the first angle), file:path.json (tabulated radii
    on a stored grid, interpolated multilinearly).
    """
    kind, sep, body = spec.partition(":")
    if not sep:
        raise click.BadParameter(f"shape spec {spec!r} has no ':'")
    if kind == "ball":
        try:
            radius = float(body)
        except ValueError:
            raise click.BadParameter(f"ball radius {body!r} is not a number")
        return StarShape.ball(dim if dim is not None else 3, radius)
    if kind == "harmonic":
        shape = _parse_harmonic(body)
    elif kind == "file":
        shape = _shape_from_file(body)
    else:
        raise click.BadParameter(f"unknown shape kind {kind!r}")
    if dim is not None and dim != shape.dimension:
        raise click.BadParameter(
            f"--n {dim} conflicts with shape dimension {shape.dimension}"
        )
    return shape


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


@click.group()
@click.version_option(__version__, prog_name="hyperthick")
@click.option(
    "--config",
    "config_path",
    type=click.Path(exists=True, dir_okay=False),
    default=None,
    help="key=value file setting default resolution, samples, tolerance.",
)
@click.pass_context
def main(ctx, config_path):
    """Average cross-sectional thickness of star-shaped bodies."""
    ctx.obj = _load_config(config_path)


@main.command()
@click.option("--dim", type=int, required=True, help="ambient dimension n")
@_handle_errors
def nsphere(dim):
    """Unit-ball volume V and boundary sphere area S for dimension n."""
    check_int(dim, "--dim", 1)
    payload = {"n": dim, "V": unit_ball_volume(dim), "S": unit_sphere_area(dim - 1)}
    _emit(payload, {"dim": dim})


@main.command()
@click.option("--shape", "spec", required=True, help="ball:R | harmonic:… | file:….json")
@click.option("--m", type=int, required=True, help="section dimension")
@click.option("--n", "dim", type=int, default=None, help="ambient dimension for ball:R")
@click.option("--mc", is_flag=True, help="Monte Carlo instead of quadrature")
@click.option("--samples", type=int, default=None, help="Monte Carlo sample count")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--resolution", type=int, default=None, help="quadrature grid resolution")
@click.pass_obj
@_handle_errors
def thickness(cfg, spec, m, dim, mc, samples, seed, resolution):
    """Average m-dimensional section thickness of a shape."""
    shape = parse_shape(spec, dim)
    echo = {"shape": spec, "m": m, "n": shape.dimension, "mc": mc}
    if mc:
        samples = _pick(samples, cfg, "samples", 2_000_000)
        echo["samples"] = samples
        estimate, stderr = thickness_montecarlo(shape.indicator(), m, samples, seed)
        _emit({"T": estimate, "stderr": stderr}, echo, seed=seed)
    else:
        resolution = _pick(resolution, cfg, "resolution", 64)
        echo["resolution"] = resolution
        grid = build_grid(shape.dimension, resolution)
        zonal = shape.profile is not None
        # the nodes the rule integrates: the zonal rule's, or the whole grid
        nodes = grid.resolution if zonal else grid.node_count
        _emit(
            {"T": average_thickness(shape, m, grid), "rule": "zonal" if zonal else "tensor"},
            echo,
            grid={"n": grid.dimension, "resolution": grid.resolution, "node_count": nodes},
        )


@main.group()
def stationary():
    """Stationary shapes of the constrained thickness problem."""


@stationary.command()
@click.option("--nm", "codim", type=int, required=True, help="codimension k = n - m")
@click.option("--lambda", "lam", type=float, required=True)
@click.option("--ecc", type=float, required=True)
@click.option("--points", type=int, default=200, show_default=True)
@click.option("--out", "out_path", type=click.Path(dir_okay=False), required=True)
@_handle_errors
def profile(codim, lam, ecc, points, out_path):
    """Write the profile curve (z, R) as CSV plus a JSON sidecar."""
    check_int(codim, "codimension n - m", 1)
    check_int(points, "--points", 2)
    params = StationaryParams(n=codim + 1, m=1, lam=lam, ecc=ecc)
    curve = profile_curve(params, points)
    rows = [(float(z), float(r)) for z, r in zip(curve.z, curve.radius)]
    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        _write_csv(fh, ("z", "R"), rows)
    echo = {"nm": codim, "lambda": lam, "ecc": ecc, "points": points, "out": out_path}
    sidecar = {
        "params": params.as_dict(),
        "z_minus": curve.z_minus,
        "z_plus": curve.z_plus,
        "samples": points,
    }
    doc = {"tool_version": __version__, "params_echo": echo, "grid_resolution": None}
    doc.update(sidecar)
    with open(out_path + ".json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
        fh.write("\n")
    click.echo(json.dumps(doc))


@stationary.command()
@click.option("--n", "dim", type=int, required=True)
@click.option("--m", type=int, required=True)
@click.option("--lambda", "lam", type=float, required=True)
@click.option("--ecc", type=float, required=True)
@click.option("--closed-form", "use_closed", is_flag=True)
@click.option("--resolution", type=int, default=None)
@click.pass_obj
@_handle_errors
def props(cfg, dim, m, lam, ecc, use_closed, resolution):
    """Volume, axial moment, and thickness of a stationary shape."""
    params = StationaryParams(n=dim, m=m, lam=lam, ecc=ecc)
    resolution = _pick(resolution, cfg, "resolution", 256)
    if use_closed:
        result = closed_form(params)
        if result is None:
            raise DomainError(
                f"no closed form tabulated for (m, n) = ({m}, {dim}) at ecc {ecc}"
            )
        method = "closed-form"
    else:
        result = body_properties(params, resolution)
        method = "quadrature"
    payload = {
        "params": params.as_dict(),
        "V": result.volume,
        "M": result.moment,
        "T": result.thickness,
        "T_via_identity": thickness_via_identity(params, result.volume, result.moment),
        "identity_residual": linear_identity_residual(result, params),
        "method": method,
    }
    echo = {
        "n": dim,
        "m": m,
        "lambda": lam,
        "ecc": ecc,
        "closed_form": use_closed,
        "resolution": resolution,
    }
    meta = None if use_closed else {"n": dim, "resolution": resolution, "node_count": resolution}
    _emit(payload, echo, grid=meta)


# ---------------------------------------------------------------------------
# verify suites
# ---------------------------------------------------------------------------


def _finish_verify(checks, echo, seed=None, grid=None) -> None:
    ok = all(c["pass"] for c in checks)
    _emit({"checks": checks, "pass": ok}, echo, grid=grid, seed=seed)
    if not ok:
        sys.exit(1)


@main.group()
def verify():
    """Self-checking invariant suites; exit 1 when any check fails."""


@verify.command("sphere-optimality")
@click.option("--n", "dim", type=int, default=3, show_default=True)
@click.option("--m", type=int, default=1, show_default=True)
@click.option("--trials", type=int, default=20, show_default=True)
@click.option("--amplitude", type=float, default=0.05, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--resolution", type=int, default=None)
@click.option("--tolerance", type=float, default=None, help="max allowed deltaT")
@click.pass_obj
@_handle_errors
def verify_sphere(cfg, dim, m, trials, amplitude, seed, resolution, tolerance):
    """Random constrained perturbations of the ball must not increase T."""
    tolerance = _pick(tolerance, cfg, "tolerance", 1e-12)
    if resolution is None:
        resolution = _optimality_resolution(dim)
    results = sphere_optimality_test(dim, m, trials, amplitude, seed, resolution)
    checks = [
        {
            "name": f"trial-{trial:03d}",
            "value": delta,
            "bound": tolerance,
            "pass": delta <= tolerance,
        }
        for trial, delta in results
    ]
    echo = {
        "n": dim,
        "m": m,
        "trials": trials,
        "amplitude": amplitude,
        "resolution": resolution,
    }
    grid = {"n": dim, "resolution": resolution,
            "node_count": build_grid(dim, resolution).node_count}
    _finish_verify(checks, echo, seed=seed, grid=grid)


IDENTITY_CASES = [(2, 1), (3, 1), (3, 2), (4, 1), (4, 2), (5, 1), (6, 2)]


@verify.command("identity")
@click.option("--resolution", type=int, default=None)
@click.option("--tolerance", type=float, default=None)
@click.pass_obj
@_handle_errors
def verify_identity(cfg, resolution, tolerance):
    """Linear relation among T, V, M across a (n, m, ecc, lambda) sweep."""
    resolution = _pick(resolution, cfg, "resolution", 256)
    tolerance = _pick(tolerance, cfg, "tolerance", 1e-7)
    checks = []
    for dim, m in IDENTITY_CASES:
        for ecc in (0.0, 0.5, 1.0):
            for lam in (0.5, 1.0, 2.0):
                params = StationaryParams(n=dim, m=m, lam=lam, ecc=ecc)
                result = body_properties(params, resolution)
                scale = unit_sphere_area(dim - 1) / unit_ball_volume(m) * result.thickness
                rel = float(abs(linear_identity_residual(result, params)) / scale)
                checks.append(
                    {
                        "name": f"n{dim}-m{m}-e{ecc}-lam{lam}",
                        "value": rel,
                        "bound": tolerance,
                        "pass": rel <= tolerance,
                    }
                )
    echo = {"resolution": resolution, "tolerance": tolerance}
    _finish_verify(checks, echo, grid={"n": None, "resolution": resolution, "node_count": resolution})


NULLVECTOR_CASES = [
    ("sphere-3-1", 3, 1, 0.0),
    ("egg-3-1", 3, 1, 0.5),
    ("egg-4-2", 4, 2, 0.7),
]


@verify.command("nullvector")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--tolerance", type=float, default=None, help="multiplier error bound")
@click.pass_obj
@_handle_errors
def verify_nullvector(cfg, seed, tolerance):
    """Recover (lambda, mu) from boundary samples; reject a non-stationary blob."""
    check_seed(seed)
    tolerance = _pick(tolerance, cfg, "tolerance", 1e-5)
    checks = []
    for idx, (name, dim, m, ecc) in enumerate(NULLVECTOR_CASES):
        params = StationaryParams(n=dim, m=m, lam=1.0, ecc=ecc)
        shape = stationary_shape(params)
        rng = np.random.default_rng([seed, idx])
        angles = np.empty((dim + 2, dim - 1))
        angles[:, :-1] = rng.uniform(0.2, math.pi - 0.2, size=(dim + 2, dim - 2))
        angles[:, -1] = rng.uniform(0.0, 2.0 * math.pi, size=dim + 2)
        sample = DeformationSample.from_shape(shape, m, angles)
        lam_hat, mu_vec, ratio = nullvector_recover(sample)
        mu_true = np.zeros(dim)
        mu_true[0] = params.mu
        err = max(abs(lam_hat - params.lam), float(np.abs(mu_vec - mu_true).max()))
        checks.append(
            {"name": name, "value": err, "bound": tolerance, "pass": err <= tolerance}
        )
        checks.append(
            {"name": name + "-svratio", "value": ratio, "bound": 1e-8, "pass": ratio < 1e-8}
        )
    blob = StarShape.cosine_series(3, [1.0, 0.2, 0.1])
    rng = np.random.default_rng([seed, len(NULLVECTOR_CASES)])
    angles = np.empty((5, 2))
    angles[:, 0] = rng.uniform(0.2, math.pi - 0.2, size=5)
    angles[:, 1] = rng.uniform(0.0, 2.0 * math.pi, size=5)
    try:
        nullvector_recover(DeformationSample.from_shape(blob, 1, angles))
        rejected = False
    except RankError:
        rejected = True
    checks.append({"name": "blob-rejected", "value": rejected, "bound": True, "pass": rejected})
    _finish_verify(checks, {"tolerance": tolerance}, seed=seed)


@verify.command("factorization")
@click.option("--nm", "codim", type=int, default=None, help="single codimension k")
@click.option("--points", type=int, default=200, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--tolerance", type=float, default=None)
@click.pass_obj
@_handle_errors
def verify_factorization(cfg, codim, points, seed, tolerance):
    """Double-root factorization of the critical polynomial, random w sweep."""
    check_seed(seed)
    check_int(points, "points", 1)
    tolerance = _pick(tolerance, cfg, "tolerance", 1e-12)
    ks = [codim] if codim is not None else list(range(1, 9))
    rng = np.random.default_rng(seed)
    checks = []
    for k in ks:
        w = rng.uniform(0.0, 2.0, size=points)
        worst = float(np.max(factorization_residual(k, w)))
        checks.append(
            {"name": f"k{k}", "value": worst, "bound": tolerance, "pass": worst <= tolerance}
        )
    _finish_verify(checks, {"nm": codim, "points": points, "tolerance": tolerance}, seed=seed)


# ---------------------------------------------------------------------------
# dumbbell
# ---------------------------------------------------------------------------


@main.command()
@click.option("--area", type=float, required=True, help="total area A")
@click.option("--centroid", type=float, required=True, help="centroid distance G")
@click.option("--gamma-sweep", "gammas_text", required=True, help="comma list of gamma")
@click.option("--samples", type=int, default=None, help="ignored (T_exact is exact)")
@click.option("--seed", type=int, default=0, help="ignored (T_exact is exact)")
@click.option("--out", "out_path", type=click.Path(dir_okay=False), default=None)
@_handle_errors
def dumbbell(area, centroid, gammas_text, samples, seed, out_path):
    """Two-disc thickness sweep: asymptotic vs exact, CSV output.

    T_exact is the closed form and its stderr column is 0; --samples and
    --seed are accepted and ignored.
    """
    try:
        gammas = [float(tok) for tok in gammas_text.split(",") if tok.strip()]
    except ValueError:
        raise click.BadParameter(f"bad gamma list {gammas_text!r}")
    if not gammas:
        raise click.BadParameter("gamma sweep is empty")
    rows = []
    for gamma in gammas:
        config = DumbbellConfig(area, centroid, gamma)
        rows.append((gamma, dumbbell_thickness(config), *dumbbell_thickness(config, True)))
    text = _csv_text(("gamma", "T_asymptotic", "T_exact", "stderr"), rows)
    if out_path is None:
        click.echo(text, nl=False)
    else:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


if __name__ == "__main__":
    main()
