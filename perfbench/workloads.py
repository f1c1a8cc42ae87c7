"""The four benchmark workloads: seeded inputs, tasks and their output checks.

``specs(workload, seed)`` draws every shape coefficient, rotation, axis,
gamma and Monte Carlo seed from the workload seed and returns plain data, so
the same seed gives byte-identical inputs. ``build(spec, ctx)`` turns one spec
into a ``Task``: ``call`` runs the library on the inputs and returns its
outputs, ``check`` compares them with a reference prepared during set-up.
Output keys starting with ``_`` are diagnostics (z-scores, residuals) that
the traced run aggregates; they are not checked.

Each cycle runs every task of the workload once, in order; the Monte Carlo
seeds stay fixed across cycles, so every cycle does identical work.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

import hyperthick as ht
from checks import (
    MC_FALSE_ALARM,
    THETA,
    Check,
    at_most,
    axisymmetric_reference,
    ball_volume,
    cosine_radius,
    mc_bounds,
    mc_check,
    near,
    planar_reference,
    sphere_area,
)

WORKLOADS = ("sections", "stationary", "montecarlo", "cli")

# Relative tolerances of tensor-grid quadrature at the resolutions used
# below, against the 1-D references: at least 15x the largest error seen
# over 15 seeds. A rotated 6-D body at resolution 10 is not resolved to
# rounding (worst 4.3e-7); the multilinear interpolation of a 24 x 24 file
# table limits that task (worst 6.5e-4).
GRID_RTOL = 1e-9
ROTATED_6D_RTOL = 2e-5
FILE_RTOL = 1e-2
# the library's default sample count: `hyperthick thickness --mc`,
# `hyperthick dumbbell` and dumbbell_thickness all draw 2e6 unless told
# otherwise, so every Monte Carlo task here pays what a default call pays
MC_SAMPLES = 2_000_000
PAD = 1.05  # StarShape.bounding_radius pads its scan maximum by 5%


@dataclass
class Task:
    name: str
    call: Callable[["Context"], dict]
    check: Callable[[dict], list]


@dataclass
class Context:
    scratch: str
    tracer: object = None


# ---------------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------------


def _series(rng, terms: int) -> list:
    return [1.0] + [float(rng.uniform(-0.15, 0.15) / k) for k in range(1, terms + 1)]


def _orth(rng, n: int) -> list:
    """A Haar-random orthogonal matrix."""
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return (q * np.sign(np.diag(r))).tolist()


def _lam(rng) -> float:
    return float(rng.uniform(0.5, 2.0))


def _mc_seed(rng) -> int:
    return int(rng.integers(0, 2**31))


def specs(workload: str, seed: int) -> list:
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    return globals()[f"_specs_{workload}"](rng)


def _specs_sections(rng) -> list:
    out = [
        {"kind": "planar", "cos": _series(rng, 4), "sin": _series(rng, 4)[1:], "resolution": 2048}
        for _ in range(2)
    ]
    # resolutions put the median task (rotated n=3) well apart from its
    # neighbours in cost, so task_p50_ms does not hop between task kinds
    for n, res in ((3, 96), (4, 24), (5, 16), (6, 10)):
        out.append({"kind": "rotated", "n": n, "m": int(rng.integers(1, n)), "cos": _series(rng, 3),
                    "q": _orth(rng, n), "resolution": res})
    out.append({"kind": "file", "n": 3, "m": int(rng.integers(1, 3)), "cos": _series(rng, 3),
                "q": _orth(rng, 3), "table": 24, "resolution": 32})
    for n, res in ((3, 128), (4, None)):
        # a fixed amplitude keeps the projection's sweep count alike across seeds
        out.append({"kind": "sphere_opt", "n": n, "m": int(rng.integers(1, n)), "trials": 3,
                    "amplitude": 0.05, "seed": _mc_seed(rng), "resolution": res})
    axis = rng.standard_normal(3)
    out.append({"kind": "axis", "radius": float(rng.uniform(0.5, 2.0)), "cos": None,
                "q": None, "axis": (axis / np.linalg.norm(axis)).tolist(), "resolution": 32})
    axis = rng.standard_normal(3)
    out.append({"kind": "axis", "radius": None, "cos": _series(rng, 3), "q": _orth(rng, 3),
                "axis": (axis / np.linalg.norm(axis)).tolist(), "resolution": 32})
    return out


# (n, m, e) of the egg sweep. Eccentricities are fixed per task: the
# per-point Newton's iteration count depends on e and on nothing else drawn
# here (lambda is a pure scale), so every seed does the same work.
EGG_CASES = [(2, 1, 0.8), (3, 1, 0.4), (3, 2, 0.6), (4, 1, 0.5), (4, 2, 0.3), (5, 1, 0.7), (6, 2, 0.5)]
PROFILE_ECC = {1: 1.0, 2: 1.0, 3: 0.5, 4: 1.0, 5: 0.7, 6: 0.4}  # critical where the crossing is closed


def _specs_stationary(rng) -> list:
    out = [
        {"kind": "bp_sweep", "cases": [[n, m, e, _lam(rng)] for n, m, e in EGG_CASES]},
        {"kind": "bp_sweep", "cases": [[2, 1, 1.0, _lam(rng)], [3, 1, 1.0, _lam(rng)],
                                       [5, 1, 1.0, _lam(rng)], [3, 2, 0.9, _lam(rng)],
                                       [4, 2, 0.0, _lam(rng)], [6, 3, 0.0, _lam(rng)]]},
    ]
    for k, ecc in PROFILE_ECC.items():
        out.append({"kind": "profile", "k": k, "lam": _lam(rng), "ecc": ecc, "points": 2000,
                    "count": 400})
    for n, res in ((3, 32), (4, 16), (5, 12), (6, 8)):
        out.append({"kind": "ball_grid", "n": n, "radius": float(rng.uniform(0.5, 2.0)),
                    "resolution": res})
    out.append({"kind": "stat_grid", "n": 3, "m": 2, "ecc": 0.6, "lam": _lam(rng), "resolution": 32})
    out.append({"kind": "stat_grid", "n": 4, "m": 1, "ecc": 0.5, "lam": _lam(rng), "resolution": 12})
    for n, res in ((4, 16), (5, 12)):
        out.append({"kind": "cos_grid", "n": n, "m": int(rng.integers(1, n)), "cos": _series(rng, 3),
                    "resolution": res})
    for n, m, ecc, res in ((3, 1, 0.4, 24), (4, 1, 0.7, 10)):
        out.append({"kind": "resid", "n": n, "m": m, "ecc": ecc, "lam": _lam(rng), "resolution": res})
    # an odd task count keeps the median task inside one task kind
    for n, m, ecc in ((3, 1, 0.3), (4, 2, 0.6), (5, 2, 0.8)):
        angles = np.empty((n + 2, n - 1))
        angles[:, :-1] = rng.uniform(0.2, math.pi - 0.2, size=(n + 2, n - 2))
        angles[:, -1] = rng.uniform(0.0, 2.0 * math.pi, size=n + 2)
        out.append({"kind": "nullvec", "n": n, "m": m, "ecc": ecc,
                    "lam": _lam(rng), "angles": angles.tolist()})
    return out


# (n, m) of the Monte Carlo balls: m < n/2, m = n/2 (both infinite variance
# for uniform-ball sampling) and m > n/2.
MC_PAIRS = [(2, 1), (3, 1), (3, 2), (4, 2), (4, 3), (5, 2), (5, 3), (6, 3), (6, 4)]
SCAN = {2: 64, 3: 64, 4: 24, 5: 12, 6: 8}


def _specs_montecarlo(rng) -> list:
    out = [
        {"kind": "mc_ball", "n": n, "m": m, "radius": float(rng.uniform(0.6, 1.5)),
         "seed": _mc_seed(rng)}
        for n, m in MC_PAIRS
    ]
    out.append({"kind": "mc_planar", "cos": _series(rng, 3), "sin": _series(rng, 3)[1:],
                "seed": _mc_seed(rng)})
    out.append({"kind": "mc_cos", "n": 3, "m": 2, "cos": _series(rng, 3), "q": None,
                "seed": _mc_seed(rng)})
    out.append({"kind": "mc_cos", "n": 4, "m": 3, "cos": _series(rng, 3), "q": _orth(rng, 4),
                "seed": _mc_seed(rng)})
    area = float(rng.uniform(0.5, 2.0))
    out.append({"kind": "dumbbell", "area": area, "centroid": float(rng.uniform(0.6, 1.0)) * math.sqrt(area),
                "gammas": sorted(float(g) for g in rng.uniform(0.1, 0.4, size=3)),
                "seed": _mc_seed(rng)})
    return out


def _specs_cli(rng) -> list:
    k = int(rng.integers(1, 7))
    area = float(rng.uniform(0.5, 2.0))
    c = _series(rng, 2)
    s = _series(rng, 1)[1:]
    return [
        {"kind": "cli_nsphere", "dim": int(rng.integers(2, 13))},
        {"kind": "cli_thickness", "cos": c, "sin": s},
        {"kind": "cli_mc", "radius": float(rng.uniform(0.6, 1.5)), "seed": _mc_seed(rng)},
        {"kind": "cli_props", "ecc": float(rng.uniform(0.1, 0.9)), "lam": _lam(rng)},
        {"kind": "cli_profile", "k": k, "lam": _lam(rng),
         "ecc": 1.0 if k in (1, 2, 4) else float(rng.uniform(0.3, 0.9))},
        {"kind": "cli_identity"},
        {"kind": "cli_factorization", "seed": _mc_seed(rng)},
        {"kind": "cli_nullvector", "seed": _mc_seed(rng)},
        {"kind": "cli_dumbbell", "area": area, "centroid": float(rng.uniform(0.6, 1.0)) * math.sqrt(area),
         "gammas": sorted(float(g) for g in rng.uniform(0.1, 0.4, size=3)), "seed": _mc_seed(rng)},
    ]


# ---------------------------------------------------------------------------
# shared pieces
# ---------------------------------------------------------------------------


def _rotated_reference(spec: dict, m: int) -> dict:
    """T, V and centroid of Q . (cosine-series body), from the 1-D rule."""
    ref = axisymmetric_reference(cosine_radius(spec["cos"], THETA), spec["n"], m)
    axis = np.asarray(spec["q"])[:, 0] if spec.get("q") is not None else np.eye(spec["n"])[0]
    ref["C"] = axis * ref["M"] / ref["V"]
    return ref


def _tvc(shape, m: int, grid) -> dict:
    return {
        "T": ht.average_thickness(shape, m, grid),
        "V": ht.volume(shape, grid),
        "C": ht.centroid(shape, grid),
    }


def _tvc_checks(out: dict, ref: dict, rtol: float) -> list:
    scale = abs(ref["V"]) ** (1.0 / len(ref["C"]))
    checks = [near("T", out["T"], ref["T"], rtol), near("V", out["V"], ref["V"], rtol)]
    checks += [near(f"C{i}", c, r, 0.0, rtol * scale) for i, (c, r) in enumerate(zip(out["C"], ref["C"]))]
    return checks


def _direction_cosines(angles: np.ndarray) -> np.ndarray:
    """Unit vectors of the library's angle convention, written independently."""
    b, d = angles.shape
    out = np.empty((b, d + 1))
    sin_prod = np.ones(b)
    for i in range(d):
        out[:, i] = sin_prod * np.cos(angles[:, i])
        sin_prod = sin_prod * np.sin(angles[:, i])
    out[:, d] = sin_prod
    return out


def _stationary_params(n, m, ecc, lam):
    return ht.StationaryParams(n=n, m=m, lam=lam, ecc=ecc)


def _mu(k: int, lam: float, ecc: float) -> float:
    p = (k + 1.0) / k
    return -k * lam**p / (k + 1.0) ** p * ecc


def _equation_residual(k, lam, mu, r, cos_t) -> np.ndarray:
    return np.abs(1.0 - lam * r**k - mu * r ** (k + 1) * cos_t)


def _meridian_residual(k, lam, mu, z, radius) -> np.ndarray:
    target = (lam + mu * z) ** (-2.0 / k)
    return np.abs(target - z * z - radius * radius) / target


def _mc_out(estimate: float, stderr: float, exact: float, n: int, m: int, **extra) -> dict:
    out = {"T": estimate, "_rel_err": abs(estimate / exact - 1.0), **extra}
    # the z-score measures calibration only where the stderr is a valid error
    # bar: for uniform-ball sampling the variance is finite iff m > n/2
    if 2 * m > n:
        out["_z"] = (estimate - exact) / stderr
    return out


def _dumbbell_reference(area: float, centroid: float, gamma: float) -> dict:
    """Radii, far-disc position and the far disc's exact <1/|x|> (polar quadrature).

    The exact two-disc thickness is 2 R_near + (A_far / pi) <1/|x|>_far.
    """
    cfg = {"r_near": math.sqrt(area * (1 - gamma) / math.pi),
           "r_far": math.sqrt(area * gamma / math.pi), "x_far": centroid / gamma}
    x, w = np.polynomial.legendre.leggauss(64)
    rho = (x + 1.0) * cfg["r_far"] / 2.0
    psi = 2.0 * math.pi * np.arange(256) / 256
    rr, pp = np.meshgrid(rho, psi, indexing="ij")
    d = np.sqrt(cfg["x_far"] ** 2 + 2.0 * cfg["x_far"] * rr * np.cos(pp) + rr * rr)
    inner = (rr / d).sum(axis=1) * (2.0 * math.pi / 256)
    mean_far = float(np.dot(inner, w)) * cfg["r_far"] / 2.0 / (math.pi * cfg["r_far"] ** 2)
    cfg["mean_far"] = mean_far
    cfg["asymptotic"] = 2.0 * cfg["r_near"] + area * gamma / (math.pi * cfg["x_far"])
    return cfg


def _dumbbell_checks(label: str, estimate: float, asymptotic: float, ref: dict, area: float,
                     gamma: float) -> list:
    """Bounds for the two-disc estimate whatever the near/far sample split.

    The near disc is the planar m = 1 estimator with every sample inside a
    ball of its own radius; the far disc's 1/|x| is bounded, so Hoeffding
    applies. Of MC_SAMPLES, the near disc gets at least half and the far
    disc at least min(half, 10_000).
    """
    n_near, n_far = MC_SAMPLES - MC_SAMPLES // 2, min(MC_SAMPLES // 2, 10_000)
    r, x = ref["r_far"], ref["x_far"]
    lo_n, hi_n = mc_bounds(2, 1, n_near, ref["r_near"], 2.0 / ref["r_near"])
    dev_far = (1.0 / (x - r) - 1.0 / (x + r)) * math.sqrt(math.log(2.0 / MC_FALSE_ALARM) / (2.0 * n_far))
    a_near, a_far = area * (1 - gamma), area * gamma
    lo = (a_near * lo_n + a_far * (ref["mean_far"] - dev_far)) / math.pi
    hi = (a_near * hi_n + a_far * (ref["mean_far"] + dev_far)) / math.pi
    return [Check(f"{label}-exact", estimate, lo, hi),
            near(f"{label}-asym", asymptotic, ref["asymptotic"], 1e-12)]


# ---------------------------------------------------------------------------
# in-process tasks
# ---------------------------------------------------------------------------


def _planar(spec, ctx):
    ref = planar_reference(spec["cos"], spec["sin"])
    ref["C"] = ref["M"] / ref["V"]
    shape = ht.StarShape.cosine_series(2, spec["cos"], spec["sin"])

    def call(ctx):
        return _tvc(shape, 1, ht.build_grid(2, spec["resolution"]))

    return call, lambda out: _tvc_checks(out, ref, 1e-11)


def _rotated(spec, ctx):
    ref = _rotated_reference(spec, spec["m"])
    n = spec["n"]

    def call(ctx):
        shape = ht.StarShape.cosine_series(n, spec["cos"]).rotated(spec["q"])
        return _tvc(shape, spec["m"], ht.build_grid(n, spec["resolution"]))

    return call, lambda out: _tvc_checks(out, ref, ROTATED_6D_RTOL if n == 6 else GRID_RTOL)


def _file(spec, ctx):
    from hyperthick import cli

    ref = _rotated_reference(spec, spec["m"])
    grid = ht.build_grid(3, spec["table"])
    u = _direction_cosines(grid.angles()) @ np.asarray(spec["q"])
    values = cosine_radius(spec["cos"], np.arccos(np.clip(u[:, 0], -1.0, 1.0)))
    path = os.path.join(ctx.scratch, f"shape-{spec['table']}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"n": 3, "resolution": spec["table"], "values": values.tolist()}, fh)

    def call(ctx):
        shape = cli.parse_shape(f"file:{path}", None)
        return _tvc(shape, spec["m"], ht.build_grid(3, spec["resolution"]))

    return call, lambda out: _tvc_checks(out, ref, FILE_RTOL)


def _sphere_opt(spec, ctx):
    def call(ctx):
        res = ht.sphere_optimality_test(spec["n"], spec["m"], spec["trials"], spec["amplitude"],
                                        spec["seed"], spec["resolution"])
        return {"trials": len(res), "dT": np.array([d for _, d in res])}

    def check(out):
        # the unit ball maximizes T at fixed volume and centroid
        checks = [Check("trials", out["trials"], spec["trials"], spec["trials"])]
        checks += [Check(f"dT{i}", d, -spec["amplitude"], 1e-12) for i, d in enumerate(out["dT"])]
        return checks

    return call, check


def _axis(spec, ctx):
    axis = np.asarray(spec["axis"])
    if spec["radius"] is not None:
        ref = math.pi * spec["radius"] ** 2  # every section of a ball is a great disc

        def make():
            return ht.StarShape.ball(3, spec["radius"])
    else:
        # pi * mean of f^2 over the planes through the axis (uniform in plane
        # angle and in-plane angle); both are periodic, so the trapezoid rule
        # converges spectrally
        basis = np.linalg.svd(axis[None, :])[2][1:]
        beta = math.pi * np.arange(256) / 256
        psi = 2.0 * math.pi * np.arange(512) / 512
        bb, pp = np.meshgrid(beta, psi, indexing="ij")
        inplane = np.cos(bb)[..., None] * basis[0] + np.sin(bb)[..., None] * basis[1]
        d = np.cos(pp)[..., None] * axis + np.sin(pp)[..., None] * inplane
        x = (d.reshape(-1, 3) @ np.asarray(spec["q"]))[:, 0]
        ref = math.pi * float(np.mean(cosine_radius(spec["cos"], np.arccos(np.clip(x, -1.0, 1.0))) ** 2))

        def make():
            return ht.StarShape.cosine_series(3, spec["cos"]).rotated(spec["q"])

    def call(ctx):
        return {"A": ht.axis_section_average(make(), axis, ht.build_grid(3, spec["resolution"]))}

    return call, lambda out: [near("A", out["A"], ref, GRID_RTOL)]


def _bp_sweep(spec, ctx):
    refs = []
    for n, m, ecc, lam in spec["cases"]:
        params = _stationary_params(n, m, ecc, lam)
        if ecc == 0.0:
            rho = lam ** (-1.0 / (n - m))
            refs.append((ball_volume(n) * rho**n, 0.0, ball_volume(m) * rho**m))
        else:
            cf = ht.closed_form(params)
            refs.append(None if cf is None else (cf.volume, cf.moment, cf.thickness))

    def call(ctx):
        props = [ht.body_properties(_stationary_params(*case)) for case in spec["cases"]]
        out = {"V": np.array([p.volume for p in props]), "M": np.array([p.moment for p in props]),
               "T": np.array([p.thickness for p in props])}
        out["_identity_rel"] = max(_identity_rel(case, out, i) for i, case in enumerate(spec["cases"]))
        return out

    def check(out):
        checks = []
        for i, case in enumerate(spec["cases"]):
            label = "n{}-m{}-e{:.3g}".format(*case[:3])
            checks.append(at_most(f"{label}-identity", _identity_rel(case, out, i), 1e-7))
            if refs[i] is not None:
                vol, mom, thick = refs[i]
                checks.append(near(f"{label}-V", out["V"][i], vol, 1e-7))
                checks.append(near(f"{label}-M", out["M"][i], mom, 1e-7, 1e-7 * vol))
                checks.append(near(f"{label}-T", out["T"][i], thick, 1e-7))
        return checks

    return call, check


def _identity_rel(case, out, i) -> float:
    """Relative residual of (S_{n-1}/V_m) T - lambda n V - mu (n+1) M = 0."""
    n, m, ecc, lam = case
    lead = sphere_area(n - 1) / ball_volume(m) * out["T"][i]
    res = lead - lam * n * out["V"][i] - _mu(n - m, lam, ecc) * (n + 1) * out["M"][i]
    return abs(res) / abs(lead)


def _profile(spec, ctx):
    k, lam, ecc = spec["k"], spec["lam"], spec["ecc"]
    mu = _mu(k, lam, ecc)
    theta = np.linspace(0.0, math.pi, spec["points"])

    def call(ctx):
        params = _stationary_params(k + 1, 1, ecc, lam)
        curve = ht.profile_curve(params, spec["count"])
        return {"r": ht.radial_profile(params, theta), "z": curve.z, "R": curve.radius,
                "z_minus": curve.z_minus, "z_plus": curve.z_plus}

    def check(out):
        r = out["r"]
        checks = [at_most("equation", _equation_residual(k, lam, mu, r, np.cos(theta)).max(), 1e-9),
                  Check("r_min", r.min(), 1e-12, math.inf)]
        if ecc == 1.0:
            checks.append(near("z_plus", out["z_plus"], ((k + 1.0) / lam) ** (1.0 / k), 1e-12))
        else:  # egg: the axis crossings are the polar radii
            checks.append(near("z_plus", out["z_plus"], r[0], 1e-12))
            checks.append(near("z_minus", out["z_minus"], -r[-1], 1e-12))
        for end in ("z_minus", "z_plus"):
            checks.append(at_most(f"{end}-on-axis",
                                  _meridian_residual(k, lam, mu, np.array([out[end]]), 0.0)[0], 1e-9))
        checks.append(at_most("meridian", _meridian_residual(k, lam, mu, out["z"][1:-1],
                                                             out["R"][1:-1]).max(), 1e-9))
        return checks

    return call, check


def _ball_grid(spec, ctx):
    n, radius = spec["n"], spec["radius"]

    def call(ctx):
        shape = ht.StarShape.ball(n, radius)
        grid = ht.build_grid(n, spec["resolution"])
        return {"T": np.array([ht.average_thickness(shape, m, grid) for m in range(1, n)]),
                "V": ht.volume(shape, grid), "C": ht.centroid(shape, grid)}

    def check(out):
        checks = [near(f"T{m}", t, ball_volume(m) * radius**m, 1e-12)
                  for m, t in zip(range(1, n), out["T"])]
        checks.append(near("V", out["V"], ball_volume(n) * radius**n, 1e-12))
        checks += [near(f"C{i}", c, 0.0, 0.0, 1e-12 * radius) for i, c in enumerate(out["C"])]
        return checks

    return call, check


def _stat_grid(spec, ctx):
    n, m = spec["n"], spec["m"]
    params = _stationary_params(n, m, spec["ecc"], spec["lam"])
    ref = axisymmetric_reference(ht.radial_profile(params, THETA), n, m)
    ref["C"] = np.eye(n)[0] * ref["M"] / ref["V"]

    def call(ctx):
        shape = ht.stationary_shape(params)
        return _tvc(shape, m, ht.build_grid(n, spec["resolution"]))

    return call, lambda out: _tvc_checks(out, ref, GRID_RTOL)


def _cos_grid(spec, ctx):
    n, m = spec["n"], spec["m"]
    ref = _rotated_reference(spec, m)

    def call(ctx):
        shape = ht.StarShape.cosine_series(n, spec["cos"])
        return _tvc(shape, m, ht.build_grid(n, spec["resolution"]))

    return call, lambda out: _tvc_checks(out, ref, GRID_RTOL)


def _resid(spec, ctx):
    n, m, lam = spec["n"], spec["m"], spec["lam"]
    mu = _mu(n - m, lam, spec["ecc"])
    axis = np.eye(n)[0]

    def call(ctx):
        grid = ht.build_grid(n, spec["resolution"])
        shape = ht.stationary_shape(_stationary_params(n, m, spec["ecc"], lam))
        blob = ht.StarShape.cosine_series(n, [1.0, 0.2, 0.1])
        return {"stationary": ht.stationarity_residual(shape, m, lam, mu, axis, grid),
                "blob": ht.stationarity_residual(blob, m, lam, mu, axis, grid)}

    def check(out):
        return [at_most("stationary", out["stationary"], 1e-9),
                Check("blob", out["blob"], 1e-3, math.inf)]

    return call, check


def _nullvec(spec, ctx):
    n, m, lam = spec["n"], spec["m"], spec["lam"]
    mu = _mu(n - m, lam, spec["ecc"])

    def call(ctx):
        shape = ht.stationary_shape(_stationary_params(n, m, spec["ecc"], lam))
        sample = ht.DeformationSample.from_shape(shape, m, np.asarray(spec["angles"]))
        lam_hat, mu_vec, ratio = ht.nullvector_recover(sample)
        return {"lam": lam_hat, "mu": mu_vec, "ratio": ratio}

    def check(out):
        mu_true = np.zeros(n)
        mu_true[0] = mu
        checks = [near("lam", out["lam"], lam, 1e-6), at_most("ratio", out["ratio"], 1e-8)]
        checks += [near(f"mu{i}", a, b, 0.0, 1e-6 * lam) for i, (a, b) in enumerate(zip(out["mu"], mu_true))]
        return checks

    return call, check


def _mc_ball(spec, ctx):
    n, m, radius = spec["n"], spec["m"], spec["radius"]
    exact = ball_volume(m) * radius**m

    def call(ctx):
        body = ht.StarShape.ball(n, radius).indicator(SCAN[n])
        est, err = ht.thickness_montecarlo(body, m, MC_SAMPLES, spec["seed"])
        return _mc_out(est, err, exact, n, m, _rb=body.bounding_radius)

    return call, lambda out: [mc_check("T", out["T"], exact, n, m, MC_SAMPLES, out["_rb"])]


def _mc_planar(spec, ctx):
    exact = 2.0 * spec["cos"][0]  # mean radius times the 1-ball volume

    def call(ctx):
        body = ht.StarShape.cosine_series(2, spec["cos"], spec["sin"]).indicator(SCAN[2])
        est, err = ht.thickness_montecarlo(body, 1, MC_SAMPLES, spec["seed"])
        return _mc_out(est, err, exact, 2, 1, _rb=body.bounding_radius)

    return call, lambda out: [mc_check("T", out["T"], exact, 2, 1, MC_SAMPLES, out["_rb"])]


def _mc_cos(spec, ctx):
    n, m = spec["n"], spec["m"]
    exact = _rotated_reference(spec, m)["T"]

    def call(ctx):
        shape = ht.StarShape.cosine_series(n, spec["cos"])
        if spec["q"] is not None:
            shape = shape.rotated(spec["q"])
        body = shape.indicator(SCAN[n])
        est, err = ht.thickness_montecarlo(body, m, MC_SAMPLES, spec["seed"])
        return _mc_out(est, err, exact, n, m, _rb=body.bounding_radius)

    return call, lambda out: [mc_check("T", out["T"], exact, n, m, MC_SAMPLES, out["_rb"])]


def _dumbbell(spec, ctx):
    area, centroid = spec["area"], spec["centroid"]
    refs = [_dumbbell_reference(area, centroid, g) for g in spec["gammas"]]

    def call(ctx):
        est, asym = [], []
        for i, g in enumerate(spec["gammas"]):
            cfg = ht.DumbbellConfig(area, centroid, g)
            est.append(ht.dumbbell_thickness(cfg, True, MC_SAMPLES, [spec["seed"], i])[0])
            asym.append(ht.dumbbell_thickness(cfg))
        return {"exact": np.array(est), "asymptotic": np.array(asym)}

    def check(out):
        checks = []
        for i, (g, ref) in enumerate(zip(spec["gammas"], refs)):
            checks += _dumbbell_checks(f"g{i}", out["exact"][i], out["asymptotic"][i], ref, area, g)
        return checks

    return call, check


# ---------------------------------------------------------------------------
# CLI tasks: one cold ``hyperthick`` process each
# ---------------------------------------------------------------------------

CONSOLE = "import sys; from hyperthick.cli import main; sys.exit(main())"
SPANS_SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "spans.py")


def run_cli(ctx: Context, args: list) -> tuple[int, str]:
    """Run one command as the console script would, or under the tracer."""
    if ctx.tracer is None:
        cmd = [sys.executable, "-c", CONSOLE, *args]
    else:
        spans_path = os.path.join(ctx.scratch, "cli-spans.json")
        if os.path.exists(spans_path):
            os.remove(spans_path)
        cmd = [sys.executable, SPANS_SCRIPT, spans_path, *args]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60)
    if ctx.tracer is not None:
        with open(spans_path, encoding="utf-8") as fh:
            ctx.tracer.merge(json.load(fh))
    return proc.returncode, proc.stdout


def _cli_json(ctx, args) -> dict:
    code, stdout = run_cli(ctx, args)
    doc = json.loads(stdout) if code == 0 else {}
    doc["code"] = code
    return doc


def _cli_nsphere(spec, ctx):
    dim = spec["dim"]

    def call(ctx):
        return _cli_json(ctx, ["nsphere", "--dim", str(dim)])

    def check(out):
        return [Check("exit", out["code"], 0, 0), near("V", out["V"], ball_volume(dim), 1e-13),
                near("S", out["S"], sphere_area(dim - 1), 1e-13)]

    return call, check


def _cli_thickness(spec, ctx):
    terms = [f"c{i}={c!r}" for i, c in enumerate(spec["cos"])]
    terms += [f"s{i}={s!r}" for i, s in enumerate(spec["sin"], start=1)]
    shape = "harmonic:n=2;" + ";".join(terms)

    def call(ctx):
        return _cli_json(ctx, ["thickness", "--shape", shape, "--m", "1", "--resolution", "128"])

    def check(out):
        return [Check("exit", out["code"], 0, 0), near("T", out["T"], 2.0 * spec["cos"][0], 1e-12)]

    return call, check


def _cli_mc(spec, ctx):
    radius = spec["radius"]
    exact = ball_volume(2) * radius**2

    def call(ctx):
        out = _cli_json(ctx, ["thickness", "--shape", f"ball:{radius!r}", "--n", "3", "--m", "2", "--mc",
                              "--samples", str(MC_SAMPLES), "--seed", str(spec["seed"])])
        if out["code"] == 0:
            out.update(_mc_out(out["T"], out["stderr"], exact, 3, 2))
        return out

    def check(out):
        return [Check("exit", out["code"], 0, 0),
                mc_check("T", out["T"], exact, 3, 2, MC_SAMPLES, PAD * radius)]

    return call, check


def _cli_props(spec, ctx):
    lam, ecc = spec["lam"], spec["ecc"]
    cf = ht.closed_form(_stationary_params(3, 2, ecc, lam))

    def call(ctx):
        return _cli_json(ctx, ["stationary", "props", "--n", "3", "--m", "2", "--lambda", repr(lam),
                               "--ecc", repr(ecc)])

    def check(out):
        return [Check("exit", out["code"], 0, 0), near("V", out["V"], cf.volume, 1e-7),
                near("M", out["M"], cf.moment, 1e-7, 1e-7 * cf.volume),
                near("T", out["T"], cf.thickness, 1e-7)]

    return call, check


def _cli_profile(spec, ctx):
    k, lam, ecc = spec["k"], spec["lam"], spec["ecc"]
    mu = _mu(k, lam, ecc)
    path = os.path.join(ctx.scratch, "profile.csv")

    def call(ctx):
        out = _cli_json(ctx, ["stationary", "profile", "--nm", str(k), "--lambda", repr(lam), "--ecc",
                              repr(ecc), "--points", "200", "--out", path])
        if out["code"] == 0:
            with open(path, encoding="utf-8", newline="") as fh:
                rows = list(csv.reader(fh))
            out["header"] = rows[0]
            out["z"] = np.array([float(z) for z, _ in rows[1:]])
            out["R"] = np.array([float(r) for _, r in rows[1:]])
        return out

    def check(out):
        checks = [Check("exit", out["code"], 0, 0), Check("header", out["header"] == ["z", "R"], 1, 1),
                  Check("rows", len(out["z"]), 200, 200),
                  near("z_minus", out["z"][0], out["z_minus"], 0.0),
                  near("z_plus", out["z"][-1], out["z_plus"], 0.0),
                  at_most("meridian", _meridian_residual(k, lam, mu, out["z"][1:-1], out["R"][1:-1]).max(),
                          1e-9)]
        if ecc == 1.0:
            checks.append(near("z_plus-exact", out["z_plus"], ((k + 1.0) / lam) ** (1.0 / k), 1e-12))
        for end in ("z_minus", "z_plus"):
            checks.append(at_most(f"{end}-on-axis",
                                  _meridian_residual(k, lam, mu, np.array([out[end]]), 0.0)[0], 1e-9))
        return checks

    return call, check


def _verify_checks(out: dict, count: int) -> list:
    checks = [Check("exit", out["code"], 0, 0), Check("pass", out.get("pass") is True, 1, 1),
              Check("count", len(out["checks"]), count, count)]
    checks += [at_most(c["name"], c["value"], c["bound"]) for c in out["checks"]
               if not isinstance(c["value"], bool)]
    return checks


def _cli_identity(spec, ctx):
    def call(ctx):
        return _cli_json(ctx, ["verify", "identity"])

    return call, lambda out: _verify_checks(out, 63)


def _cli_factorization(spec, ctx):
    def call(ctx):
        return _cli_json(ctx, ["verify", "factorization", "--seed", str(spec["seed"])])

    return call, lambda out: _verify_checks(out, 8)


def _cli_nullvector(spec, ctx):
    def call(ctx):
        return _cli_json(ctx, ["verify", "nullvector", "--seed", str(spec["seed"])])

    return call, lambda out: _verify_checks(out, 7)


def _cli_dumbbell(spec, ctx):
    area, centroid = spec["area"], spec["centroid"]
    refs = [_dumbbell_reference(area, centroid, g) for g in spec["gammas"]]
    sweep = ",".join(repr(g) for g in spec["gammas"])

    def call(ctx):
        code, stdout = run_cli(ctx, ["dumbbell", "--area", repr(area), "--centroid", repr(centroid),
                                     "--gamma-sweep", sweep, "--samples", str(MC_SAMPLES),
                                     "--seed", str(spec["seed"])])
        rows = list(csv.reader(io.StringIO(stdout))) if code == 0 else [[]]
        out = {"code": code, "header": rows[0]}
        for col, key in enumerate(("gamma", "T_asymptotic", "T_exact")):
            out[key] = np.array([float(row[col]) for row in rows[1:]])
        return out

    def check(out):
        checks = [Check("exit", out["code"], 0, 0),
                  Check("header", out["header"] == ["gamma", "T_asymptotic", "T_exact", "stderr"], 1, 1),
                  Check("rows", len(out["gamma"]), len(refs), len(refs))]
        for i, (g, ref) in enumerate(zip(spec["gammas"], refs)):
            checks.append(near(f"g{i}", out["gamma"][i], g, 1e-15))
            checks += _dumbbell_checks(f"g{i}", out["T_exact"][i], out["T_asymptotic"][i], ref, area, g)
        return checks

    return call, check


def build(spec: dict, ctx: Context) -> Task:
    call, check = globals()["_" + spec["kind"]](spec, ctx)
    label = spec["kind"] + "".join(f"-{k}{spec[k]}" for k in ("n", "m", "k") if k in spec)
    return Task(label, call, check)
