"""Acceptance suite: twelve numbered criteria, one PASS/FAIL line each.

Every criterion prints a single line to the real stdout (visible even under
capture) of the form

    [C07] linear identity sign pattern: PASS (worst rel 3.1e-14; 0.42s)

and then asserts. Criteria with a runtime budget fail when the budget is
exceeded, independent of the numeric outcome.
"""

import math
import sys
import time

import numpy as np
import pytest

from hyperthick import (
    DeformationSample,
    DumbbellConfig,
    StarShape,
    StationaryParams,
    average_thickness,
    body_properties,
    build_grid,
    closed_form,
    critical_support,
    cusp_angle_2d,
    cylindrical_radius,
    dumbbell_thickness,
    factorization_residual,
    nullvector_recover,
    profile_curve,
    sphere_optimality_test,
    stationary_shape,
    support_interval,
    unit_ball_volume,
    unit_sphere_area,
)
from hyperthick.errors import RankError
from hyperthick.stationary import _largest_root


# one line per criterion; the conftest terminal-summary hook replays these
# after the run so they survive pytest's output capture
REPORT_LINES: list[str] = []


def _report(line: str) -> None:
    REPORT_LINES.append(line)
    print(line, file=sys.__stdout__, flush=True)


def _run(num: int, label: str, fn, budget: float | None = None) -> None:
    start = time.perf_counter()
    try:
        ok, detail = fn()
    except Exception as exc:
        _report(f"[C{num:02d}] {label}: FAIL ({type(exc).__name__}: {exc})")
        raise
    elapsed = time.perf_counter() - start
    if budget is not None and elapsed > budget:
        ok = False
        detail += f"; exceeded {budget:.0f}s budget"
    line = f"[C{num:02d}] {label}: {'PASS' if ok else 'FAIL'} ({detail}; {elapsed:.2f}s)"
    _report(line)
    assert ok, line


def _rel(got: float, want: float) -> float:
    return abs(got - want) / abs(want)


# ---------------------------------------------------------------------------


def test_c01_nsphere_closed_forms_and_recurrences():
    def crit():
        worst = 0.0
        for n in range(0, 21):
            v_ref = math.exp(0.5 * n * math.log(math.pi) - math.lgamma(0.5 * n + 1.0))
            worst = max(worst, _rel(unit_ball_volume(n), v_ref))
        for k in range(0, 20):
            s_ref = 2.0 * math.exp(
                0.5 * (k + 1) * math.log(math.pi) - math.lgamma(0.5 * (k + 1))
            )
            worst = max(worst, _rel(unit_sphere_area(k), s_ref))
        for n in range(0, 19):
            v, v1, v2 = (unit_ball_volume(n + i) for i in range(3))
            s, s1 = unit_sphere_area(n), unit_sphere_area(n + 1)
            worst = max(worst, _rel(v1, s / (n + 1)))
            worst = max(worst, _rel(s1, 2.0 * math.pi * v))
            worst = max(worst, _rel(v2, 2.0 * math.pi * v / (n + 2)))
        return worst <= 1e-12, f"worst rel {worst:.2e}"

    _run(1, "ball volume and sphere area closed forms", crit, budget=1.0)


def test_c02_unit_ball_thickness_all_pairs():
    def crit():
        worst, worst_pair = 0.0, None
        for n in range(2, 7):
            grid = build_grid(n, 48)
            ball = StarShape.ball(n, 1.0)
            for m in range(1, n):
                rel = _rel(average_thickness(ball, m, grid), unit_ball_volume(m))
                if rel > worst:
                    worst, worst_pair = rel, (m, n)
        return worst <= 1e-8, f"worst rel {worst:.2e} at (m, n)={worst_pair}"

    _run(2, "unit-ball thickness equals V_m for 1 <= m < n <= 6", crit, budget=30.0)


def test_c03_egg_family_closed_forms():
    def crit():
        worst = 0.0
        for ecc in (0.25, 0.5, 0.75, 0.95):
            p = StationaryParams(n=3, m=2, lam=1.0, ecc=ecc)
            got = body_properties(p, 256)
            ref = closed_form(p)
            worst = max(
                worst,
                _rel(got.volume, ref.volume),
                _rel(got.moment, ref.moment),
                _rel(got.thickness, ref.thickness),
            )
        return worst <= 1e-7, f"worst rel {worst:.2e}"

    _run(3, "closed forms of the (m, n)=(2, 3) family", crit, budget=10.0)


def test_c04_critical_planar_closed_forms():
    def crit():
        sqrt2 = math.sqrt(2.0)
        worst = 0.0
        for lam in (0.5, 1.0, 2.0):
            got = body_properties(StationaryParams(n=2, m=1, lam=lam, ecc=1.0), 512)
            t_ref = 4.0 * math.log(3.0 + 2.0 * sqrt2) / (math.pi * lam)
            a_ref = (8.0 * sqrt2 - 8.0 * math.log(1.0 + sqrt2)) / lam**2
            # the moment constant is pinned by 40-digit quadrature of the
            # defining integral: (2/3)(32 sqrt2 - 24 ln(3+2 sqrt2)), positive
            # with the centroid on the cusp side of the origin
            m_ref = 2.0 / 3.0 * (32.0 * sqrt2 - 24.0 * math.log(3.0 + 2.0 * sqrt2)) / lam**3
            worst = max(
                worst,
                _rel(got.thickness, t_ref),
                _rel(got.volume, a_ref),
                _rel(got.moment, m_ref),
            )
        return worst <= 1e-7, f"worst rel {worst:.2e}"

    _run(4, "critical planar shape T, A, M closed forms", crit)


def test_c05_critical_three_dimensional_closed_forms():
    def crit():
        log2, sqrt3 = math.log(2.0), math.sqrt(3.0)
        worst = worst_support = 0.0
        for lam in (0.5, 1.0, 2.0):
            p = StationaryParams(n=3, m=1, lam=lam, ecc=1.0)
            got = body_properties(p, 256)
            v_ref = 3.0 * sqrt3 * math.pi * lam**-1.5 * (log2 - 3.0 / 8.0)
            m_ref = 27.0 / 32.0 * math.pi * lam**-2.0 * (16.0 * log2 - 10.5)
            t_ref = 3.0 * sqrt3 / (4.0 * math.sqrt(lam)) * (3.0 - 2.0 * log2)
            worst = max(
                worst,
                _rel(got.volume, v_ref),
                _rel(got.moment, m_ref),
                _rel(got.thickness, t_ref),
            )
            z_minus, z_plus = support_interval(p)
            worst_support = max(
                worst_support,
                _rel(z_plus, math.sqrt(3.0 / lam)),
                _rel(z_minus, -sqrt3 / (2.0 * math.sqrt(lam))),
            )
        ok = worst <= 1e-7 and worst_support <= 1e-10
        return ok, f"worst rel {worst:.2e}, support rel {worst_support:.2e}"

    _run(5, "critical (m, n)=(1, 3) closed forms and support", crit)


def test_c06_critical_five_dimensional_closed_forms():
    def crit():
        worst_zp = worst_zm = worst = 0.0
        for lam in (0.5, 1.0, 2.0):
            # the radical table against the radial solver on s = -z_plus/z_minus
            zm_closed, zp = critical_support(4, lam)
            zm_newton = -zp / _largest_root(4, 5.0, np.array([4.0]))[0]
            worst_zp = max(worst_zp, _rel(zp, (5.0 / lam) ** 0.25))
            worst_zm = max(worst_zm, _rel(zm_closed, zm_newton))
            p = StationaryParams(n=5, m=1, lam=lam, ecc=1.0)
            got = body_properties(p, 256)
            ref = closed_form(p)
            worst = max(
                worst,
                _rel(got.volume, ref.volume),
                _rel(got.moment, ref.moment),
                _rel(got.thickness, ref.thickness),
            )
        ok = worst_zp <= 1e-12 and worst_zm <= 1e-10 and worst <= 1e-7
        return ok, f"z+ rel {worst_zp:.2e}, z- rel {worst_zm:.2e}, V/M/T rel {worst:.2e}"

    _run(6, "critical (m, n)=(1, 5) support and antiderivative forms", crit)


def test_c07_linear_identity_sign_pattern():
    def crit():
        patterns = ((1, 1), (1, -1), (-1, 1), (-1, -1))
        worst = {pat: 0.0 for pat in patterns}
        cases = [
            (k, ecc, lam)
            for k in (1, 2, 3, 4)
            for ecc, lam in ((0.3, 0.7), (0.5, 1.0), (1.0, 1.6))
        ]
        for k, ecc, lam in cases:
            n = k + 1
            p = StationaryParams(n=n, m=1, lam=lam, ecc=ecc)
            props = body_properties(p, 256)
            lead = unit_sphere_area(n - 1) / unit_ball_volume(1) * props.thickness
            v_term = p.lam * n * props.volume
            m_term = p.mu * (n + 1) * props.moment
            for s1, s2 in patterns:
                rel = abs(lead + s1 * v_term + s2 * m_term) / lead
                worst[(s1, s2)] = max(worst[(s1, s2)], rel)
        passing = [pat for pat, w in worst.items() if w <= 1e-7]
        others_fail = all(w > 1e-3 for pat, w in worst.items() if pat != (-1, -1))
        ok = passing == [(-1, -1)] and others_fail
        detail = (
            f"(-,-) worst rel {worst[(-1, -1)]:.2e}; "
            f"next-best pattern {min(w for pat, w in worst.items() if pat != (-1, -1)):.2e}"
        )
        return ok, detail

    _run(7, "linear identity holds for exactly one sign pattern", crit)


def test_c08_sphere_optimality_and_quadratic_scaling():
    def crit():
        pairs = ((2, 1), (3, 1), (3, 2))
        worst_delta = -math.inf
        ratios = []
        for n, m in pairs:
            deltas = sphere_optimality_test(n, m, trials=200, amplitude=0.05, seed=7)
            worst_delta = max(worst_delta, max(d for _, d in deltas))
            small = sphere_optimality_test(n, m, trials=50, amplitude=0.02, seed=7)
            large = sphere_optimality_test(n, m, trials=50, amplitude=0.04, seed=7)
            ratios.append(
                float(np.median([abs(b) / abs(a) for (_, a), (_, b) in zip(small, large)]))
            )
        ok = worst_delta <= 1e-12 and all(3.5 <= r <= 4.5 for r in ratios)
        detail = "max deltaT {:.2e}; amplitude ratios {}".format(
            worst_delta, ", ".join(f"{r:.3f}" for r in ratios)
        )
        return ok, detail

    _run(8, "600 constrained perturbations never thicken the ball", crit, budget=120.0)


def test_c09_multiplier_recovery():
    def crit():
        p = StationaryParams(n=3, m=1, lam=1.0, ecc=0.5)
        shape = stationary_shape(p)
        worst_ratio = worst_err = 0.0
        for i in range(20):
            rng = np.random.default_rng([13, i])
            angles = np.empty((5, 2))
            angles[:, 0] = rng.uniform(0.2, math.pi - 0.2, size=5)
            angles[:, 1] = rng.uniform(0.0, 2.0 * math.pi, size=5)
            sample = DeformationSample.from_shape(shape, 1, angles)
            lam_hat, mu_vec, ratio = nullvector_recover(sample)
            worst_ratio = max(worst_ratio, ratio)
            worst_err = max(
                worst_err,
                _rel(lam_hat, p.lam),
                _rel(float(np.linalg.norm(mu_vec)), abs(p.mu)),
            )
        blob = StarShape.cosine_series(3, [1.0, 0.2, 0.1])
        rng = np.random.default_rng([13, 99])
        angles = np.empty((5, 2))
        angles[:, 0] = rng.uniform(0.2, math.pi - 0.2, size=5)
        angles[:, 1] = rng.uniform(0.0, 2.0 * math.pi, size=5)
        try:
            nullvector_recover(DeformationSample.from_shape(blob, 1, angles))
            blob_rejected = False
        except RankError:
            blob_rejected = True
        ok = worst_ratio < 1e-8 and worst_err <= 1e-5 and blob_rejected
        detail = (
            f"sv ratio {worst_ratio:.2e}, multiplier rel {worst_err:.2e}, "
            f"blob rejected {blob_rejected}"
        )
        return ok, detail

    _run(9, "multipliers recovered from 20 boundary resamplings", crit)


def test_c10_dumbbell_supremum():
    def crit():
        area, centroid = math.pi, 10.0
        gammas = (0.1, 0.05, 0.02, 0.01, 1e-3, 1e-4)
        bound = 2.0 * math.sqrt(area / math.pi)
        accuracy = 1e-14  # relative, verified against mpmath in test_analysis
        values, min_margin, worst_gap, errors = [], math.inf, 0.0, set()
        for gamma in gammas:
            config = DumbbellConfig(area, centroid, gamma)
            value, err = dumbbell_thickness(config, exact=True)
            asym = dumbbell_thickness(config)
            errors.add(err)
            min_margin = min(min_margin, (bound - value) / (accuracy * value))
            allowance = 0.5 * gamma**2 * math.sqrt(area / math.pi)
            worst_gap = max(worst_gap, abs(value - asym) / allowance)
            values.append(value)
        monotone = all(a < b for a, b in zip(values, values[1:]))
        ok = min_margin > 100.0 and worst_gap <= 1.0 and monotone and errors == {0.0}
        detail = (
            f"min margin {min_margin:.3g} x accuracy, asymptotic gap {worst_gap:.2e} of "
            f"allowance, monotone {monotone}"
        )
        return ok, detail

    _run(10, "two-disc thickness approaches 2 sqrt(A/pi) from below", crit)


def test_c11_cusp_geometry():
    def crit():
        worst = 0.0
        for lam in (0.7, 1.0):
            p = StationaryParams(n=2, m=1, lam=lam, ecc=1.0)
            curve = profile_curve(p, 400)
            x = -curve.z
            y = curve.radius
            lhs = (4.0 / lam + x) ** 2 * (x * x + y * y)
            ref = (2.0 / lam) ** 4
            worst = max(worst, float(np.abs(lhs - ref).max()) / ref)
        p = StationaryParams(n=2, m=1, lam=1.0, ecc=1.0)
        _, z_plus = support_interval(p)
        h = 1e-5
        angle = 2.0 * math.atan(float(cylindrical_radius(p, z_plus - h)) / h)
        angle_err = abs(angle - cusp_angle_2d())
        assert cusp_angle_2d() == pytest.approx(2.0 * math.atan(math.sqrt(2.0)))
        ok = worst <= 1e-9 and angle_err <= 1e-3
        return ok, f"implicit-curve rel {worst:.2e}, cusp angle err {angle_err:.2e} rad"

    _run(11, "cusped meridian matches its implicit quartic and opening angle", crit)


def test_c12_factorization_identity():
    def crit():
        rng = np.random.default_rng(99)
        w = rng.uniform(0.0, 2.0, size=200)
        worst = max(float(np.max(factorization_residual(k, w))) for k in range(1, 9))
        return worst <= 1e-12, f"worst rel {worst:.2e}"

    _run(12, "double-root factorization of the critical polynomial", crit)
