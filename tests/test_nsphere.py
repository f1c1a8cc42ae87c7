import math

import mpmath
import pytest
from hypothesis import given, strategies as st

from hyperthick import unit_ball_volume, unit_sphere_area
from hyperthick.errors import DomainError
from hyperthick.nsphere import gamma

mpmath.mp.dps = 40


def ball_volume_oracle(n: int) -> float:
    # independent route: high precision gamma, no shared code
    return float(mpmath.pi ** (n / mpmath.mpf(2)) / mpmath.gamma(n / mpmath.mpf(2) + 1))


def sphere_area_oracle(k: int) -> float:
    return float(2 * mpmath.pi ** ((k + 1) / mpmath.mpf(2)) / mpmath.gamma((k + 1) / mpmath.mpf(2)))


def test_known_small_values():
    assert unit_ball_volume(0) == 1.0
    assert unit_ball_volume(1) == 2.0
    assert unit_ball_volume(2) == pytest.approx(math.pi, rel=1e-15)
    assert unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0, rel=1e-15)
    assert unit_sphere_area(0) == 2.0
    assert unit_sphere_area(1) == pytest.approx(2.0 * math.pi, rel=1e-15)
    assert unit_sphere_area(2) == pytest.approx(4.0 * math.pi, rel=1e-15)
    assert unit_sphere_area(3) == pytest.approx(2.0 * math.pi**2, rel=1e-15)


@pytest.mark.parametrize("n", range(0, 41))
def test_volume_matches_independent_gamma(n):
    assert unit_ball_volume(n) == pytest.approx(ball_volume_oracle(n), rel=1e-13)


@pytest.mark.parametrize("k", range(0, 41))
def test_area_matches_independent_gamma(k):
    assert unit_sphere_area(k) == pytest.approx(sphere_area_oracle(k), rel=1e-13)


@pytest.mark.parametrize("n", [342, 400])
def test_high_dimensions_past_the_gamma_overflow(n):
    # Gamma(n/2 + 1) overflows a double here, but V_n and S_n do not
    assert unit_ball_volume(n) == pytest.approx(ball_volume_oracle(n), rel=1e-12)
    assert unit_sphere_area(n) == pytest.approx(sphere_area_oracle(n), rel=1e-12)


def test_values_below_the_normal_range_raise():
    # V_435 is about 4.2e-308, the last normal one; V_436 is about 5.0e-309
    assert unit_ball_volume(435) == pytest.approx(ball_volume_oracle(435), rel=1e-12)
    for bad in (lambda: unit_ball_volume(436), lambda: unit_sphere_area(10**6),
                lambda: gamma(171.7)):
        with pytest.raises(DomainError):
            bad()


@pytest.mark.parametrize("n", range(0, 21))
def test_recurrences(n):
    # V_{n+1} = S_n / (n+1), S_{n+1} = 2 pi V_n, V_{n+2} = 2 pi V_n / (n+2)
    assert unit_ball_volume(n + 1) == pytest.approx(
        unit_sphere_area(n) / (n + 1), rel=1e-13
    )
    assert unit_sphere_area(n + 1) == pytest.approx(
        2.0 * math.pi * unit_ball_volume(n), rel=1e-13
    )
    assert unit_ball_volume(n + 2) == pytest.approx(
        2.0 * math.pi * unit_ball_volume(n) / (n + 2), rel=1e-13
    )


def test_boundary_area_is_n_times_volume():
    for n in range(1, 15):
        assert unit_sphere_area(n - 1) == pytest.approx(
            n * unit_ball_volume(n), rel=1e-13
        )


def test_volume_peaks_at_dimension_five():
    values = [unit_ball_volume(n) for n in range(21)]
    assert max(range(21), key=values.__getitem__) == 5


def test_gamma_exact_on_integers_and_halves():
    assert gamma(1.0) == 1.0
    assert gamma(5.0) == 24.0
    assert gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-16)
    assert gamma(2.5) == pytest.approx(1.5 * 0.5 * math.sqrt(math.pi), rel=1e-15)
    assert gamma(3.7) == pytest.approx(float(mpmath.gamma(3.7)), rel=1e-14)


@given(st.floats(min_value=0.1, max_value=160.0))
def test_gamma_recurrence(x):
    assert gamma(x + 1.0) == pytest.approx(x * gamma(x), rel=1e-12)


@pytest.mark.parametrize("bad", [-1, 2.0, "3", None, True])
def test_rejects_bad_dimensions(bad):
    with pytest.raises(DomainError):
        unit_ball_volume(bad)
    with pytest.raises(DomainError):
        unit_sphere_area(bad)


def test_gamma_rejects_nonpositive():
    for bad in (0.0, -2.5, math.inf, math.nan):
        with pytest.raises(DomainError):
            gamma(bad)
