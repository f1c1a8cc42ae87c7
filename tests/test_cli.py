import json
import math

import click
import numpy as np
import pytest
from click.testing import CliRunner

from hyperthick import (
    BodyProperties,
    StationaryParams,
    __version__,
    build_grid,
    linear_identity_residual,
    unit_ball_volume,
    unit_sphere_area,
)
from hyperthick import cli
from hyperthick.cli import main


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, args, **kwargs):
    return runner.invoke(main, args, catch_exceptions=False, **kwargs)


def payload(result):
    return json.loads(result.output)


# ---------------------------------------------------------------------------
# envelope and basic commands
# ---------------------------------------------------------------------------


def test_nsphere_payload(runner):
    result = invoke(runner, ["nsphere", "--dim", "3"])
    assert result.exit_code == 0
    doc = payload(result)
    assert doc["tool_version"] == __version__
    assert doc["params_echo"] == {"dim": 3}
    assert doc["grid_resolution"] is None
    assert "seed" not in doc
    assert doc["n"] == 3
    assert doc["V"] == pytest.approx(4.0 * math.pi / 3.0, rel=1e-14)
    assert doc["S"] == pytest.approx(4.0 * math.pi, rel=1e-14)


def test_nsphere_bad_dimension_is_a_clean_error(runner):
    result = invoke(runner, ["nsphere", "--dim", "-1"])
    assert result.exit_code == 1
    doc = payload(result)
    assert doc["error"] == "DomainError"
    assert doc["detail"]


@pytest.mark.parametrize("dim", ["0", "-3"])
def test_nsphere_dimension_error_names_the_option(runner, dim):
    result = invoke(runner, ["nsphere", "--dim", dim])
    assert result.exit_code == 1
    doc = payload(result)
    assert doc["error"] == "DomainError"
    assert doc["detail"] == f"--dim must be an integer >= 1, got {dim}"


def test_nsphere_past_the_gamma_overflow(runner):
    doc = payload(invoke(runner, ["nsphere", "--dim", "400"]))
    assert doc["V"] == pytest.approx(3.4126040259153336e-276, rel=1e-12)
    result = invoke(runner, ["nsphere", "--dim", "100000"])
    assert result.exit_code == 1
    assert set(payload(result)) == {"error", "detail"}


def test_version_flag(runner):
    result = invoke(runner, ["--version"])
    assert result.exit_code == 0
    assert __version__ in result.output


def test_unknown_option_is_usage_error(runner):
    result = invoke(runner, ["nsphere", "--dim", "3", "--frob", "1"])
    assert result.exit_code == 2


# ---------------------------------------------------------------------------
# thickness command and the shape mini-language
# ---------------------------------------------------------------------------


def test_thickness_quadrature_ball(runner):
    result = invoke(
        runner,
        ["thickness", "--shape", "ball:1.5", "--m", "2", "--n", "3",
         "--resolution", "24"],
    )
    assert result.exit_code == 0
    doc = payload(result)
    assert doc["T"] == pytest.approx(math.pi * 1.5**2, rel=1e-12)
    assert "stderr" not in doc
    assert "seed" not in doc
    assert doc["grid_resolution"]["resolution"] == 24
    assert doc["grid_resolution"]["n"] == 3
    assert doc["params_echo"]["mc"] is False


def test_thickness_montecarlo_ball(runner):
    args = ["thickness", "--shape", "ball:1", "--m", "2", "--n", "3",
            "--mc", "--samples", "40000", "--seed", "7"]
    result = invoke(runner, args)
    assert result.exit_code == 0
    doc = payload(result)
    assert doc["seed"] == 7
    assert doc["params_echo"]["samples"] == 40000
    assert doc["stderr"] > 0.0
    assert abs(doc["T"] - math.pi) < 5.0 * doc["stderr"]
    # same seed reproduces bit for bit
    again = payload(invoke(runner, args))
    assert again["T"] == doc["T"]
    assert again["stderr"] == doc["stderr"]


def test_thickness_montecarlo_ball_six_dimensions(runner):
    # the bounding radius of a zonal shape comes from a 1-D profile scan, so
    # n = 6 no longer needs the 64^5-node scan grid
    args = ["thickness", "--shape", "ball:1", "--n", "6", "--m", "2",
            "--mc", "--samples", "20000", "--seed", "3"]
    result = invoke(runner, args)
    assert result.exit_code == 0
    doc = payload(result)
    assert doc["stderr"] > 0.0
    assert abs(doc["T"] - math.pi) < 5.0 * doc["stderr"]


def test_negative_seed_is_a_clean_error(runner):
    for args in (["thickness", "--shape", "ball:1", "--n", "3", "--m", "2", "--mc",
                  "--samples", "1000", "--seed", "-1"],
                 ["verify", "sphere-optimality", "--n", "3", "--m", "1", "--trials", "1",
                  "--seed", "-1"],
                 ["verify", "nullvector", "--seed", "-1"],
                 ["verify", "factorization", "--nm", "1", "--seed", "-1"]):
        result = invoke(runner, args)
        assert result.exit_code == 1
        doc = payload(result)
        assert doc["error"] == "DomainError"
        assert "seed" in doc["detail"]


def test_thickness_reports_quadrature_rule(runner, tmp_path):
    grid = build_grid(3, 8)
    path = tmp_path / "shape.json"
    path.write_text(json.dumps({"n": 3, "resolution": 8, "values": [1.2] * grid.node_count}))
    cases = [
        (["--shape", "ball:1", "--n", "4"], "zonal"),
        (["--shape", "harmonic:n=5;c0=1;c2=0.1"], "zonal"),
        (["--shape", "ball:1", "--n", "2"], "tensor"),
        (["--shape", "harmonic:n=2;c0=1;c1=0.2"], "tensor"),
        (["--shape", f"file:{path}"], "tensor"),
    ]
    for shape_args, rule in cases:
        result = invoke(runner, ["thickness", *shape_args, "--m", "1", "--resolution", "8"])
        assert result.exit_code == 0, result.output
        assert payload(result)["rule"] == rule
    mc = invoke(runner, ["thickness", "--shape", "ball:1", "--m", "1", "--mc",
                         "--samples", "1000"])
    assert "rule" not in payload(mc)


def test_thickness_node_count_is_the_rule_size(runner, tmp_path):
    # a zonal rule holds max(R, n) + 16 nodes in theta; a tensor rule all nodes
    zonal = invoke(runner, ["thickness", "--shape", "ball:1.5", "--n", "3", "--m", "1",
                            "--resolution", "64"])
    assert payload(zonal)["rule"] == "zonal"
    assert payload(zonal)["grid_resolution"]["node_count"] == 80
    path = tmp_path / "shape.json"
    # a table at resolution 8 holds 5 polar x 8 azimuth values
    path.write_text(json.dumps({"n": 3, "resolution": 8, "values": [1.2] * 40}))
    tensor = invoke(runner, ["thickness", "--shape", f"file:{path}", "--m", "1",
                             "--resolution", "16"])
    assert payload(tensor)["rule"] == "tensor"
    assert payload(tensor)["grid_resolution"]["node_count"] == 9 * 16


def test_thickness_zonal_ball_nine_dimensions(runner):
    # the tensor product would be 16^8 nodes, over the node budget; the zonal
    # rule never enumerates it
    result = invoke(runner, ["thickness", "--shape", "ball:1", "--n", "9", "--m", "2",
                             "--resolution", "16"])
    assert result.exit_code == 0, result.output
    doc = payload(result)
    assert doc["rule"] == "zonal"
    assert doc["grid_resolution"]["node_count"] == 32
    assert abs(doc["T"] - math.pi) <= 1e-14 * math.pi


def test_thickness_zonal_over_the_cap_fails_before_the_grid(runner, monkeypatch):
    # the zonal rule is sized first, so an over-cap resolution builds no grid table
    calls = []
    monkeypatch.setattr(cli, "build_grid", lambda *args: calls.append(args))
    result = invoke(runner, ["thickness", "--shape", "ball:1", "--n", "3", "--m", "1",
                             "--resolution", "4097"])
    assert result.exit_code == 1
    assert payload(result)["error"] == "BudgetError"
    assert calls == []


def test_thickness_harmonic_two_dimensional(runner):
    result = invoke(
        runner,
        ["thickness", "--shape", "harmonic:n=2;c0=1;c1=0.25;s2=0.1", "--m", "1"],
    )
    assert result.exit_code == 0
    # for m = 1, n = 2 only the constant term survives the average
    assert payload(result)["T"] == pytest.approx(2.0, rel=1e-12)


def test_thickness_harmonic_dimension_conflict(runner):
    result = invoke(
        runner,
        ["thickness", "--shape", "harmonic:n=2;c0=1", "--m", "1", "--n", "3"],
    )
    assert result.exit_code == 2
    assert "conflict" in result.output


def test_thickness_unknown_shape_kind(runner):
    result = invoke(runner, ["thickness", "--shape", "blob:1", "--m", "1"])
    assert result.exit_code == 2


def test_thickness_tabulated_file_shape(runner, tmp_path):
    grid = build_grid(3, 8)
    doc = {"n": 3, "resolution": 8, "values": [1.2] * grid.node_count}
    path = tmp_path / "shape.json"
    path.write_text(json.dumps(doc))
    result = invoke(
        runner,
        ["thickness", "--shape", f"file:{path}", "--m", "2", "--resolution", "16"],
    )
    assert result.exit_code == 0
    assert payload(result)["T"] == pytest.approx(math.pi * 1.2**2, rel=1e-12)


def test_thickness_file_shape_errors(runner, tmp_path):
    result = invoke(
        runner,
        ["thickness", "--shape", f"file:{tmp_path}/missing.json", "--m", "1"],
    )
    assert result.exit_code == 1
    doc = payload(result)
    assert doc["error"] == "DomainError"
    assert "cannot read" in doc["detail"]

    bad_count = tmp_path / "short.json"
    bad_count.write_text(json.dumps({"n": 3, "resolution": 8, "values": [1.0, 2.0]}))
    doc = payload(invoke(runner, ["thickness", "--shape", f"file:{bad_count}", "--m", "1"]))
    assert "values" in doc["detail"]

    negative = tmp_path / "neg.json"
    grid = build_grid(3, 8)
    vals = [1.0] * grid.node_count
    vals[3] = -0.5
    negative.write_text(json.dumps({"n": 3, "resolution": 8, "values": vals}))
    doc = payload(invoke(runner, ["thickness", "--shape", f"file:{negative}", "--m", "1"]))
    assert "positive" in doc["detail"]

    missing_key = tmp_path / "nokey.json"
    missing_key.write_text(json.dumps({"n": 3, "values": [1.0]}))
    doc = payload(invoke(runner, ["thickness", "--shape", f"file:{missing_key}", "--m", "1"]))
    assert "resolution" in doc["detail"]

    # "refine" is not a shape-file key: a table refined along the polar axis
    # holds more values than the file's build_grid(3, 8) has nodes
    refined = tmp_path / "refined.json"
    refined.write_text(json.dumps({"n": 3, "resolution": 8, "refine": 2, "values": [1.0] * 128}))
    result = invoke(runner, ["thickness", "--shape", f"file:{refined}", "--m", "1"])
    assert result.exit_code == 1
    assert "values" in payload(result)["detail"]

    # a table in the earlier resolution^(n-1) layout is rejected by a message
    # that names the layout it needs
    old = tmp_path / "old.json"
    old.write_text(json.dumps({"n": 3, "resolution": 8, "values": [1.0] * 64}))
    result = invoke(runner, ["thickness", "--shape", f"file:{old}", "--m", "1"])
    assert result.exit_code == 1
    assert payload(result) == {
        "error": "DomainError",
        "detail": "shape file holds 64 values; a table needs one per node of "
                  "build_grid(3, 8), 40 in angles() order",
    }


@pytest.mark.parametrize("n,resolution", [(2, 9), (3, 8), (4, 6), (3, 1)])
def test_file_shape_lookup_matches_regular_grid_interpolator(tmp_path, n, resolution):
    # scipy's interpolator is a test-only reference for the multilinear lookup,
    # with the azimuth closed at 2 pi and linear extrapolation past the end
    # nodes (the poles lie outside every polar axis)
    from scipy.interpolate import RegularGridInterpolator

    from hyperthick import cartesian_to_spherical, unit_vectors
    from hyperthick.cli import parse_shape

    rng = np.random.default_rng(n * 100 + resolution)
    grid = build_grid(n, resolution)
    # a smooth table with noise; extrapolated noise alone can reach r <= 0
    values = 1.0 + 0.2 * grid.nodes()[0][:, 0] + 0.1 * rng.random(grid.node_count)
    path = tmp_path / "shape.json"
    path.write_text(json.dumps({"n": n, "resolution": resolution, "values": values.tolist()}))
    shape = parse_shape(f"file:{path}", None)

    coords = [nodes for nodes, _ in grid.axes]
    coords[-1] = np.append(coords[-1], 2.0 * math.pi)
    table = values.reshape([nodes.size for nodes, _ in grid.axes])
    table = np.concatenate([table, table[..., :1]], axis=-1)
    reference = RegularGridInterpolator(
        tuple(coords), table, method="linear", bounds_error=False, fill_value=None
    )

    u = rng.normal(size=(20_000, n))
    u /= np.linalg.norm(u, axis=1)[:, None]
    poles = np.zeros((2, n))
    poles[:, 0] = [1.0, -1.0]
    seam = rng.uniform(0.05, math.pi - 0.05, size=(6, n - 1))
    seam[:, -1] = [0.0, 0.0, 0.0, 2.0 * math.pi - 1e-13, 2.0 * math.pi - 1e-9, 1e-12]
    u = np.vstack([u, poles, unit_vectors(seam)])
    expected = reference(cartesian_to_spherical(u)[1])
    assert np.abs(shape.radial(u) / expected - 1.0).max() <= 1e-15


@pytest.mark.parametrize("key", ["n", "resolution"])
def test_thickness_file_shape_bool_size_is_a_clean_error(runner, tmp_path, key):
    doc = {"n": 3, "resolution": 8, "values": [1.0] * 64}
    doc[key] = True
    path = tmp_path / "bool.json"
    path.write_text(json.dumps(doc))
    result = invoke(runner, ["thickness", "--shape", f"file:{path}", "--m", "1"])
    assert result.exit_code == 1
    assert payload(result)["error"] == "DomainError"


# ---------------------------------------------------------------------------
# stationary commands
# ---------------------------------------------------------------------------


def test_stationary_props_routes_agree(runner):
    base = ["stationary", "props", "--n", "3", "--m", "2",
            "--lambda", "1.0", "--ecc", "0.5"]
    quad = payload(invoke(runner, base))
    closed = payload(invoke(runner, base + ["--closed-form"]))
    assert quad["method"] == "quadrature"
    assert closed["method"] == "closed-form"
    assert closed["grid_resolution"] is None
    for key in ("V", "M", "T"):
        assert quad[key] == pytest.approx(closed[key], rel=1e-9)
    assert quad["T_via_identity"] == pytest.approx(quad["T"], rel=1e-9)
    # relative to (S_{n-1}/V_m) T
    assert abs(quad["identity_residual"]) < 1e-14
    assert quad["grid_resolution"]["node_count"] == 272
    assert quad["params"]["class"] == "egg"
    assert quad["params"]["mu"] < 0.0


def test_stationary_props_identity_residual_is_relative(runner):
    # in absolute units the residual at n = 40 reads 3e-23, whatever its accuracy
    args = ["stationary", "props", "--n", "40", "--m", "20", "--lambda", "1.0", "--ecc", "0.5"]
    doc = payload(invoke(runner, args))
    params = StationaryParams(n=40, m=20, lam=1.0, ecc=0.5)
    absolute = linear_identity_residual(BodyProperties(doc["V"], doc["M"], doc["T"]), params)
    lead = unit_sphere_area(39) / unit_ball_volume(20) * doc["T"]
    assert doc["identity_residual"] == pytest.approx(absolute / lead, rel=1e-12, abs=0.0)
    assert abs(doc["identity_residual"]) < 1e-14


def test_stationary_props_open_shape_fails_cleanly(runner):
    result = invoke(
        runner,
        ["stationary", "props", "--n", "3", "--m", "1",
         "--lambda", "1.0", "--ecc", "1.2"],
    )
    assert result.exit_code == 1
    assert payload(result)["error"] == "UnboundedRegionError"


def test_stationary_props_closed_form_coverage_error(runner):
    result = invoke(
        runner,
        ["stationary", "props", "--n", "4", "--m", "2",
         "--lambda", "1.0", "--ecc", "0.5", "--closed-form"],
    )
    assert result.exit_code == 1
    doc = payload(result)
    assert doc["error"] == "DomainError"
    assert "closed form" in doc["detail"]


def test_stationary_profile_writes_csv_and_sidecar(runner, tmp_path):
    out = tmp_path / "curve.csv"
    result = invoke(
        runner,
        ["stationary", "profile", "--nm", "2", "--lambda", "1.0",
         "--ecc", "1.0", "--points", "50", "--out", str(out)],
    )
    assert result.exit_code == 0

    raw = out.read_bytes()
    assert raw.count(b"\r\n") == 51  # header plus 50 rows, RFC 4180 endings
    lines = raw.decode().split("\r\n")
    assert lines[0] == "z,R"
    rows = [tuple(map(float, ln.split(","))) for ln in lines[1:] if ln]
    assert len(rows) == 50
    z = np.array([r[0] for r in rows])
    radius = np.array([r[1] for r in rows])
    assert np.all(np.diff(z) > 0)
    assert radius[0] == 0.0 and radius[-1] == 0.0
    assert radius[1:-1].min() > 0.0

    sidecar = json.loads((tmp_path / "curve.csv.json").read_text())
    assert sidecar == payload(result)
    assert sidecar["z_plus"] == pytest.approx(math.sqrt(3.0), rel=1e-12)
    assert sidecar["z_minus"] == pytest.approx(-math.sqrt(3.0) / 2.0, rel=1e-12)
    assert sidecar["samples"] == 50
    assert sidecar["params"]["class"] == "critical"
    assert z[0] == pytest.approx(sidecar["z_minus"], rel=1e-15)
    assert z[-1] == pytest.approx(sidecar["z_plus"], rel=1e-15)


@pytest.mark.parametrize("points", ["1", "0"])
def test_stationary_profile_point_count_error_names_the_option(runner, tmp_path, points):
    out = tmp_path / "x.csv"
    result = invoke(
        runner,
        ["stationary", "profile", "--nm", "2", "--lambda", "1.0", "--ecc", "0.5",
         "--points", points, "--out", str(out)],
    )
    assert result.exit_code == 1
    doc = payload(result)
    assert doc["error"] == "DomainError"
    assert doc["detail"] == f"--points must be an integer >= 2, got {points}"
    assert not out.exists()


def test_stationary_profile_rejects_bad_codimension(runner, tmp_path):
    result = invoke(
        runner,
        ["stationary", "profile", "--nm", "0", "--lambda", "1.0",
         "--ecc", "0.5", "--out", str(tmp_path / "x.csv")],
    )
    assert result.exit_code == 1
    assert payload(result)["error"] == "DomainError"


# ---------------------------------------------------------------------------
# verify suites
# ---------------------------------------------------------------------------


def test_verify_factorization_passes(runner):
    result = invoke(runner, ["verify", "factorization"])
    assert result.exit_code == 0
    doc = payload(result)
    assert doc["pass"] is True
    assert [c["name"] for c in doc["checks"]] == [f"k{k}" for k in range(1, 9)]
    assert all(c["pass"] for c in doc["checks"])


def test_verify_factorization_single_codimension(runner):
    doc = payload(invoke(runner, ["verify", "factorization", "--nm", "3"]))
    assert [c["name"] for c in doc["checks"]] == ["k3"]


def test_verify_factorization_needs_a_point(runner):
    for points in ("0", "-1"):
        result = invoke(runner, ["verify", "factorization", "--nm", "1", "--points", points])
        assert result.exit_code == 1
        doc = payload(result)
        assert doc["error"] == "DomainError" and "points" in doc["detail"]


def test_verify_factorization_impossible_tolerance_fails(runner):
    result = invoke(runner, ["verify", "factorization", "--tolerance", "0"])
    assert result.exit_code == 1
    doc = payload(result)
    assert doc["pass"] is False


def test_verify_sphere_optimality_small_run(runner):
    result = invoke(
        runner,
        ["verify", "sphere-optimality", "--n", "2", "--m", "1",
         "--trials", "3", "--resolution", "32"],
    )
    assert result.exit_code == 0
    doc = payload(result)
    assert doc["pass"] is True
    assert doc["seed"] == 0
    assert len(doc["checks"]) == 3
    for check in doc["checks"]:
        assert check["value"] < 0.0


def test_verify_sphere_optimality_six_dimensions_at_default_resolution(runner):
    # the default grid at n = 6 stays within the materialization budget
    result = invoke(runner, ["verify", "sphere-optimality", "--n", "6", "--trials", "2"])
    assert result.exit_code == 0
    doc = payload(result)
    assert doc["pass"] is True
    assert len(doc["checks"]) == 2


@pytest.mark.parametrize("dim,resolution", [(2, 16), (3, 12), (4, 9), (5, 8)])
def test_verify_sphere_optimality_node_count_is_the_grid_size(runner, dim, resolution):
    result = invoke(runner, ["verify", "sphere-optimality", "--n", str(dim), "--trials", "1",
                             "--resolution", str(resolution)])
    assert result.exit_code == 0
    grid = build_grid(dim, resolution)
    assert payload(result)["grid_resolution"]["node_count"] == grid.node_count
    assert grid.node_count == grid.nodes()[1].size


def test_verify_sphere_optimality_echoes_default_resolution(runner):
    # without --resolution the echo names the resolution the test ran at
    result = invoke(runner, ["verify", "sphere-optimality", "--n", "7", "--trials", "2"])
    assert result.exit_code == 0
    doc = payload(result)
    assert doc["params_echo"]["resolution"] == 17
    assert doc["grid_resolution"] == {"n": 7, "resolution": 17, "node_count": 9**5 * 17}


def test_verify_nullvector_passes(runner):
    doc = payload(invoke(runner, ["verify", "nullvector"]))
    assert doc["pass"] is True
    names = [c["name"] for c in doc["checks"]]
    assert "blob-rejected" in names


# ---------------------------------------------------------------------------
# dumbbell command
# ---------------------------------------------------------------------------


def test_dumbbell_csv_stdout(runner):
    result = invoke(
        runner,
        ["dumbbell", "--area", "3.14159", "--centroid", "10",
         "--gamma-sweep", "0.1,0.05", "--samples", "40000", "--seed", "4"],
    )
    assert result.exit_code == 0
    raw = result.stdout_bytes.decode()  # result.output folds the \r\n endings
    lines = raw.split("\r\n")
    assert lines[0] == "gamma,T_asymptotic,T_exact,stderr"
    rows = [tuple(map(float, ln.split(","))) for ln in lines[1:] if ln]
    assert [r[0] for r in rows] == [0.1, 0.05]
    for gamma, asym, exact, err in rows:
        assert err == 0.0
        assert abs(exact - asym) <= 0.5 * gamma**2 * math.sqrt(3.14159 / math.pi)


def test_dumbbell_csv_file_output(runner, tmp_path):
    out = tmp_path / "sweep.csv"
    result = invoke(
        runner,
        ["dumbbell", "--area", "3.14159", "--centroid", "10",
         "--gamma-sweep", "0.1", "--samples", "20000", "--out", str(out)],
    )
    assert result.exit_code == 0
    assert result.output == ""
    assert out.read_bytes().startswith(b"gamma,T_asymptotic,T_exact,stderr\r\n")


def test_dumbbell_overlap_is_clean_error(runner):
    result = invoke(
        runner,
        ["dumbbell", "--area", "3.14159", "--centroid", "0.5",
         "--gamma-sweep", "0.9", "--samples", "1000"],
    )
    assert result.exit_code == 1
    assert payload(result)["error"] == "GeometryError"


def test_dumbbell_bad_gamma_list(runner):
    for bad in ("a,b", ",,"):
        result = invoke(
            runner,
            ["dumbbell", "--area", "1", "--centroid", "1", "--gamma-sweep", bad],
        )
        assert result.exit_code == 2


# ---------------------------------------------------------------------------
# config file
# ---------------------------------------------------------------------------


def test_config_file_sets_defaults_and_flags_win(runner, tmp_path):
    cfg = tmp_path / "hyperthick.cfg"
    cfg.write_text("# defaults\nresolution = 16\n\nsamples=1000\n")
    base = ["--config", str(cfg), "thickness", "--shape", "ball:1", "--m", "1", "--n", "3"]

    doc = payload(invoke(runner, base))
    assert doc["grid_resolution"]["resolution"] == 16

    doc = payload(invoke(runner, base + ["--resolution", "24"]))
    assert doc["grid_resolution"]["resolution"] == 24

    doc = payload(invoke(runner, base + ["--mc"]))
    assert doc["params_echo"]["samples"] == 1000


def test_config_file_rejects_unknown_key(runner, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("frobnicate=1\n")
    result = invoke(runner, ["--config", str(cfg), "nsphere", "--dim", "2"])
    assert result.exit_code == 2
    assert "frobnicate" in result.output


def test_config_file_rejects_bad_value(runner, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("resolution=abc\n")
    result = invoke(runner, ["--config", str(cfg), "nsphere", "--dim", "2"])
    assert result.exit_code == 2


# ---------------------------------------------------------------------------
# robustness: every integer option at values out of range
# ---------------------------------------------------------------------------

# one cheap valid call per command; thickness twice, so that --samples is read
BASE_CALLS = [
    ["nsphere", "--dim", "3"],
    ["thickness", "--shape", "ball:1", "--n", "3", "--m", "1", "--resolution", "8"],
    ["thickness", "--shape", "ball:1", "--n", "3", "--m", "1", "--mc", "--samples", "1000"],
    ["stationary", "profile", "--nm", "1", "--lambda", "1", "--ecc", "0.5", "--points", "20",
     "--out", "profile.csv"],
    ["stationary", "props", "--n", "3", "--m", "2", "--lambda", "1", "--ecc", "0.5",
     "--resolution", "16"],
    ["verify", "sphere-optimality", "--trials", "2", "--resolution", "8"],
    ["verify", "identity", "--resolution", "16"],
    ["verify", "nullvector"],
    ["verify", "factorization", "--nm", "1", "--points", "20"],
    ["dumbbell", "--area", "1", "--centroid", "0.7", "--gamma-sweep", "0.2"],
]


def _command(args):
    """The click command a call runs, and the words that name it."""
    cmd, path = main, []
    while isinstance(cmd, click.Group):
        path.append(args[len(path)])
        cmd = cmd.commands[path[-1]]
    return cmd, path


def _leaf_commands(group, path=()):
    for name, cmd in group.commands.items():
        if isinstance(cmd, click.Group):
            yield from _leaf_commands(cmd, (*path, name))
        else:
            yield [*path, name]


def _with_option(args, flag, value):
    if flag in args:
        i = args.index(flag)
        return [*args[: i + 1], value, *args[i + 2 :]]
    return [*args, flag, value]


def _bad_integer_calls():
    for base in BASE_CALLS:
        cmd, path = _command(base)
        for param in cmd.params:
            if isinstance(param, click.Option) and param.type is click.INT:
                flag = max(param.opts, key=len)
                for value in ("0", "-1"):
                    yield pytest.param(_with_option(base, flag, value),
                                       id=f"{' '.join(path)} {flag}={value}")


RESOLUTION_CAPPED = [base for base in BASE_CALLS
                     if "--resolution" in base and "--mc" not in base]


def test_every_command_has_a_base_call():
    assert sorted(_command(base)[1] for base in BASE_CALLS) == sorted(
        [*_leaf_commands(main), ["thickness"]])
    assert sorted(" ".join(_command(b)[1]) for b in RESOLUTION_CAPPED) == [
        "stationary props", "thickness", "verify identity", "verify sphere-optimality"]


def _run_cleanly(runner, args):
    """Run a call; it must end in a documented exit code, never a traceback."""
    result = runner.invoke(main, args)
    assert result.exception is None or isinstance(result.exception, SystemExit), result.exception
    assert result.exit_code in (0, 1, 2), result.output
    if result.exit_code == 1:
        doc = json.loads(result.stdout)
        assert set(doc) == {"error", "detail"} and doc["detail"], doc
        return doc
    return None


@pytest.mark.parametrize("args", _bad_integer_calls())
def test_integer_options_out_of_range_exit_cleanly(runner, args, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _run_cleanly(runner, args)


@pytest.mark.parametrize("base", RESOLUTION_CAPPED, ids=lambda b: " ".join(_command(b)[1]))
def test_resolution_over_the_table_cap_is_a_budget_error(runner, base):
    # 1-D rules hold `resolution` nodes and trip at 4097; the polar axes of a
    # tensor grid hold resolution // 2 + 1 and trip at 8192
    tensor = _command(base)[1] == ["verify", "sphere-optimality"]
    doc = _run_cleanly(runner, _with_option(base, "--resolution", "8192" if tensor else "4097"))
    assert doc is not None and doc["error"] == "BudgetError", doc
