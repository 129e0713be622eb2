"""End-to-end checks of the command line: formats, exit codes, determinism."""

import csv
import json

import numpy as np
import pytest

from schauder import (
    CkBasis,
    DiscContext,
    FourierBasis,
    HaarBasis,
    HatBasis,
    HermiteBasis,
    TaylorBasis,
    hat_coefficients,
    semigroup_max_discrepancy,
    taylor_coefficients,
)
from schauder import cli
from schauder.cli import VERIFY_BASES, build_basis, main
from schauder.interval_bases import DenseSequence
from schauder.registry import corpus
from schauder.registry import get as reg


def _run(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_bases_lists_all_families(capsys):
    rc, out, _ = _run(capsys, ["bases"])
    assert rc == 0
    doc = json.loads(out)
    assert set(doc["bases"]) == {"haar", "hat-dyadic", "ck-dyadic", "hermite", "fourier", "taylor"}


def test_expand_csv_round_trips_exact_values(capsys):
    rc, out, _ = _run(capsys, ["expand", "--basis", "hat-dyadic", "--fn", "x2", "--max-n", "4", "--format", "csv"])
    assert rc == 0
    rows = list(csv.DictReader(out.splitlines()))
    got = [float(r["value"]) for r in rows]
    want = hat_coefficients(DenseSequence.dyadic(), reg("x2"), 4)
    assert got == want  # repr round trip must preserve every bit
    assert [int(r["n"]) for r in rows] == [0, 1, 2, 3, 4]


def test_expand_complex_json(capsys):
    rc, out, _ = _run(capsys, ["expand", "--basis", "fourier", "--fn", "cos", "--max-n", "1", "--format", "json"])
    assert rc == 0
    doc = json.loads(out)
    by_mode = {tuple(e["index"]): e["value"][0] for e in doc["coefficients"]}
    # same grid as the CLI default basis; the bare-context grid is coarser
    want = FourierBasis(n_max=32).coefficient(reg("cos"), 1)
    assert by_mode[(1,)]["re"] == want.real
    assert by_mode[(1,)]["im"] == want.imag


def test_expand_taylor_matches_api(capsys):
    rc, out, _ = _run(capsys, ["expand", "--basis", "taylor", "--fn", "exp-z", "--max-n", "6", "--format", "csv"])
    assert rc == 0
    rows = list(csv.DictReader(out.splitlines()))
    want = taylor_coefficients(reg("exp-z"), 6, DiscContext(contour_points=64))
    for r, w in zip(rows, want):
        assert float(r["re"]) == w.real
        assert float(r["im"]) == w.imag


def test_converge_errors_decrease(capsys):
    rc, out, _ = _run(
        capsys,
        ["converge", "--basis", "hat-dyadic", "--fn", "sin-pi", "--ranks", "2,4,8,16", "--mode", "sup", "--format", "csv"],
    )
    assert rc == 0
    rows = list(csv.DictReader(out.splitlines()))
    errs = [float(r["err_p0_sup"]) for r in rows]
    assert errs == sorted(errs, reverse=True)


def test_converge_l1_on_step_family(capsys):
    rc, out, _ = _run(
        capsys,
        ["converge", "--basis", "haar", "--fn", "x", "--ranks", "2,4,8", "--mode", "l1", "--format", "csv"],
    )
    assert rc == 0
    rows = list(csv.DictReader(out.splitlines()))
    errs = [float(r[k]) for r in rows for k in r if k.startswith("err_")]
    assert abs(errs[0] - 0.125) <= 1e-10
    assert abs(errs[1] - 0.0625) <= 1e-10


@pytest.mark.parametrize("mode", ["l1", "l2"])
def test_hat_lp_error_at_rank_zero(capsys, mode):
    # P_0 x = 0 * h_0 leaves the whole of x; P_1 x = x
    rc, out, err = _run(
        capsys,
        ["converge", "--basis", "hat-dyadic", "--fn", "x", "--ranks", "0,1", "--mode", mode],
    )
    assert rc == 0, err
    rows = list(csv.DictReader(out.splitlines()))
    assert [r["k"] for r in rows] == ["0", "1"]
    want = 0.5 if mode == "l1" else 3.0 ** -0.5
    assert abs(float(rows[0]["err_p0_sup"]) - want) <= 1e-12
    assert float(rows[1]["err_p0_sup"]) <= 1e-12


def test_vector_lp_error_at_rank_zero(tmp_path, capsys):
    # the Haar rank-0 sum has no terms: P_0 f = 0 in K^3
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps({"value_space": {"dimension": 3}}))
    rc, out, err = _run(capsys, ["converge", "--basis", "haar", "--fn", "one,x,x2",
                                 "--ranks", "0,1", "--mode", "l1", "--config", str(cfg)])
    assert rc == 0, err
    rows = list(csv.DictReader(out.splitlines()))
    assert abs(float(rows[0]["err_p0_sup"]) - 1.0) <= 1e-12
    assert 0.0 < float(rows[1]["err_p0_sup"]) < 1.0


def test_vector_fn_sets_the_value_space_dimension(capsys):
    # no --config: the space is K^3 because one,x,x2 has three components
    rc, out, err = _run(capsys, ["converge", "--basis", "haar", "--fn", "one,x,x2",
                                 "--ranks", "1,3"])
    assert rc == 0, err
    got = [float(r["err_p0_sup"]) for r in csv.DictReader(out.splitlines())]
    scalar = []
    for fn in ("one", "x", "x2"):
        rc, out, err = _run(capsys, ["converge", "--basis", "haar", "--fn", fn,
                                     "--ranks", "1,3"])
        assert rc == 0, err
        scalar.append([float(r["err_p0_sup"]) for r in csv.DictReader(out.splitlines())])
    assert got == list(np.max(scalar, axis=0))


def test_config_dimension_still_wins(tmp_path, capsys):
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps({"value_space": {"dimension": 2}}))
    rc, out, err = _run(capsys, ["converge", "--basis", "haar", "--fn", "one,x,x2",
                                 "--ranks", "1", "--config", str(cfg)])
    assert rc == 2
    assert "space dimension is 2" in err


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_expand_builds_only_the_emitted_format(capsys, monkeypatch, fmt):
    calls = []
    real = cli._coefficient_table
    monkeypatch.setattr(cli, "_coefficient_table", lambda *a: calls.append(a) or real(*a))
    rc, out, _ = _run(capsys, ["expand", "--basis", "haar", "--fn", "x", "--max-n", "4",
                               "--format", fmt])
    assert rc == 0
    assert len(calls) == (fmt == "csv")
    if fmt == "json":
        assert [c["index"] for c in json.loads(out)["coefficients"]] == [[1], [2], [3], [4]]
    else:
        assert out.splitlines()[0] == "n,value" and len(out.splitlines()) == 5


def test_sampled_function_csv_input(tmp_path, capsys):
    xs = np.linspace(0.0, 1.0, 257)
    path = tmp_path / "samples.csv"
    with open(path, "w") as fh:
        fh.write("x,value\n")
        for x in xs:
            fh.write(f"{float(x)!r},{float(x * x)!r}\n")
    rc, out, _ = _run(capsys, ["expand", "--basis", "hat-dyadic", "--fn", str(path), "--max-n", "2", "--format", "csv"])
    assert rc == 0
    rows = list(csv.DictReader(out.splitlines()))
    # chordal sampling still nails dyadic nodes that are sample points
    assert abs(float(rows[2]["value"]) + 0.25) <= 1e-6


def test_unknown_function_is_an_input_error(capsys):
    rc, _, err = _run(capsys, ["expand", "--basis", "haar", "--fn", "nope", "--max-n", "3"])
    assert rc == 2
    assert "unknown function" in err


def test_missing_required_field(capsys):
    rc, _, err = _run(capsys, ["expand", "--fn", "x2"])
    assert rc == 2
    assert "basis" in err


def test_bad_ranks_string(capsys):
    rc, _, err = _run(capsys, ["converge", "--basis", "haar", "--fn", "x", "--ranks", "2,zebra"])
    assert rc == 2


def test_non_finite_samples_produce_diagnostic(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("x,value\n0.0,0.0\n0.5,1e400\n1.0,0.0\n")
    for basis in ("haar", "hat-dyadic"):
        rc, out, _ = _run(capsys, ["expand", "--basis", basis, "--fn", str(path), "--max-n", "3"])
        assert rc == 1, basis
        doc = json.loads(out)
        assert doc["error"] == "numeric"
        assert "node" in doc
    assert doc["node"] == 0.5  # the hat surplus samples the dyadic points


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("basis", ["hermite", "fourier"])
def test_overflowing_sum_produces_diagnostic(tmp_path, capsys, basis):
    # every sample is finite; the weighted sum of them overflows
    path = tmp_path / "huge.csv"
    path.write_text("".join(f"{float(x)!r},1e308\n" for x in range(-30, 31)))
    rc, out, _ = _run(capsys, ["expand", "--basis", basis, "--fn", str(path), "--max-n", "2"])
    assert rc == 1
    doc = json.loads(out)
    assert doc["error"] == "numeric"
    assert "overflows" in doc["message"]


def test_ck_dyadic_rejects_sampled_input(tmp_path, capsys):
    # a chord interpolant has no f'' to read C^k coefficients from
    path = tmp_path / "line.csv"
    path.write_text("x,value\n0.0,0.5\n0.25,1.0\n0.5,1.5\n0.75,2.0\n1.0,2.5\n")
    for cmd in (["expand", "--max-n", "3"], ["converge", "--ranks", "1,2"]):
        rc, out, err = _run(capsys, cmd + ["--basis", "ck-dyadic", "--fn", str(path)])
        assert rc == 2
        assert out == ""
        assert "hat-dyadic" in err


def test_hermite_n_max_past_the_rule_limit_is_a_usage_error(capsys):
    rc, out, err = _run(capsys, ["verify", "--basis", "hermite", "--max-n", "496"])
    assert rc == 2
    assert out == ""
    assert "n_max" in err and "495" in err


@pytest.mark.parametrize("max_n", ["0", "-1"])
def test_verify_rejects_max_n_below_one(capsys, max_n):
    rc, out, err = _run(capsys, ["verify", "--basis", "haar", "--max-n", max_n])
    assert rc == 2
    assert out == ""
    assert "--max-n" in err


def test_verify_worst_function_matches_a_per_function_loop(capsys):
    max_n = 8
    rc, out, _ = _run(capsys, ["verify", "--seed", "0", "--max-n", str(max_n)])
    assert rc == 0
    report = json.loads(out)["bases"]
    assert set(report) == set(VERIFY_BASES)
    for name in VERIFY_BASES:
        basis = build_basis(name, {"n_max": max_n} if name in ("hermite", "fourier", "taylor") else None)
        worst_name, worst = "", 0.0
        for fname, f in corpus(basis.name):
            d = semigroup_max_discrepancy(basis, f, max_n)
            if d > worst:
                worst_name, worst = fname, d
        check = report[name]["projection_algebra"]
        assert (check["worst_function"], check["max_discrepancy"]) == (worst_name, worst), name


def _same(a, b):
    """Equal state: arrays by value, containers item by item, objects attribute by attribute."""
    if type(a) is not type(b):
        return False
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(map(_same, a, b))
    if hasattr(a, "__dict__"):
        return _same(vars(a), vars(b))
    return a == b


@pytest.mark.parametrize("name, family", [
    ("haar", HaarBasis), ("hat-dyadic", HatBasis), ("ck-dyadic", CkBasis),
    ("hermite", HermiteBasis), ("fourier", FourierBasis), ("taylor", TaylorBasis),
])
def test_build_basis_without_parameters_is_the_constructor_default(name, family):
    assert _same(build_basis(name), family())


def test_config_file_merge(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"basis": "fourier", "fn": "cos", "max_n": 1}))
    rc, out, _ = _run(capsys, ["expand", "--config", str(cfg), "--format", "json"])
    assert rc == 0
    assert json.loads(out)["basis"] == "fourier"
    # explicit flags win over the config file
    rc, out, _ = _run(capsys, ["expand", "--config", str(cfg), "--basis", "haar", "--fn", "x", "--max-n", "2", "--format", "json"])
    assert rc == 0
    assert json.loads(out)["basis"] == "haar"


def test_basis_params_through_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"basis": {"name": "taylor", "params": {"center": 1.0, "contour_points": 64}}, "fn": "poly-z", "max_n": 1}))
    rc, out, _ = _run(capsys, ["expand", "--config", str(cfg), "--format", "csv"])
    assert rc == 0
    rows = list(csv.DictReader(out.splitlines()))
    assert abs(float(rows[1]["re"]) - 5.0) <= 1e-12  # derivative of z^3 + 2z + 1 at 1


def test_complex_center_spellings_agree(tmp_path, capsys):
    outs = []
    for center in (1.0, [1.0, 0.0], {"re": 1.0, "im": 0.0}):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"basis": {"name": "taylor", "center": center},
                                   "fn": "poly-z", "max_n": 1}))
        rc, out, _ = _run(capsys, ["expand", "--config", str(cfg), "--format", "csv"])
        assert rc == 0
        outs.append(out)
    assert outs[0] == outs[1] == outs[2]


@pytest.mark.parametrize("center", [[1.0], [1.0, 0.0, 0.0], []])
def test_complex_center_that_is_not_a_pair_is_a_usage_error(tmp_path, capsys, center):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"basis": {"name": "taylor", "center": center},
                               "fn": "poly-z", "max_n": 1}))
    rc, out, err = _run(capsys, ["expand", "--config", str(cfg)])
    assert rc == 2
    assert out == ""
    assert "center" in err


@pytest.mark.parametrize("basis,key,value", [
    ("ck-dyadic", "k", 1.5),
    ("hat-dyadic", "levels", 3.0),
    ("hermite", "quad_size", 2.5),
    ("hermite", "n_max", True),
    ("fourier", "n_max", "4"),
    ("taylor", "contour_points", "64"),
    ("fourier", "grid_size", 0),
    ("taylor", "contour_points", 0),
])
def test_integer_basis_parameters_are_not_coerced(tmp_path, capsys, basis, key, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"basis": {"name": basis, key: value}, "fn": "x", "max_n": 1}))
    rc, out, err = _run(capsys, ["expand", "--config", str(cfg)])
    assert rc == 2
    assert out == ""
    assert f"{key} must be" in err


@pytest.mark.parametrize("command,config,key", [
    ("expand", {"basis": "haar", "fn": "x", "max_n": 2.7}, "max_n"),
    ("expand", {"basis": "haar", "fn": "x", "max_n": True}, "max_n"),
    ("expand", {"basis": {"name": "taylor", "radius": True, "contour_radius": 0.5},
                "fn": "poly-z", "max_n": 1}, "radius"),
    ("expand", {"basis": {"name": "taylor", "contour_radius": True},
                "fn": "poly-z", "max_n": 1}, "contour_radius"),
    ("expand", {"basis": {"name": "taylor", "radius": "2"}, "fn": "poly-z", "max_n": 1}, "radius"),
    ("converge", {"basis": "haar", "fn": "x", "ranks": [1, 2],
                  "value_space": {"dimension": 1.9}}, "dimension"),
])
def test_config_numbers_are_not_coerced(tmp_path, capsys, command, config, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    rc, out, err = _run(capsys, [command, "--config", str(cfg)])
    assert rc == 2
    assert out == ""
    assert f"{key} must be" in err


@pytest.mark.parametrize("config,key", [
    ({"basis": "haar", "fn": "x", "max_n": 2, "output": 1}, "output"),
    ({"basis": "haar", "fn": {"a": 1}, "max_n": 2}, "fn"),
    ({"basis": "haar", "fn": ["x", 2], "max_n": 2}, "fn"),
    ({"basis": {"name": 3}, "fn": "x", "max_n": 2}, "basis"),
])
def test_config_text_values_are_type_checked(tmp_path, capsys, config, key):
    # an integer output would be opened as a file descriptor and closed
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    rc, out, err = _run(capsys, ["expand", "--config", str(cfg)])
    assert (rc, out) == (2, "")
    assert f"config {key} must be" in err


@pytest.mark.parametrize("basis,fn", [("fourier", "cos"), ("taylor", "poly-z"), ("hermite", "h0")])
def test_negative_n_max_is_a_usage_error(tmp_path, capsys, basis, fn):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"basis": {"name": basis, "n_max": -7}, "fn": fn, "max_n": 1}))
    rc, out, err = _run(capsys, ["expand", "--config", str(cfg)])
    assert (rc, out) == (2, "")
    assert "n_max must be" in err


def test_unknown_basis_parameter_is_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"basis": {"name": "taylor", "centre": 1.0}, "fn": "poly-z", "max_n": 1}))
    rc, _, err = _run(capsys, ["expand", "--config", str(cfg)])
    assert rc == 2
    assert "centre" in err


def test_one_parser_serves_every_call(capsys):
    # the parser is built once per process; no call may leave state in it
    expand = ["expand", "--basis", "haar", "--fn", "x", "--max-n", "8", "--format", "csv"]
    rc, first, _ = _run(capsys, expand)
    assert rc == 0
    with pytest.raises(SystemExit) as exc:
        main(["expand", "--format", "xml"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err
    rc, _, _ = _run(capsys, ["verify", "--max-n", "2"])
    assert rc == 0
    rc, again, _ = _run(capsys, expand)
    assert rc == 0
    assert again == first
    assert cli.make_parser() is cli.make_parser()


def test_config_mode_and_format_are_checked_like_the_flags(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    for command, key, value in (("converge", "mode", "l3"), ("expand", "format", "xml")):
        cfg.write_text(json.dumps({"basis": "haar", "fn": "x", key: value}))
        rc, out, err = _run(capsys, [command, "--config", str(cfg)])
        assert (rc, out) == (2, "")
        assert f"{key} must be one of" in err


def test_verify_small_run_is_deterministic(tmp_path, capsys):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    rc1, _, _ = _run(capsys, ["verify", "--basis", "hat-dyadic", "--max-n", "6", "--output", str(out1)])
    rc2, _, _ = _run(capsys, ["verify", "--basis", "hat-dyadic", "--max-n", "6", "--output", str(out2)])
    assert rc1 == 0 and rc2 == 0
    assert out1.read_bytes() == out2.read_bytes()
    doc = json.loads(out1.read_text())
    assert doc["pass"] == 1
    assert doc["pass"] is True


@pytest.mark.parametrize("argv", [
    ["converge", "--basis", "hermite", "--fn", "h5", "--ranks", "5,200,300,500"],
    ["expand", "--basis", "hermite", "--fn", "h5", "--max-n", "600"],
])
def test_hermite_orders_past_n_max_are_usage_errors(capsys, argv):
    # the default rule integrates h_n f only through n_max = 64
    rc, out, err = _run(capsys, argv)
    assert rc == 2
    assert out == ""
    assert "n_max = 64" in err


def test_hermite_rule_below_n_max_plus_one_is_a_usage_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"basis": {"name": "hermite", "quad_size": 5}}))
    rc, out, err = _run(capsys, ["converge", "--fn", "h5", "--ranks", "1,5,20",
                                 "--config", str(cfg)])
    assert rc == 2
    assert out == ""
    assert "quad_size" in err


@pytest.mark.parametrize("basis", ["hat-dyadic", "ck-dyadic"])
def test_dyadic_levels_past_the_cap_are_usage_errors(tmp_path, capsys, basis):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"basis": {"name": basis, "levels": 21}}))
    rc, out, err = _run(capsys, ["expand", "--fn", "x", "--max-n", "4", "--config", str(cfg)])
    assert rc == 2
    assert out == ""
    assert "1..20" in err


@pytest.mark.parametrize("radius, max_n", [(1e100, 4), (1e-200, 4), (1e-160, 2)])
def test_taylor_contour_scale_out_of_range_is_a_usage_error(tmp_path, capsys, radius, max_n):
    # 1 / (N rho^n) overflows or underflows for some requested order n
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"basis": {"name": "taylor", "contour_radius": radius}}))
    rc, out, err = _run(capsys, ["expand", "--fn", "poly-z", "--max-n", str(max_n),
                                 "--config", str(cfg)])
    assert rc == 2
    assert out == ""
    assert "contour_radius" in err


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_taylor_sum_produces_diagnostic(tmp_path, capsys):
    # every contour sample is finite (|z^3| about 6.4e307); their sum overflows
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"basis": {"name": "taylor", "contour_radius": 4e102}}))
    rc, out, err = _run(capsys, ["expand", "--fn", "poly-z", "--max-n", "2",
                                 "--config", str(cfg)])
    assert rc == 1
    assert err == ""
    doc = json.loads(out)
    assert doc["error"] == "numeric"
    assert "overflows" in doc["message"]
