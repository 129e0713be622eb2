"""End-to-end checks of the command line: formats, exit codes, determinism."""

import csv
import json

import numpy as np
import pytest

from schauder import (
    DiscContext,
    FourierBasis,
    hat_coefficients,
    semigroup_max_discrepancy,
    taylor_coefficients,
)
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
    rc, out, err = _run(capsys, ["verify", "--basis", "hermite", "--max-n", "181"])
    assert rc == 2
    assert out == ""
    assert "n_max" in err and "145" in err


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


def test_unknown_basis_parameter_is_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"basis": {"name": "taylor", "centre": 1.0}, "fn": "poly-z", "max_n": 1}))
    rc, _, err = _run(capsys, ["expand", "--config", str(cfg)])
    assert rc == 2
    assert "centre" in err


def test_verify_small_run_is_deterministic(tmp_path, capsys):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    rc1, _, _ = _run(capsys, ["verify", "--basis", "hat-dyadic", "--max-n", "6", "--output", str(out1)])
    rc2, _, _ = _run(capsys, ["verify", "--basis", "hat-dyadic", "--max-n", "6", "--output", str(out2)])
    assert rc1 == 0 and rc2 == 0
    assert out1.read_bytes() == out2.read_bytes()
    doc = json.loads(out1.read_text())
    assert doc["pass"] == 1
    assert doc["pass"] is True
