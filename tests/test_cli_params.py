"""Every parameter the CLI accepts is honoured accurately, or refused.

Derandomized ``hypothesis`` runs of ``cli.main`` in process.  Each draws
``--max-n`` (expand) or ``--ranks`` and ``--mode`` (converge), as flags or
``--config`` keys, and every ``--config`` basis parameter of one family, both
inside and just past its accepted range.  A run must end in one of two ways:

* exit 0, and the family's finite-expansion corpus function is reproduced
  within the family's ``coefficient_tol`` at every rank that covers it;
* exit 2, with a message on stderr.

Exit 1 (a numeric failure) and an uncaught exception are both failures: the
drawn functions are finite wherever the accepted parameters place nodes.
"""

import contextlib
import csv
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schauder.cli import build_basis, main, resolve_function

PROPS = settings(max_examples=30, deadline=None, derandomize=True, database=None)

# family -> (corpus function with a finite expansion, lowest rank covering it)
FINITE = {
    "haar": ("one", 1),
    "hat-dyadic": ("x", 1),
    "ck-dyadic": ("x", 2),
    "hermite": ("h3", 3),
    "fourier": ("cos", 1),
    "taylor": ("poly-z", 3),
}

# values of the wrong JSON type for an integer or number parameter
JUNK = st.sampled_from([2.5, "3", True, None, [1]])
NONFINITE = st.sampled_from([math.nan, math.inf, -math.inf])
# config rank lists the flag syntax cannot express
BAD_RANKS = st.sampled_from([5, "1,2", [], [1.5], [True], [-1], [None]])


def _mostly(good, bad):
    """``good``, or ``bad`` one draw in five."""
    return st.sampled_from([good] * 4 + [bad]).flatmap(lambda s: s)


def _ints(lo, hi, *edges):
    """lo..hi and the ``edges``, each about equally often, or ``JUNK``."""
    return _mostly(st.sampled_from([*range(lo, hi + 1), *edges]), JUNK)


LEVELS = _ints(-1, 12, 21)


@st.composite
def _hermite_params(draw):
    params = draw(st.fixed_dictionaries({}, optional={"n_max": _ints(-1, 12, 495, 496)}))
    if draw(st.booleans()):
        n = params.get("n_max", 64)
        n = n if type(n) is int else 64
        # a rule needs n_max + 1 to 1000 nodes
        params["quad_size"] = draw(_ints(n - 1, n + 2, 0, 999, 1000, 1001))
    return params


@st.composite
def _taylor_params(draw):
    params = draw(st.fixed_dictionaries({}, optional={
        "center": _mostly(st.sampled_from([0.0, 0.5, -1.25, [0.25, -0.5], {"re": 0.5, "im": -0.25}]),
                          st.sampled_from([[1.0], [1.0, 2.0, 3.0], None, [math.nan, 0.0]])
                          | NONFINITE),
        "contour_radius": _mostly(st.sampled_from([0.25, 0.5, 1.0, 2.0, 4.0, 0.0, -0.5]),
                                  NONFINITE | JUNK),
        "n_max": _ints(-1, 20),
        "contour_points": _mostly(st.sampled_from([0, 2, 3, 4, 8, 12, 16, 32, 60, 64, 128, -4]),
                                  JUNK),
    }))
    if draw(st.booleans()):
        rho = params.get("contour_radius", 1.0)
        rho = rho if type(rho) is float and 0.0 < rho < math.inf else 1.0
        # the contour must lie strictly inside the disc
        params["radius"] = draw(_mostly(st.sampled_from([math.inf, 1.5 * rho, 4.0 * rho, rho, 0.5 * rho]),
                                        NONFINITE | JUNK))
    return params

PARAMS = {
    "haar": st.fixed_dictionaries({}),
    "hat-dyadic": st.fixed_dictionaries({}, optional={"levels": LEVELS}),
    "ck-dyadic": st.fixed_dictionaries({}, optional={"k": _ints(-1, 3), "levels": LEVELS}),
    "hermite": _hermite_params(),
    "fourier": st.fixed_dictionaries({}, optional={
        "n_max": _ints(-1, 40),
        "grid_size": _ints(-1, 20, 64, 129),
    }),
    "taylor": _taylor_params(),
}


def _edges(family, params):
    """Grades at and just past the largest one the parameters allow."""
    def num(key, default):
        v = params.get(key, default)
        return v if type(v) is int else default
    top = {
        "hat-dyadic": 2 ** max(num("levels", 11), 0),
        "ck-dyadic": 2 ** max(num("levels", 11), 0) + num("k", 2),
        "hermite": num("n_max", 64),
        "fourier": ((num("grid_size", 0) or max(64, 4 * num("n_max", 32) + 1)) - 1) // 2,
        "taylor": (num("contour_points", 0)
                   or max(64, 1 << (4 * max(num("n_max", 16), 1) - 1).bit_length())) // 4,
    }.get(family, 0)
    # Hermite up to its n_max cap and one past it; the other families stay small
    cap = 496 if family == "hermite" else 150
    return [n for n in (top - 1, top, top + 1) if 0 <= n <= cap]


def _grades(family, params):
    return st.integers(-1, 24) | st.sampled_from(_edges(family, params) or [0])


def _config(family, params, extra):
    return {"basis": dict(name=family, **params), **extra}


def _call(argv, cfg_path, cfg):
    """Run ``main``; (exit code, stdout, stderr)."""
    cfg_path.write_text(json.dumps(cfg))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv + ["--config", str(cfg_path)])
        except SystemExit as exc:  # argparse refusing a flag
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _check_exit(code, out, err, argv, cfg):
    assert code in (0, 2), (code, argv, cfg, out, err)
    if code == 2:
        assert err.strip(), (argv, cfg)


def _cell(v):
    return complex(v["re"], v["im"]) if isinstance(v, dict) else v


def _expand_table(out, fmt):
    """index -> coefficient row, read back from either output format."""
    if fmt == "json":
        return {e["index"][0]: np.array([_cell(v) for v in e["value"]])
                for e in json.loads(out)["coefficients"]}
    table = {}
    for row in csv.DictReader(out.splitlines()):
        n = int(row.pop("n"))
        cells = [float(v) for v in row.values()]
        if any(key.startswith("re") for key in row):
            cells = [complex(re, im) for re, im in zip(cells[::2], cells[1::2])]
        table[n] = np.array(cells)
    return table


@pytest.fixture(scope="module")
def cfg_path(tmp_path_factory):
    return tmp_path_factory.mktemp("cli-params") / "job.json"


FAMILIES = sorted(FINITE)
# the families with an L^p error mode; the others refuse l1 and l2
LP_FAMILIES = ("haar", "hat-dyadic")


@pytest.mark.parametrize("family", FAMILIES)
@PROPS
@given(data=st.data())
def test_expand_parameters_are_honoured_or_refused(cfg_path, family, data):
    params = data.draw(PARAMS[family], label="params")
    max_n = data.draw(_grades(family, params), label="max_n")
    fname, cover = FINITE[family]
    fn = data.draw(st.sampled_from([fname, f"{fname},zero"]), label="fn")
    fmt = data.draw(st.sampled_from(["csv", "json"]), label="format")
    argv, extra = ["expand", "--fn", fn, "--format", fmt], {}
    if data.draw(st.booleans(), label="max_n as flag"):
        argv += ["--max-n", str(max_n)]
    else:
        extra["max_n"] = max_n
    cfg = _config(family, params, extra)
    code, out, err = _call(argv, cfg_path, cfg)
    _check_exit(code, out, err, argv, cfg)
    if code == 0 and max_n >= cover:
        _check_reproduced(family, params, fn, out, fmt, (argv, cfg))


def _check_reproduced(family, params, fn, out, fmt, context):
    """The expand table ``out`` sums back to ``fn`` on the sample points."""
    basis = build_basis(family, params)
    f = resolve_function(fn, basis)
    pts = basis.sample_points()
    want = np.asarray(f(pts)).reshape(len(pts), -1)
    got = sum(np.multiply.outer(np.asarray(basis.element(n)(pts)), c)
              for n, c in _expand_table(out, fmt).items())
    assert np.max(np.abs(got - want)) <= basis.coefficient_tol, context


# the drawn Hermite edges, each run once: n_max is at most 495, a rule has
# n_max + 1 to 1000 nodes, and no order past n_max is expanded
@pytest.mark.parametrize("params, max_n, want", [
    ({"n_max": 495, "quad_size": 1000}, 495, 0),
    ({"n_max": 495, "quad_size": 999}, 3, 0),
    ({"n_max": 495}, 496, 2),
    ({"n_max": 496}, 3, 2),
    ({"n_max": 495, "quad_size": 495}, 3, 2),
    ({"quad_size": 1001}, 3, 2),
])
def test_hermite_edges_are_honoured_or_refused(cfg_path, params, max_n, want):
    argv = ["expand", "--fn", "h3", "--format", "csv", "--max-n", str(max_n)]
    cfg = _config("hermite", params, {})
    code, out, err = _call(argv, cfg_path, cfg)
    _check_exit(code, out, err, argv, cfg)
    assert code == want, (argv, cfg, err)
    if code == 0:
        _check_reproduced("hermite", params, "h3", out, "csv", (argv, cfg))


# contour radii whose factor 1 / (N rho^n) leaves the float range: from order
# 4 at 1e100 (overflow) and from order 2 at 1e-200 (underflow), each run at
# the first refused order and past it
@pytest.mark.parametrize("radius, grades", [(1e100, (4, 16)), (1e-200, (2, 4))])
@pytest.mark.parametrize("command", ["expand", "converge"])
def test_taylor_contour_radius_out_of_range_is_refused(cfg_path, radius, grades, command):
    for grade in grades:
        argv = [command, "--fn", "poly-z", "--format", "csv"]
        argv += ["--max-n", str(grade)] if command == "expand" else ["--ranks", f"0,{grade}"]
        cfg = _config("taylor", {"contour_radius": radius}, {})
        code, out, err = _call(argv, cfg_path, cfg)
        _check_exit(code, out, err, argv, cfg)
        assert code == 2 and "contour_radius" in err, (argv, cfg, err)


# a center, or a part of one, that is not a JSON number
@pytest.mark.parametrize("center", ["0", "1+2j", True, [True, 0.0], [0.5, "1"], {"re": "1"}])
@pytest.mark.parametrize("command", ["expand", "converge"])
def test_taylor_center_that_is_not_a_number_is_refused(cfg_path, center, command):
    argv = [command, "--fn", "poly-z", "--format", "csv"]
    argv += ["--max-n", "3"] if command == "expand" else ["--ranks", "0,3"]
    cfg = _config("taylor", {"center": center}, {})
    code, out, err = _call(argv, cfg_path, cfg)
    _check_exit(code, out, err, argv, cfg)
    assert code == 2 and "center must be a number" in err, (argv, cfg, err)


@pytest.mark.parametrize("family", FAMILIES)
@PROPS
@given(data=st.data())
def test_converge_parameters_are_honoured_or_refused(cfg_path, family, data):
    params = data.draw(PARAMS[family], label="params")
    ranks = data.draw(st.lists(_grades(family, params), min_size=1, max_size=4), label="ranks")
    modes = ["sup", "l1", "l2"] if family in LP_FAMILIES else ["sup"]
    mode = data.draw(_mostly(st.sampled_from(modes), st.sampled_from(["l1", "l2", "l3"])),
                     label="mode")
    fname, cover = FINITE[family]
    fn = data.draw(st.sampled_from([fname, f"{fname},zero"]), label="fn")
    fmt = data.draw(st.sampled_from(["csv", "json"]), label="format")
    argv, extra = ["converge", "--fn", fn, "--format", fmt], {}
    if data.draw(st.booleans(), label="ranks as flag"):
        argv += ["--ranks", ",".join(map(str, ranks))]
    else:
        extra["ranks"] = data.draw(_mostly(st.just(ranks), BAD_RANKS), label="config ranks")
    if data.draw(st.booleans(), label="mode as flag"):
        argv += ["--mode", mode]
    else:
        extra["mode"] = mode
    cfg = _config(family, params, extra)
    code, out, err = _call(argv, cfg_path, cfg)
    _check_exit(code, out, err, argv, cfg)
    if extra.get("ranks", ranks) is not ranks:
        assert code == 2, (argv, cfg)
    if code != 0:
        return
    if fmt == "json":
        rows = [(e["k"], e["values"]) for e in json.loads(out)["errors"]]
    else:
        rows = [(int(r[0]), [float(v) for v in r[1:]])
                for r in list(csv.reader(out.splitlines()))[1:]]
    assert [k for k, _ in rows] == ranks
    tol = build_basis(family, params).coefficient_tol
    for k, errs in rows:
        if k >= cover:
            assert max(errs) <= tol, (k, errs, argv, cfg)
