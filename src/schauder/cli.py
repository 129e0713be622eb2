"""Command-line interface.

Subcommands
-----------
``bases``     list registered basis families, their parameters, and registry
              functions.
``expand``    coefficient table of a function in a basis, CSV or JSON.
``converge``  partial-sum error table over a list of ranks.
``verify``    run the projection-algebra, biorthogonality, vector/scalar and
              integral-bound suites; JSON report, exit 0 iff everything
              passes.

Exit codes: 0 success, 1 numeric failure (diagnostic JSON on stdout) or a
failed verification, 2 usage and validation errors.  All output is
deterministic: fixed seeds (``--seed`` / SCHAUDER_SEED), sorted JSON keys,
shortest round-trip float formatting, no timestamps.
"""

import argparse
import csv
import functools
import io
import json
import numbers
import os
import sys
from collections import namedtuple

import numpy as np

from . import registry
from .basis_core import (
    biorthogonality_matrix,
    convergence_report,
    semigroup_discrepancies,
    vector_scalar_gap,
)
from .errors import InputError, NumericError
from .functions import SampledFunction
from .interval_bases import CkBasis, DenseSequence, HaarBasis, HatBasis
from .quadrature import _bound_sides, accumulate, samples_of
from .spectral_bases import FourierBasis, HermiteBasis, TaylorBasis
from .value_space import SeminormSpec, ValueSpace


def _number(value, key, kind=int, minimum=None):
    """``kind(value)`` for a config value; bools, strings and, for ``int``, floats are refused."""
    if isinstance(value, bool) or not isinstance(
            value, numbers.Integral if kind is int else numbers.Real):
        noun = "an integer" if kind is int else "a number"
        raise InputError(f"{key} must be {noun}, got {value!r}")
    if minimum is not None and value < minimum:
        raise InputError(f"{key} must be >= {minimum}, got {value}")
    return kind(value)


def _numbers(value, key, kind=float):
    """A config list as a tuple, each entry as ``_number`` takes it."""
    if not isinstance(value, list):
        raise InputError(f"{key} must be a list, got {value!r}")
    return tuple(_number(v, f"{key} entry", kind) for v in value)


def _complex(value, key):
    """A config complex: a real, an ``[re, im]`` pair, or ``{"re": ..., "im": ...}``
    as the JSON emitter writes complex values; each part a number, as ``_number``
    takes it."""
    if isinstance(value, dict):
        value = [value.get("re", 0.0), value.get("im", 0.0)]
    if isinstance(value, (list, tuple)):
        if len(value) != 2:
            raise InputError(f"{key} must be a pair [re, im], got {value!r}")
        return complex(*(_number(v, key, float) for v in value))
    return _number(value, key, float)


def _dyadic(family, **params):
    """``family`` over the dyadic sequence, at the config's ``levels`` if it sets them."""
    levels = {"levels": params.pop("levels")} if "levels" in params else {}
    return family(seq=DenseSequence.dyadic(**levels), **params)


# a --config basis parameter: its doc, JSON kind and least value
Param = namedtuple("Param", "doc kind minimum", defaults=(int, None))
# the constructor owns every default: a parameter the config leaves out is
# not passed, and an explicit null is passed as None
Family = namedtuple("Family", "build doc params")
_LEVELS = Param("dyadic refinement depth (default 11, at most 20)")

FAMILIES = {
    "haar": Family(HaarBasis, "Haar steps on [0,1], indexed from 1", {}),
    "hat-dyadic": Family(functools.partial(_dyadic, HatBasis),
                         "piecewise-linear hats over the dyadic point sequence",
                         {"levels": _LEVELS}),
    "ck-dyadic": Family(functools.partial(_dyadic, CkBasis),
                        "C^k family: jets at 0, then k-fold antiderivatives of hats",
                        {"k": Param("smoothness order (default 2)"), "levels": _LEVELS}),
    "hermite": Family(HermiteBasis, "normalized Hermite functions on the line", {
        "n_max": Param("largest degree (default 64, at most 495)"),
        "quad_size": Param("Gauss-Hermite size override (n_max + 1 to 1000)", minimum=1)}),
    "fourier": Family(FourierBasis, "exponential modes on [-pi, pi]", {
        "n_max": Param("largest mode (default 32)"),
        "grid_size": Param("rectangle-rule size override", minimum=1)}),
    "taylor": Family(TaylorBasis, "Taylor monomials with contour-average coefficients", {
        "center": Param("expansion point (re or [re, im], default 0)", complex),
        "radius": Param("disc radius (default inf)", float),
        "contour_radius": Param("averaging circle radius (default 1)", float),
        "n_max": Param("largest order (default 16)"),
        "contour_points": Param("contour size override (power of 2)", minimum=1)}),
}


def build_basis(name, params=None):
    """Construct a registered basis family from a parameter mapping; a bad
    value is reported before an unknown key."""
    params = dict(params or {})
    family = FAMILIES.get(name)
    if family is None:
        raise InputError(f"unknown basis {name!r}; known: {', '.join(sorted(FAMILIES))}")
    given = {key: params.pop(key) for key in family.params if key in params}
    try:
        for key, value in given.items():
            param, label = family.params[key], f"basis parameter {key}"
            if value is not None:
                given[key] = (_complex(value, label) if param.kind is complex
                              else _number(value, label, param.kind, param.minimum))
        basis = family.build(**given)
    except (TypeError, ValueError) as exc:
        raise InputError(f"bad parameters for basis {name!r}: {exc}")
    if params:
        # a typo here would otherwise change the math silently
        raise InputError(
            f"unknown parameter(s) for basis {name!r}: {', '.join(sorted(params))}; "
            f"known: {', '.join(sorted(family.params)) or 'none'}"
        )
    return basis


def resolve_function(spec_value, basis=None):
    """Turn a --fn value into a handle: registry name, stack, or sample file."""
    if isinstance(spec_value, (list, tuple)):
        return registry.vector_stack([resolve_function(s) for s in spec_value])
    if isinstance(spec_value, str) and os.path.exists(spec_value):
        if isinstance(basis, CkBasis) and basis.k:
            # a chord interpolant has no meaningful derivatives to read jets from
            raise InputError(
                f"ck-dyadic needs exact derivatives, which the sampled data in "
                f"{spec_value} does not have; expand it in hat-dyadic instead"
            )
        return _load_samples(spec_value)
    if isinstance(spec_value, str) and "," in spec_value:
        return registry.vector_stack(
            [resolve_function(s.strip()) for s in spec_value.split(",")]
        )
    return registry.get(spec_value)


def _load_samples(path):
    with open(path) as fh:
        if path.endswith(".json"):
            data = json.load(fh)
            try:
                return SampledFunction(data["x"], data["values"])
            except (KeyError, TypeError) as exc:
                raise InputError(f"malformed sample file {path}: {exc}")
        rows = list(csv.reader(fh))
    body = rows[1:] if rows and not _is_number(rows[0][0]) else rows
    try:
        xs = [float(r[0]) for r in body]
        vals = [[float(c) for c in r[1:]] for r in body]
    except (ValueError, IndexError) as exc:
        raise InputError(f"malformed sample file {path}: {exc}")
    vals = [v[0] for v in vals] if all(len(v) == 1 for v in vals) else vals
    return SampledFunction(xs, vals)


def _is_number(s):
    try:
        float(s)
        return True
    except ValueError:
        return False


def _known_keys(obj, where, known):
    """Refuse a config object with a key outside ``known``: a typo would
    otherwise change the math silently."""
    unknown = sorted(set(obj) - set(known))
    if unknown:
        raise InputError(f"unknown key(s) in {where}: {', '.join(unknown)}; known: {', '.join(known)}")


def build_value_space(cfg, basis, f):
    """The value space of ``cfg``; its dimension defaults to the width of
    f's values at the basis's first sample point.  A value of the wrong JSON
    kind and an unknown key, in ``cfg`` or in a seminorm, are refused before
    f runs, naming the key."""
    cfg = {} if cfg is None else cfg
    if not isinstance(cfg, dict):
        raise InputError(f"value_space must be a JSON object, got {cfg!r}")
    specs = cfg.get("seminorms", [{"kind": "sup"}])
    if not isinstance(specs, list) or not all(isinstance(s, dict) and "kind" in s for s in specs):
        raise InputError(f"value_space seminorms must be a list of objects with a kind, got {specs!r}")
    _known_keys(cfg, "value_space", ("dimension", "field", "seminorms"))
    for s in specs:
        _known_keys(s, "value_space seminorm", ("kind", "weights"))
    if "dimension" in cfg:
        dimension = _number(cfg["dimension"], "value_space dimension")
    else:
        first = np.asarray(f(basis.sample_points()[:1]))
        dimension = first.shape[1] if first.ndim == 2 else 1
    seminorms = [SeminormSpec(s["kind"], _numbers(s["weights"], "value_space seminorm weights")
                              if s.get("weights") else None) for s in specs]
    return ValueSpace(dimension, field=cfg.get("field", basis.field), seminorms=seminorms)


# ---------------------------------------------------------------------------
# formatting
# ---------------------------------------------------------------------------


def _py(obj):
    """Recursively convert numpy scalars/arrays for JSON emission."""
    if isinstance(obj, dict):
        return {k: _py(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_py(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_py(v) for v in obj.tolist()]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (np.complexfloating, complex)):
        return {"re": float(obj.real), "im": float(obj.imag)}
    return obj


def _json(obj):
    """``json.dumps(_py(obj), sort_keys=True, indent=2)``.  A string under
    ``"coefficients"``, expand's table from ``_coefficient_json``, is
    written as it is."""
    table = obj.get("coefficients")
    if not isinstance(table, str):
        return json.dumps(_py(obj), sort_keys=True, indent=2)
    # keys are sorted: only "basis", a registry name, can precede the slot
    text = json.dumps(_py(dict(obj, coefficients="%s")), sort_keys=True, indent=2)
    return text.replace('"coefficients": "%s"', '"coefficients": ' + table, 1)


def _index_columns(idx):
    return list(idx) if isinstance(idx, tuple) else [idx]


def _coefficient_json(idxs, values):
    """The text ``json.dumps`` writes for expand's rows
    ``{"index": _index_columns(i), "value": row}`` as a report's
    ``"coefficients"`` value, in one pass.

    The stdlib C encoder writes every index column and value (a complex one
    as its im, then re part) from one flat list; no number's text holds
    ``", "``.  The texts fill a %-template: ``json.dumps`` of one row whose
    number slots are the string ``"%s"``, unquoted and indented to depth 2.
    """
    count, width = values.shape
    complex_vals = np.iscomplexobj(values)
    if complex_vals:
        # sorted keys put im before re
        values = np.stack([values.imag, values.real], axis=-1).reshape(count, -1)
    row = json.dumps({"index": ["%s"] * len(_index_columns(idxs[0])),
                      "value": [{"im": "%s", "re": "%s"} if complex_vals else "%s"] * width},
                     sort_keys=True, indent=2)
    row = row.replace('"%s"', "%s").replace("\n", "\n    ")
    flat = []
    for idx, vals in zip(idxs, values.tolist()):
        flat += _index_columns(idx)
        flat += vals
    rows = ",\n    ".join([row] * count) % tuple(json.dumps(flat)[1:-1].split(", "))
    return "[\n    " + rows + "\n  ]"


def _coefficient_table(idxs, values):
    """(header, rows) for a coefficient table; ``values`` has one row per
    index and one column per component, complex columns split into re, im."""
    dim = len(_index_columns(idxs[0]))
    head = ["n"] if dim == 1 else [f"n{i + 1}" for i in range(dim)]
    width = values.shape[1]
    complex_vals = np.iscomplexobj(values)
    for i in range(width):
        tag = f"_{i}" if width > 1 else ""
        head.extend([f"re{tag}", f"im{tag}"] if complex_vals else [f"value{tag}"])
    if complex_vals:
        values = np.stack([values.real, values.imag], axis=-1).reshape(len(idxs), -1)
    return head, [_index_columns(i) + row for i, row in zip(idxs, values.tolist())]


def _emit_csv(header, rows, stream):
    """Rows of Python ints and floats: the csv module writes ints with
    ``str`` and floats with ``repr``, the shortest round-trip decimal."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


def _emit(payload_json, csv_pair, fmt, output):
    if fmt == "json":
        text = _json(payload_json) + "\n"
    else:
        buf = io.StringIO()
        _emit_csv(csv_pair[0], csv_pair[1], buf)
        text = buf.getvalue()
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_bases(args):
    bases = {name: {"doc": family.doc, "params": {k: p.doc for k, p in family.params.items()}}
             for name, family in FAMILIES.items()}
    _emit({"bases": bases, "functions": registry.describe()}, None, "json", args.output)
    return 0


def _cmd_expand(args, basis_params):
    basis = build_basis(args.basis, basis_params)
    f = resolve_function(args.fn, basis)
    idxs = basis.indices(args.max_n)
    if not idxs:
        raise InputError(f"no indices of grade <= {args.max_n}")
    # one row per index, one column per component
    values = basis.coefficients(f, idxs).reshape(len(idxs), -1)
    # build only what the chosen format emits
    if args.format == "json":
        payload, table = {
            "command": "expand",
            "basis": args.basis,
            "fn": args.fn,
            "max_n": args.max_n,
            "coefficients": _coefficient_json(idxs, values),
        }, None
    else:
        payload, table = None, _coefficient_table(idxs, values)
    _emit(payload, table, args.format, args.output)
    return 0


def _cmd_converge(args, cfg, basis_params):
    basis = build_basis(args.basis, basis_params)
    f = resolve_function(args.fn, basis)
    space = build_value_space(cfg.get("value_space"), basis, f)
    mode = {"sup": ("sup", 1), "l1": ("lp", 1), "l2": ("lp", 2)}[args.mode]
    report = convergence_report(basis, f, args.ranks, space=space,
                                mode=mode[0], p=mode[1])
    labels = space.seminorm_labels()
    header = ["k"] + [f"err_{lab}" for lab in labels]
    rows = [[k] + errs.tolist() for k, errs in report]
    payload = {
        "command": "converge",
        "basis": args.basis,
        "fn": args.fn,
        "mode": args.mode,
        "errors": [{"k": int(k), "values": errs} for k, errs in report],
        "seminorms": labels,
    }
    _emit(payload, (header, rows), args.format, args.output)
    return 0


VERIFY_BASES = tuple(FAMILIES)


def _verify_basis(name, max_n):
    basis = build_basis(name, {"n_max": max_n} if "n_max" in FAMILIES[name].params else None)
    corpus = registry.corpus(basis.name)
    tol_semigroup = 1e-10
    # the corpus is one K^8-valued function; component i is function i
    per_function = semigroup_discrepancies(
        basis, registry.vector_stack([f for _, f in corpus]), max_n
    )
    worst_name, worst = "", 0.0
    for (fname, _), d in zip(corpus, per_function):
        d = float(d)
        if d > worst:
            worst_name, worst = fname, d
    count = min(max_n, 20)
    bio = biorthogonality_matrix(basis, count)
    bio_gap = float(np.max(np.abs(bio - np.eye(count))))
    bio_tol = max(basis.coefficient_tol, 1e-12)
    stack = registry.vector_stack([f for _, f in corpus[:3]])
    vs_worst = vector_scalar_gap(basis, stack, basis.indices(min(max_n, 8)), 3)
    checks = {
        "projection_algebra": {
            "max_discrepancy": worst, "worst_function": worst_name,
            "tol": tol_semigroup, "pass": worst <= tol_semigroup,
        },
        "biorthogonality": {
            "count": count, "max_gap": bio_gap, "tol": bio_tol,
            "pass": bio_gap <= bio_tol,
        },
        "vector_scalar": {
            "components": 3, "max_gap": vs_worst, "tol": 1e-12,
            "pass": vs_worst <= 1e-12,
        },
    }
    return checks


def _verify_integral_bound(rng, trials=25):
    """The bound of ``trials`` random positive rules, each with its own
    integrand, checked in one pass: the integrands run once on the
    concatenated nodes, and rule t is column t of one zero-padded block
    (padding adds exact zeros, and the seminorms take |.|)."""
    space = ValueSpace(2, seminorms=(
        SeminormSpec("sup"), SeminormSpec("euclidean"),
        SeminormSpec("weighted-sup", (2.0, 1.0)),
    ))
    draws = []
    for _ in range(trials):
        npts = int(rng.integers(3, 40))
        nodes = np.sort(rng.uniform(-1.0, 2.0, npts))
        weights = rng.uniform(0.01, 1.0, npts)
        draws.append((nodes, weights, rng.uniform(-2.0, 2.0, 3)))
    nodes, weights, abc = zip(*draws)
    counts = np.array([len(w) for w in weights])
    starts = np.cumsum(counts) - counts
    a, b, c = np.repeat(abc, counts, axis=0).T
    samples = samples_of(
        lambda x: np.stack([a * np.sin(x) + b * x, c * np.cos(2 * x)], axis=-1),
        np.concatenate(nodes))
    col = np.repeat(np.arange(trials), counts)
    row = np.arange(len(col)) - starts[col]
    block_w = np.zeros((counts.max(), trials))
    block_w[row, col] = np.concatenate(weights)
    block = np.zeros((counts.max(), trials, 2))
    block[row, col] = samples
    lhs, rhs = _bound_sides(space, accumulate(block_w, block),
                           np.maximum.reduceat(space.seminorm_table(samples), starts),
                           [float(np.sum(w)) for w in weights])
    worst = float(np.max(lhs - rhs))
    return {
        "trials": trials, "max_violation": worst, "slack": 1e-12,
        "pass": worst <= 1e-12,
    }


def _cmd_verify(args):
    seed = args.seed if args.seed is not None else int(
        os.environ.get("SCHAUDER_SEED", "0")
    )
    if args.max_n < 1:
        raise InputError(f"--max-n must be >= 1 for verify, got {args.max_n}")
    rng = np.random.default_rng(seed)
    names = [args.basis] if args.basis else list(VERIFY_BASES)
    for n in names:
        if n not in FAMILIES:
            raise InputError(f"unknown basis {n!r}")
    report = {"command": "verify", "seed": seed, "max_n": args.max_n,
              "bases": {}, "quadrature": {}}
    for name in names:
        report["bases"][name] = _verify_basis(name, args.max_n)
    report["quadrature"]["integral_bound"] = _verify_integral_bound(rng)
    ok = all(
        chk["pass"]
        for per_basis in report["bases"].values()
        for chk in per_basis.values()
    ) and report["quadrature"]["integral_bound"]["pass"]
    report["pass"] = ok
    _emit(report, None, "json", args.output)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------


def _parse_ranks(text):
    try:
        ranks = [int(t) for t in text.split(",") if t.strip() != ""]
    except ValueError:
        raise InputError(f"bad rank list {text!r}; expected e.g. 1,2,4,8")
    if not ranks or any(r < 0 for r in ranks):
        raise InputError("ranks must be nonnegative integers")
    return ranks


_CHOICES = {"format": ("csv", "json"), "mode": ("sup", "l1", "l2")}


@functools.cache
def make_parser():
    """The argument parser, built once: ``parse_args`` leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="schauder",
        description="Basis expansions with verified projection algebra.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bases", help="list basis families and functions")
    p.add_argument("--output")

    for cmd in ("expand", "converge"):
        p = sub.add_parser(cmd)
        p.add_argument("--basis")
        p.add_argument("--fn",
                       help="registry name, comma list (vector), or sample file")
        p.add_argument("--config", help="JSON job configuration file")
        p.add_argument("--format", choices=_CHOICES["format"])
        p.add_argument("--output")
        if cmd == "expand":
            p.add_argument("--max-n", type=int, dest="max_n")
        else:
            p.add_argument("--ranks")
            p.add_argument("--mode", choices=_CHOICES["mode"])

    p = sub.add_parser("verify", help="run the module property suites")
    p.add_argument("--basis")
    p.add_argument("--max-n", type=int, dest="max_n")
    p.add_argument("--seed", type=int)
    p.add_argument("--config")
    p.add_argument("--output")
    return parser


# config keys the parser would take as text; format and mode are checked as choices
_TEXT = {"basis": "a string or an object with a string name",
         "fn": "a string or a list of strings", "output": "a string"}
_DEFAULTS = {"format": "csv", "max_n_expand": 8, "max_n_verify": 16,
             "ranks": "1,2,4,8,16", "mode": "sup"}


def _merge_config(args, parser):
    """Layer values: explicit flag > config file > built-in default.

    Returns the config and, beside it, the basis parameters its ``"basis"``
    object carries (empty for a plain name)."""
    cfg, basis_params = {}, {}
    if getattr(args, "config", None):
        with open(args.config) as fh:
            cfg = json.load(fh)
        if not isinstance(cfg, dict):
            raise InputError("job configuration must be a JSON object")
    basis_cfg = cfg.get("basis")
    if isinstance(basis_cfg, dict):
        # both inline ({"name": ..., "center": ...}) and nested
        # ({"name": ..., "params": {...}}) spellings are accepted
        basis_params = {k: v for k, v in basis_cfg.items() if k != "name"}
        if "params" in basis_params:
            nested = basis_params.pop("params")
            if not isinstance(nested, dict):
                raise InputError(f"basis params must be a JSON object, got {nested!r}")
            basis_params.update(nested)
        basis_cfg = basis_cfg.get("name")
    for key, value in (("basis", basis_cfg), ("fn", cfg.get("fn")),
                       ("format", cfg.get("format")), ("mode", cfg.get("mode")),
                       ("output", cfg.get("output"))):
        if value is None:
            continue
        if key in _TEXT and not (isinstance(value, str) or key == "fn" and isinstance(
                value, list) and all(isinstance(v, str) for v in value)):
            raise InputError(f"config {key} must be {_TEXT[key]}, got {value!r}")
        if getattr(args, key, None) is None:
            setattr(args, key, value)
    if getattr(args, "max_n", None) is None and "max_n" in cfg:
        args.max_n = _number(cfg["max_n"], "max_n")
    if getattr(args, "ranks", None) is None and "ranks" in cfg:
        args.ranks = ",".join(map(str, _numbers(cfg["ranks"], "ranks", int)))
    for key in ("format", "mode", "ranks"):
        if hasattr(args, key) and getattr(args, key) is None:
            setattr(args, key, _DEFAULTS[key])
    for key, allowed in _CHOICES.items():
        # the parser checks flags; config values arrive unchecked
        if getattr(args, key, allowed[0]) not in allowed:
            raise InputError(f"{key} must be one of {', '.join(allowed)}, got {getattr(args, key)!r}")
    if getattr(args, "max_n", None) is None and hasattr(args, "max_n"):
        args.max_n = (_DEFAULTS["max_n_verify"] if args.command == "verify"
                      else _DEFAULTS["max_n_expand"])
    if args.command in ("expand", "converge"):
        if not getattr(args, "basis", None):
            raise InputError("--basis is required (flag or config)")
        if not getattr(args, "fn", None):
            raise InputError("--fn is required (flag or config)")
    return cfg, basis_params


def main(argv=None):
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        cfg, basis_params = _merge_config(args, parser)
        if args.command == "bases":
            return _cmd_bases(args)
        if args.command == "expand":
            return _cmd_expand(args, basis_params)
        if args.command == "converge":
            args.ranks = _parse_ranks(args.ranks)
            return _cmd_converge(args, cfg, basis_params)
        if args.command == "verify":
            return _cmd_verify(args)
        parser.error(f"unknown command {args.command!r}")
    except InputError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except NumericError as exc:
        diagnostic = {"error": "numeric", "message": str(exc), "node": _py(exc.node)}
        sys.stdout.write(json.dumps(diagnostic, sort_keys=True) + "\n")
        return 1
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
