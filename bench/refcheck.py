"""Output checks against the reference outputs in ``reference.json``.

The reference holds, for every menu entry, the output the program gave when
the benchmark was defined. ``check`` returns an error string for a job whose
output does not match, or None.

* expand: each table column must match the scalar reference of its function,
  as a prefix, within the family's coefficient tolerance;
* converge and integrate: values within ``ATOL + RTOL * |reference|``;
* verify: exit 0 and ``"pass"`` true (byte identity across repeats is checked
  by the runner).
"""

import csv
import io
import json
import math
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference.json"

COEFFICIENT_TOL = {"hat-dyadic": 1e-12, "ck-dyadic": 1e-12, "haar": 1e-8,
                   "hermite": 1e-8, "fourier": 1e-8, "taylor": 1e-10}
COMPLEX_FAMILIES = ("fourier", "taylor")
ATOL = 1e-12
RTOL = 1e-9


def load_reference(path=REFERENCE):
    with open(path) as fh:
        return json.load(fh)


def expand_ref_key(family, fn):
    return f"{family}|{fn}"


def parse_expand(text, fmt, family):
    """(indices, rows) of an expand table; a row holds one value per component.

    Complex values are (re, im) pairs.
    """
    cplx = family in COMPLEX_FAMILIES
    if fmt == "json":
        payload = json.loads(text)
        idx, rows = [], []
        for entry in payload["coefficients"]:
            idx.append(int(entry["index"][0]))
            vals = entry["value"]
            rows.append([(v["re"], v["im"]) if cplx else float(v) for v in vals])
        return idx, rows
    lines = list(csv.reader(io.StringIO(text)))
    idx, rows = [], []
    for line in lines[1:]:
        idx.append(int(line[0]))
        nums = [float(c) for c in line[1:]]
        if cplx:
            rows.append(list(zip(nums[0::2], nums[1::2])))
        else:
            rows.append(nums)
    return idx, rows


def _close(value, ref, atol, rtol=0.0):
    return math.isfinite(value) and abs(value - ref) <= atol + rtol * abs(ref)


def check_expand(job, text, ref):
    fam = job["family"]
    idx, rows = parse_expand(text, job["format"], fam)
    tol = COEFFICIENT_TOL[fam]
    for comp, fn in enumerate(job["fns"]):
        entry = ref["expand"][expand_ref_key(fam, fn)]
        want = [i for i in entry["index"] if abs(i) <= job["max_n"]]
        if idx != want:
            return f"{fn}: indices differ from the reference"
        for pos, row in enumerate(rows):
            if len(row) != len(job["fns"]):
                return f"row {pos} has {len(row)} components"
            got, exp = row[comp], entry["value"][pos]
            pairs = zip(got, exp) if isinstance(exp, list) else [(got, exp)]
            for g, e in pairs:
                if not _close(g, e, tol):
                    return f"{fn} coefficient {idx[pos]}: {g!r} vs reference {e!r}"
    return None


def parse_converge(text):
    lines = list(csv.reader(io.StringIO(text)))
    return [[float(c) for c in line] for line in lines[1:]]


def check_values(got, want):
    if len(got) != len(want):
        return f"{len(got)} values vs {len(want)} in the reference"
    for g, w in zip(got, want):
        if not _close(g, w, ATOL, RTOL):
            return f"value {g!r} vs reference {w!r}"
    return None


def check_converge(job, text, ref):
    want = ref["converge"].get(job["key"])
    if want is None:
        return "no reference for this job"
    rows = parse_converge(text)
    if len(rows) != len(want):
        return f"{len(rows)} rows vs {len(want)} in the reference"
    for got, exp in zip(rows, want):
        err = check_values(got, exp)
        if err:
            return f"rank {exp[0]}: {err}"
    return None


def check_verify(text):
    report = json.loads(text)
    if report.get("pass") not in (True, 1):
        return "verify report does not pass"
    return None


def check(job, result, ref):
    """None if the job's result is correct, else a short reason."""
    if result["error"]:
        return result["error"]
    try:
        if job["kind"] == "lib":
            if not result["passed"]:
                return "bound check failed"
            want = ref["integrate"].get(job["key"])
            if want is None:
                return "no reference for this job"
            return check_values(result["values"], want)
        if job["workload"] == "verify":
            return check_verify(result["stdout"])
        if job["workload"] == "expand":
            return check_expand(job, result["stdout"], ref)
        return check_converge(job, result["stdout"], ref)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"
