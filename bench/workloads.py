"""Seeded job lists for the benchmark workloads.

Each workload has a fixed list of slots. A slot fixes what sets a job's cost
(family, size, component count, output format); the seed only picks the
functions, the verify seeds, the integrand variants and the order of the
jobs. Every seed therefore asks for about the same work, while the inputs
the program sees change with the seed.

A job is a dict with a ``key`` that names its menu entry. CLI jobs carry an
``argv`` list for ``schauder.cli.main``; library jobs carry an ``op`` and its
parameters, run by ``run_library_job``.
"""

import contextlib
import io
import random
import time

import numpy as np

FAMILIES = ("haar", "hat-dyadic", "ck-dyadic", "hermite", "fourier", "taylor")

# The registry corpus of each family, as shipped; the menu is the
# benchmark's own, so a later change to the registry does not move it.
CORPUS = {
    "haar": ("one", "x", "x2", "cubic", "sin-pi", "cos", "runge", "gauss"),
    "hat-dyadic": ("one", "x", "x2", "cubic", "sin-pi", "cos", "runge", "gauss"),
    "ck-dyadic": ("one", "x", "x2", "cubic", "sin-pi", "cos", "runge", "gauss"),
    "hermite": ("gauss", "xgauss", "h0", "h1", "h2", "h3", "h4", "h5"),
    "fourier": ("one", "sin", "cos", "sin2", "cos2", "trig3", "esin", "invcos"),
    "taylor": ("exp-z", "sin-z", "cos-z", "poly-z", "zexp-z", "gauss-z",
               "inv2-z", "one-z"),
}

# Largest --max-n per family in the expand menu; the reference tables are
# generated at this size and smaller jobs compare against their prefix.
EXPAND_MAX_N = {"haar": 1024, "hat-dyadic": 256, "ck-dyadic": 256,
                "hermite": 64, "fourier": 32, "taylor": 16}

# (family, max_n, components, format). Two thirds are quadrature families
# (cheap, 5-160 ms); one third runs the hat recursion (0.15-1 s). Hat and ck
# at --max-n 384 (2.4-2.9 s a job) would not leave room for three timed
# passes in a run. Sorted by cost, the median falls in the middle of the
# four haar-256 scalar slots and the tail in the middle of the three
# 128-stacks, so neither sits on the edge between two kinds of job.
EXPAND_SLOTS = (
    ("taylor", 16, 1, "csv"), ("taylor", 16, 3, "json"),
    ("fourier", 32, 1, "json"), ("fourier", 32, 3, "csv"),
    ("hermite", 64, 1, "csv"), ("hermite", 64, 3, "json"),
    ("haar", 256, 1, "csv"), ("haar", 256, 1, "json"),
    ("haar", 256, 1, "csv"), ("haar", 256, 1, "json"),
    ("haar", 256, 3, "csv"), ("haar", 1024, 1, "json"),
    ("hat-dyadic", 128, 1, "csv"), ("hat-dyadic", 128, 3, "csv"),
    ("ck-dyadic", 128, 3, "json"), ("hat-dyadic", 128, 3, "json"),
    ("hat-dyadic", 256, 1, "json"), ("ck-dyadic", 256, 1, "csv"),
)

SUP_RANKS = {"haar": "1,4,16,64", "hat-dyadic": "1,4,16,64",
             "ck-dyadic": "1,4,16,64", "hermite": "1,4,16,32",
             "fourier": "1,4,16,32", "taylor": "1,4,8,16"}

# (family, modes the seed picks from, ranks). Sup jobs are cheap; the L^p
# jobs run lp_error over hundreds of segments and make the tail, which falls
# in the middle of the three haar "4,16,64" slots. The median falls between
# the two hat-dyadic sup slots.
CONVERGE_SLOTS = tuple(
    (fam, ("sup",), SUP_RANKS[fam]) for fam in FAMILIES for _ in range(2)
) + (
    ("hat-dyadic", ("l1", "l2"), "4,16,64"),
    ("haar", ("l1", "l2"), "4,16,64"),
    ("haar", ("l1", "l2"), "4,16,64"),
    ("haar", ("l1", "l2"), "4,16,64"),
    ("haar", ("l1", "l2"), "16,64,128"),
    ("hat-dyadic", ("l1", "l2"), "16,64,256"),
)

VERIFY_MAX_N = 16
VERIFY_SEEDS = 100

# One verify job per family, and hat-dyadic twice. Sorted by cost (hat,
# taylor, hermite 40-47, fourier 50-62, haar 56-60, ck 85-100 reference
# kernels) seven jobs put the median inside the cheap cluster; with six it
# would fall on the gap between two families.
VERIFY_SLOTS = FAMILIES + ("hat-dyadic",)

INTEGRAND_VARIANTS = 4

# (op, parameters). Large rules: 64,000 and 262,144 nodes. The tail-bound
# check is listed twice: sorted by cost its two jobs sit between the four
# cheap and the four large-rule jobs, so the median falls inside them.
INTEGRATE_SLOTS = (
    ("weighted_sum", {"rule": "gauss_hermite", "size": 40, "d": 3, "m": 1}),
    ("weighted_sum", {"rule": "gauss_hermite", "size": 40, "d": 3, "m": 3}),
    ("weighted_sum", {"rule": "box", "size": 64, "d": 2, "m": 3}),
    ("integrate_gauss_hermite", {"size": 64, "d": 3, "m": 1}),
    ("integrate_gauss_hermite", {"size": 64, "d": 3, "m": 3}),
    ("integrate_periodic", {"size": 64, "d": 3, "m": 1}),
    ("integrate_periodic", {"size": 64, "d": 3, "m": 3}),
    ("integral_bound_check", {"rule": "box", "size": 64, "d": 2, "m": 3}),
    ("hermite_tail_bound_check", {"n": (2, 1), "inner": 2.0, "outer": 4.0,
                                  "d": 2, "m": 3}),
    ("hermite_tail_bound_check", {"n": (2, 1), "inner": 2.0, "outer": 4.0,
                                  "d": 2, "m": 3}),
)

# Smallest number of timed passes per run. The tail percentile is fixed by
# it (see run.py), so extra passes add samples without moving the level.
MIN_PASSES = {"verify": 3, "expand": 3, "converge": 3, "integrate": 8}

WORKLOADS = tuple(MIN_PASSES)


def _expand_job(fam, max_n, fns, fmt):
    fn = ",".join(fns)
    return {"kind": "cli", "workload": "expand", "family": fam,
            "max_n": max_n, "fns": list(fns), "format": fmt,
            "key": f"expand|{fam}|{fn}|{max_n}|{fmt}",
            "argv": ["expand", "--basis", fam, "--fn", fn,
                     "--max-n", str(max_n), "--format", fmt]}


def _converge_job(fam, fn, mode, ranks):
    return {"kind": "cli", "workload": "converge", "family": fam,
            "fns": [fn], "mode": mode, "ranks": ranks,
            "key": f"converge|{fam}|{fn}|{mode}|{ranks}",
            "argv": ["converge", "--basis", fam, "--fn", fn,
                     "--ranks", ranks, "--mode", mode]}


def _verify_job(fam, seed):
    return {"kind": "cli", "workload": "verify", "family": fam, "seed": seed,
            "key": f"verify|{fam}|{seed}",
            "argv": ["verify", "--basis", fam, "--max-n", str(VERIFY_MAX_N),
                     "--seed", str(seed)]}


def _integrate_job(op, params, variant):
    tag = ",".join(f"{k}={params[k]}" for k in sorted(params))
    return {"kind": "lib", "workload": "integrate", "op": op,
            "params": dict(params), "variant": variant,
            "key": f"integrate|{op}|{tag}|v{variant}"}


def job_list(workload, seed):
    """The job list of one pass: fixed slots, seed-chosen contents and order."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "verify":
        jobs = [_verify_job(fam, rng.randrange(VERIFY_SEEDS)) for fam in VERIFY_SLOTS]
    elif workload == "expand":
        jobs = [_expand_job(fam, max_n, rng.sample(CORPUS[fam], comps), fmt)
                for fam, max_n, comps, fmt in EXPAND_SLOTS]
    elif workload == "converge":
        jobs = [_converge_job(fam, rng.choice(CORPUS[fam]), rng.choice(modes), ranks)
                for fam, modes, ranks in CONVERGE_SLOTS]
    elif workload == "integrate":
        jobs = [_integrate_job(op, params, rng.randrange(INTEGRAND_VARIANTS))
                for op, params in INTEGRATE_SLOTS]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(jobs)
    return jobs


def menu(workload):
    """Every job the workload can draw, for generating reference outputs.

    Expand entries are one scalar table per (family, function) at the
    family's largest --max-n; stacks and smaller sizes are checked against
    them column by column and prefix by prefix.
    """
    if workload == "expand":
        return [_expand_job(fam, EXPAND_MAX_N[fam], [fn], "csv")
                for fam in FAMILIES for fn in CORPUS[fam]]
    if workload == "converge":
        seen = {}
        for fam, modes, ranks in CONVERGE_SLOTS:
            for fn in CORPUS[fam]:
                for mode in modes:
                    job = _converge_job(fam, fn, mode, ranks)
                    seen[job["key"]] = job
        return list(seen.values())
    if workload == "integrate":
        return [_integrate_job(op, params, v) for op, params in INTEGRATE_SLOTS
                for v in range(INTEGRAND_VARIANTS)]
    return []


def setup_plan(jobs):
    """Bases and functions a workload's jobs use, for measuring set-up."""
    bases, fns = {}, set()
    for job in jobs:
        if job["workload"] == "verify":
            params = {"n_max": VERIFY_MAX_N} if job["family"] in (
                "hermite", "fourier", "taylor") else {}
            bases[job["family"]] = params
            fns.update(CORPUS[job["family"]])
        elif job["kind"] == "cli":
            bases[job["family"]] = {}
            fns.update(job["fns"])
    return {"bases": sorted(bases.items()), "fns": sorted(fns)}


# ---------------------------------------------------------------------------
# library jobs (integrate workload)
# ---------------------------------------------------------------------------


def integrand(d, m, variant, periodic=False):
    """A smooth integrand on (k, d) points: shape (k,) for m=1, (k, 3) for m=3."""
    freq = 1.0 + 0.5 * variant
    decay = 0.1 + 0.05 * variant

    def f(x):
        x = np.asarray(x, dtype=float)
        if periodic:
            base = np.exp(0.3 * (1 + variant) * np.cos(x[:, 0]))
            first = base * np.cos(x[:, 1] + x[:, d - 1])
        else:
            base = np.exp(-decay * np.sum(x * x, axis=1))
            first = base * np.cos(freq * x[:, 0])
        if m == 1:
            return first
        return np.stack([first, base * np.sin(x[:, 1]) ** 2,
                         base * x[:, 0] * x[:, d - 1]], axis=-1)

    return f


def value_space(schauder):
    return schauder.ValueSpace(3, seminorms=(
        schauder.SeminormSpec("sup"), schauder.SeminormSpec("euclidean"),
        schauder.SeminormSpec("weighted-sup", (2.0, 1.0, 0.5)),
    ))


def run_library_job(job, schauder, wrap_handle=None):
    """Run one integrate job; returns (passed, values).

    ``passed`` is the job's own bound verdict (True where there is none) and
    ``values`` the flat list of floats compared against the reference.
    ``wrap_handle`` lets the traced run wrap the integrand it builds.
    """
    quad, spec = schauder.quadrature, schauder.spectral_bases
    op, p, v = job["op"], job["params"], job["variant"]
    f = integrand(p["d"], p["m"], v, periodic=op == "integrate_periodic")
    if wrap_handle is not None:
        f = wrap_handle(f)
    if op == "weighted_sum":
        if p["rule"] == "box":
            rule = quad.box_rule(4.0, p["d"], panels=p["size"], order=8)
        else:
            rule = quad.gauss_hermite_rule(p["size"], d=p["d"])
        return True, _flat(quad.weighted_sum(rule.nodes, rule.weights, f))
    if op == "integrate_gauss_hermite":
        return True, _flat(quad.integrate_gauss_hermite(f, p["size"], d=p["d"]))
    if op == "integrate_periodic":
        return True, _flat(quad.integrate_periodic(f, p["size"], d=p["d"]))
    if op == "integral_bound_check":
        rule = quad.box_rule(4.0, p["d"], panels=p["size"], order=8)
        rep = quad.integral_bound_check(f, rule.nodes, rule.weights,
                                        value_space(schauder))
        return rep.passed, _flat(rep.lhs) + _flat(rep.rhs) + [rep.total_weight]
    if op == "hermite_tail_bound_check":
        rep = spec.hermite_tail_bound_check(f, tuple(p["n"]), p["inner"], p["outer"],
                                            d=p["d"], space=value_space(schauder))
        return rep.passed(), _flat(rep.lhs) + _flat(rep.rhs)
    raise ValueError(f"unknown library op {op!r}")


def _flat(x):
    return [float(t) for t in np.atleast_1d(np.asarray(x, dtype=float)).ravel()]


# ---------------------------------------------------------------------------
# running one job
# ---------------------------------------------------------------------------


def run_job(job, schauder, tracer=None):
    """Run one job in-process and time it.

    Returns a dict with ``latency`` (seconds), ``error`` (None, or why the
    job failed: it raised or exited non-zero), ``output`` (the exact text
    the job produced, compared byte for byte across repeats) and the
    parsed pieces the reference check needs.
    """
    res = {"error": None, "stdout": "", "passed": None, "values": None}
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if job["kind"] == "cli":
                code = schauder.cli.main(list(job["argv"]))
            else:
                wrap = tracer.handle if tracer is not None else None
                res["passed"], res["values"] = run_library_job(job, schauder, wrap)
                code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a failing job is counted, and the run goes on
        code = None
        res["error"] = f"raised {type(exc).__name__}: {exc}"
    res["latency"] = time.perf_counter() - t0
    res["stdout"] = out.getvalue()
    if code not in (0, None) and res["error"] is None:
        res["error"] = f"exit code {code}: {err.getvalue().strip()[:200]}"
    res["output"] = f"{code}\n{res['stdout']}{res['passed']!r}{res['values']!r}"
    return res
