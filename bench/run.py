"""The schauder benchmark.

    python3 bench/run.py --workload expand --seed 1 --seconds 28 --trace 0

Runs one workload's seeded job list against the program in ``src/`` of
this checkout, in-process and in a closed loop (one client; the next job
starts when the previous one returns), with BLAS threads pinned to 1. CLI
jobs go through ``schauder.cli.main(argv)`` with stdout captured; library
jobs call the public functions. Every job's output is checked against
``reference.json`` and against its own earlier output in the run.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``. Job
times are reported in units of a fixed reference kernel (``ref-kernel``),
timed right before and after each job: a shared 2-core VM was measured
changing speed by 1.4-1.7x for tens of seconds at a time, and the ratio
cancels most of that. ``setup_s`` is a set-up's cost in reference
kernels converted back to seconds at the kernel's quiet-host time. The raw
seconds are printed and kept in the record beside them.
``--trace 1`` alternates traced and untraced passes and reports the
per-layer metrics, built from spans recorded by wrapping the program's
public functions (see ``spans.py``).

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. Spans and the full result go to
``bench/out/``.
"""

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import gzip  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import refcheck  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_FIRST = 3  # set-ups before the first timed pass; one follows each pass
TAIL_BEYOND = 10

SETUP_CODE = r"""
import sys, time
t0 = time.perf_counter()
import json
sys.path.insert(0, sys.argv[1])
import schauder
from schauder import cli
plan = json.loads(sys.argv[2])
for name, params in plan["bases"]:
    cli.build_basis(name, params)
for fn in plan["fns"]:
    cli.resolve_function(fn)
print(repr(time.perf_counter() - t0))
"""


def import_program():
    """Import schauder from this checkout's src/, and nowhere else."""
    sys.path.insert(0, str(SRC))
    import schauder
    import schauder.cli  # noqa: F401  (loads cli and registry)

    where = Path(schauder.__file__).resolve().parent
    if where != (SRC / "schauder").resolve():
        raise ImportError(f"schauder imported from {where}, not from {SRC}")
    return schauder


def setup_once(plan):
    """Set up once in a fresh interpreter, timing the reference kernel around it.

    Returns the set-up's seconds and its cost in reference kernels.
    """
    before = reference_kernel_s()
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(SRC), json.dumps(plan)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    after = reference_kernel_s()
    if proc.returncode != 0:
        raise RuntimeError(f"set-up interpreter failed: {proc.stderr.strip()[-300:]}")
    seconds = float(proc.stdout.strip().splitlines()[-1])
    return seconds, seconds / (0.5 * (before + after))


# setup_s is reported in seconds at reference speed: set-up cost in
# reference kernels times the kernel's quiet-host time (see
# reference_kernel_s).
REF_KERNEL_S = 0.0125

_SMALL = np.linspace(0.0, 1.0, 4096)
_LARGE = np.linspace(0.0, 1.0, 1 << 18)
_WEIGHTS = np.linspace(0.1, 1.0, 2000)
_ROWS = np.linspace(0.0, 1.0, 6000).reshape(2000, 3)


def reference_kernel_s():
    """Time one run of the reference kernel, the benchmark's unit of time.

    A fixed, equal-share mix of the kinds of work the program does: a loop
    accumulating numpy rows one at a time, interpreter float and integer
    loops, many small-array numpy calls and one pass over a 2 MiB array.
    On the shared 2-core x86 VM it was written on it took 12-13 ms when
    the host was quiet and up to 1.7 times that when it was busy.
    """
    t0 = time.perf_counter()
    acc = np.zeros(3)
    for i in range(2000):
        acc = acc + _WEIGHTS[i] * _ROWS[i]
    x = 0.0
    for i in range(30000):
        x += (i * 0.5) ** 0.5 * 1.0001
    k = 0
    for i in range(40000):
        k += i * i % 7
    y = _SMALL
    for _ in range(40):
        y = np.sin(y) * 0.5 + np.sqrt(y + 1.0)
    np.exp(-_LARGE * _LARGE) * np.cos(_LARGE)
    return time.perf_counter() - t0


def calibration_s():
    """Median reference-kernel time now, to show how fast the host runs."""
    return statistics.median(reference_kernel_s() for _ in range(9))


def environment():
    src_lines = sum(p.read_text().count("\n")
                    for p in sorted((SRC / "schauder").glob("*.py")))
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "src_lines": src_lines,
        "calibration_s": calibration_s(),
    }


class Pass:
    """One pass over the job list: per-job seconds and reference kernels."""

    def __init__(self, seconds, refs, kernel):
        self.seconds = seconds
        self.refs = refs
        self.kernel = kernel
        self.wall = sum(seconds)
        self.cost = sum(refs)


class Run:
    """One benchmark run: passes over the job list and their checks."""

    def __init__(self, schauder, jobs, ref):
        self.schauder = schauder
        self.jobs = jobs
        self.ref = ref
        self.first_output = {}
        self.attempted = 0
        self.failures = []  # one line per failed job
        self.problems = []  # run-level check failures

    def run_pass(self, tracer=None):
        """Run the job list once, timing the reference kernel between jobs.

        Returns a ``Pass``: each job's latency in seconds and in reference
        kernels (its seconds over the mean of the kernel times just before
        and just after it).
        """
        gc.collect()
        results = []
        kernel = [reference_kernel_s()]
        for i, job in enumerate(self.jobs):
            with tracer.job_span(i) if tracer else contextlib.nullcontext():
                results.append(workloads.run_job(job, self.schauder, tracer))
            kernel.append(reference_kernel_s())
        for job, res in zip(self.jobs, results):
            self._check(job, res)
        seconds = [r["latency"] for r in results]
        refs = [t / (0.5 * (kernel[i] + kernel[i + 1])) for i, t in enumerate(seconds)]
        return Pass(seconds, refs, kernel)

    def run_traced_pass(self):
        """One pass with spans recorded; returns (pass, layer table, spans)."""
        tracer = spans.Tracer()
        tracer.install(self.schauder)
        try:
            done = self.run_pass(tracer)
        finally:
            tracer.uninstall()
        return done, spans.layer_totals(tracer.spans), tracer.spans

    def _check(self, job, res):
        self.attempted += 1
        why = refcheck.check(job, res, self.ref)
        earlier = self.first_output.setdefault(job["key"], res["output"])
        if why is None and earlier != res["output"]:
            why = "output differs from this job's earlier output in the run"
        if why is not None:
            self.failures.append(f"{job['key']}: {why}")


def tail(latencies, level):
    ordered = sorted(latencies)
    return ordered[max(0, math.ceil(level * len(ordered)) - 1)]


def run_untraced(run, deadline, min_passes, plan):
    """Timed passes, each followed by one set-up measurement.

    Spread over the run, the set-ups' median follows the host's speed over
    the whole run rather than over the few seconds at its start.
    """
    setups = [setup_once(plan) for _ in range(SETUP_FIRST)]
    passes, started = [], time.perf_counter()
    while len(passes) < min_passes or (
            time.perf_counter() + (time.perf_counter() - started) / len(passes)
            <= deadline):
        passes.append(run.run_pass())
        setups.append(setup_once(plan))
    return passes, setups


def run_traced(run, deadline):
    """Alternate traced and untraced passes: at least traced, untraced, traced."""
    traced, untraced, tables, first_spans = [], [], [], None
    started = time.perf_counter()
    while len(traced) < 2 or not untraced or (
            time.perf_counter() + (time.perf_counter() - started) / len(traced + untraced)
            <= deadline):
        if len(traced) <= len(untraced):
            done, table, span_list = run.run_traced_pass()
            traced.append(done)
            tables.append(table)
            first_spans = first_spans or span_list
        else:
            untraced.append(run.run_pass())
    return traced, untraced, tables, first_spans


# (span name, fields): the metric ``<span>.<field>`` is the span's call
# count for "calls", its summed self time for "self_s", its inclusive time
# for "total_s", else its work count. ``total_s`` is kept for the layer each
# workload is predicted to spend its time in.
COLUMNS = {"calls": 0, "self_s": 2, "total_s": 3}
LAYER_FIELDS = (
    ("quadrature.weighted_sum", ("calls", "nodes", "self_s", "total_s")),
    ("quadrature.rule_build", ("calls", "self_s")),
    (spans.HANDLE, ("calls", "points", "self_s")),
    ("basis_core.synthesis", ("calls", "term_points", "self_s")),
    ("basis_core.semigroup", ("self_s", "total_s")),
    ("basis_core.biorthogonality", ("self_s",)),
    ("basis_core.vector_scalar", ("self_s",)),
    ("basis_core.materialize", ("calls",)),
    ("interval_bases.hat_coefficients", ("calls", "self_s", "total_s")),
    ("interval_bases.lp_error", ("calls", "segments", "self_s", "total_s")),
    ("interval_bases.piecewise", ("points", "self_s")),
    ("spectral_bases.taylor_coefficients", ("calls", "self_s")),
    ("spectral_bases.hermite_tail_bound", ("self_s",)),
    ("value_space.seminorm_table", ("rows", "self_s")),
    (spans.EMIT, ("bytes", "self_s")),
    ("cli.build_basis", ("self_s",)),
)


def layer_metrics(tables, traced, untraced):
    """Per-layer metrics: counts from the first traced pass, median times."""
    def value(span, field):
        col = COLUMNS.get(field, 1)
        if col >= 2:
            return statistics.median(t.get(span, (0, 0, 0.0, 0.0))[col] for t in tables)
        return tables[0].get(span, (0, 0, 0.0, 0.0))[col]

    m = {f"{span}.{field}": value(span, field)
         for span, fields in LAYER_FIELDS for field in fields}
    for fam in workloads.FAMILIES:
        for field in ("calls", "self_s"):
            m[f"basis_core.coefficient.{field}.{fam}"] = value(
                f"basis_core.coefficient.{fam}", field)
    coeff_calls = sum(m[f"basis_core.coefficient.calls.{fam}"] for fam in workloads.FAMILIES)
    nodes = m["quadrature.weighted_sum.nodes"]
    m["quadrature.ns_per_node"] = (
        1e9 * m["quadrature.weighted_sum.self_s"] / nodes if nodes else 0.0)
    m["functions.points_per_coeff"] = (
        m[f"{spans.HANDLE}.points"] / coeff_calls if coeff_calls else 0.0)
    m["bench.unattributed.self_s"] = value(spans.JOB, "self_s")
    m["trace.spans"] = sum(row[0] for row in tables[0].values())
    m["trace.overhead_frac"] = (statistics.median(p.cost for p in traced)
                                / statistics.median(p.cost for p in untraced) - 1.0)
    return m


def load_metric_units():
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def write_out(name, record, span_list):
    """Keep the full record (and the first traced pass's spans) in bench/out/."""
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{name}.json", "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    if span_list is not None:
        with gzip.open(OUT / f"{name}.spans.jsonl.gz", "wt") as fh:
            for sid, (parent, sname, t0, t1, work, job) in enumerate(span_list):
                fh.write(json.dumps({"id": sid, "parent": parent, "name": sname,
                                     "start": t0, "end": t1, "work": work,
                                     "job": job}) + "\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        schauder = import_program()
        e2e_units, layer_units = load_metric_units()
        ref = refcheck.load_reference()
    except (ImportError, OSError, ValueError) as exc:
        sys.stderr.write(f"error: cannot start the benchmark: {exc}\n")
        return 2

    deadline = time.perf_counter() + args.seconds
    jobs = workloads.job_list(args.workload, args.seed)
    env = environment()
    print("env " + json.dumps(env, sort_keys=True), flush=True)
    run = Run(schauder, jobs, ref)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "env": env,
              "jobs": [j["key"] for j in jobs]}
    span_list = None

    if args.trace == 0:
        run.run_pass()  # warm-up, untimed
        min_passes = workloads.MIN_PASSES[args.workload]
        passes, setups = run_untraced(run, deadline, min_passes, workloads.setup_plan(jobs))
        level = 1.0 - TAIL_BEYOND / (len(jobs) * min_passes)
        refs = [r for p in passes for r in p.refs]
        values = {
            "setup_s": REF_KERNEL_S * statistics.median(r for _, r in setups),
            "pass_cost": sum(statistics.median(p.refs[i] for p in passes)
                             for i in range(len(jobs))),
            "job_cost.p50": statistics.median(refs),
            "job_cost.tail": tail(refs, level),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = e2e_units
        lats = [t for p in passes for t in p.seconds]
        seconds = {"wall_s": statistics.median(p.wall for p in passes),
                   "job_s.p50": statistics.median(lats), "job_s.tail": tail(lats, level),
                   "setup_raw_s": statistics.median(t for t, _ in setups),
                   "ref_kernel_s": statistics.median(k for p in passes for k in p.kernel)}
        record.update(seconds=seconds, setup_samples=setups, latencies=lats,
                      job_refs=refs, tail_level=level, kernel_s=[p.kernel for p in passes])
        print(f"passes {len(passes)}, jobs per pass {len(jobs)}, "
              f"job samples {len(refs)}, tail at p{100 * level:.1f}", flush=True)
        for name, value in seconds.items():
            print(f"{name} = {value:.6g} s (raw, not a metric)", flush=True)
    else:
        run.run_pass()  # warm-up, untimed
        traced, untraced, tables, span_list = run_traced(run, deadline)
        if any(spans.counts(t) != spans.counts(tables[0]) for t in tables[1:]):
            run.problems.append("per-layer counts differ between traced passes")
        values = layer_metrics(tables, traced, untraced)
        units = layer_units
        record.update(traced_costs=[p.cost for p in traced],
                      untraced_costs=[p.cost for p in untraced], layers=tables[0])
        print(f"traced passes {len(traced)}, untraced passes {len(untraced)}", flush=True)

    missing = set(units) - set(values)
    if missing:
        raise RuntimeError(f"metrics not measured: {sorted(missing)}")
    failed = len(run.failures)
    for why in run.problems + run.failures[:20]:
        print(f"FAILED {why}", flush=True)
    print(f"fail_frac = {failed / run.attempted:.6g} ({failed} of {run.attempted} jobs)",
          flush=True)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}", flush=True)
    record.update(metrics=metrics, failures=run.failures, problems=run.problems,
                  attempted=run.attempted)
    write_out(f"{args.workload}-seed{args.seed}-trace{args.trace}", record, span_list)
    correct = failed == 0 and not run.problems
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": failed, "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
