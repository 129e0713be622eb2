"""Self-test of the benchmark's correctness gate.

    python3 bench/selfcheck.py

Runs a few cheap jobs through the same pass and check code as ``run.py``:

1. with the reference as generated, nothing fails;
2. with one reference entry corrupted, the job that reads it fails, so
   fail_frac > 0;
3. a job that exits non-zero is counted as failed and the pass goes on;
4. a traced pass gives byte-identical outputs and repeats its counts.

Exits 0 when every expectation holds.
"""

import copy
import sys

import run
import refcheck
import spans
import workloads


def small_jobs():
    expand = workloads._expand_job("taylor", 16, ["exp-z", "sin-z", "cos-z"], "json")
    converge = workloads._converge_job("haar", "x", "l1", "4,16,64")
    integrate = workloads._integrate_job(*workloads.INTEGRATE_SLOTS[0], 2)
    verify = workloads._verify_job("taylor", 5)
    return [expand, converge, integrate, verify]


def fail_frac(schauder, jobs, ref, tracer=None):
    r = run.Run(schauder, jobs, ref)
    r.run_pass(tracer)
    return len(r.failures) / r.attempted, r


def main():
    schauder = run.import_program()
    ref = refcheck.load_reference()
    jobs = small_jobs()
    ok = True

    def expect(cond, what):
        nonlocal ok
        ok = ok and cond
        print(f"{'ok  ' if cond else 'FAIL'} {what}")

    frac, _ = fail_frac(schauder, jobs, ref)
    expect(frac == 0, f"intact reference: fail_frac = {frac}")

    bad = copy.deepcopy(ref)
    bad["expand"][refcheck.expand_ref_key("taylor", "sin-z")]["value"][3][0] += 1e-6
    frac, r = fail_frac(schauder, jobs, bad)
    expect(frac > 0, f"one corrupted reference entry: fail_frac = {frac} {r.failures}")

    broken = workloads._expand_job("taylor", 16, ["no-such-function"], "csv")
    frac, r = fail_frac(schauder, [broken] + jobs, ref)
    expect(len(r.failures) == 1 and r.attempted == len(jobs) + 1,
           f"a job exiting non-zero fails alone: {r.failures}")

    r = run.Run(schauder, jobs, ref)
    r.run_pass()
    tables = [spans.counts(r.run_traced_pass()[1]) for _ in range(2)]
    expect(not r.failures, f"traced outputs byte-identical to untraced: {r.failures}")
    expect(tables[0] == tables[1], "per-layer counts repeat across traced passes")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
