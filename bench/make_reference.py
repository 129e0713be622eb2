"""Regenerate ``reference.json``: the output of every menu entry.

Run from the repository root:

    python3 bench/make_reference.py

The reference records what the program computed when it was written; a
change that moves an output beyond the tolerances in ``refcheck.py`` fails
the benchmark's correctness gate. Regenerate it only together with a change
that is meant to alter results, and say so where that change is described.
"""

import json

import run
import refcheck
import workloads


def main():
    schauder = run.import_program()
    ref = {"expand": {}, "converge": {}, "integrate": {}}
    for workload in ref:
        for job in workloads.menu(workload):
            res = workloads.run_job(job, schauder)
            if res["error"]:
                raise SystemExit(f"{job['key']}: {res['error']}")
            if workload == "expand":
                idx, rows = refcheck.parse_expand(res["stdout"], job["format"],
                                                  job["family"])
                key = refcheck.expand_ref_key(job["family"], job["fns"][0])
                ref["expand"][key] = {
                    "index": idx,
                    "value": [list(r[0]) if isinstance(r[0], tuple) else r[0]
                              for r in rows],
                }
            elif workload == "converge":
                ref["converge"][job["key"]] = refcheck.parse_converge(res["stdout"])
            else:
                if not res["passed"]:
                    raise SystemExit(f"{job['key']}: bound check failed")
                ref["integrate"][job["key"]] = res["values"]
            print(f"{res['latency']:8.3f} s  {job['key']}", flush=True)
    with open(refcheck.REFERENCE, "w") as fh:
        json.dump(ref, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


if __name__ == "__main__":
    main()
