"""Self-test of the benchmark, at a 2 s horizon (about 30 s in all).

    python3 bench/selftest.py

Checks that every metric named in BENCHMARK.json is emitted with its unit,
that the trace's counts repeat exactly between two runs, that no traced
record's children take longer than it does, the expected structural counts
on two workloads, that the seed changes the clock on the uniform-clock
workload, and that a failed sweep cell counts as a failed operation.
Exits 0 when every check holds.
"""

import dataclasses
import json
import os
import sys

import run
import tracer
import workloads

HORIZON = 2.0
SPEC = os.path.join(run.ROOT, "BENCHMARK.json")


def short_run(name, seed, trace):
    """A run of one untraced (and one traced) operation at HORIZON."""
    workload = dataclasses.replace(workloads.WORKLOADS[name], horizon=HORIZON)
    with run.workspace(f"selftest-{os.getpid()}") as workdir:
        r = run.Run(workload, seed, 0.0, workdir)
        r.references = {}  # recorded at the full horizon
        r.loop(trace)
    assert not r.problems, r.problems
    return r


def counts(metrics):
    return {k: v for k, (v, unit) in metrics.items() if unit == "count"}


def main():
    with open(SPEC) as fh:
        spec = json.load(fh)
    e2e_units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    failures = []

    def check(ok, message):
        print(("ok   " if ok else "FAIL ") + message, flush=True)
        if not ok:
            failures.append(message)

    check({w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS),
          "workloads.py defines every workload BENCHMARK.json names")
    traced = {}
    for name in workloads.WORKLOADS:
        plain = short_run(name, 1, trace=False)
        got = {k: u for k, (v, u) in plain.metrics(False).items()}
        check(got == e2e_units, f"{name}: end-to-end metrics and units match BENCHMARK.json")
        a, b = short_run(name, 1, trace=True), short_run(name, 1, trace=True)
        ma, mb = a.metrics(True), b.metrics(True)
        got = {k: u for k, (v, u) in ma.items()}
        check(got == layer_units, f"{name}: per-layer metrics and units match BENCHMARK.json")
        check(counts(ma) == counts(mb), f"{name}: per-layer counts repeat exactly")
        bad = [v for r in (a, b) for op in r.traced
               for v in tracer.nesting_violations(op["trace"])]
        check(not bad, f"{name}: no child record outlasts its parent {bad[:3]}")
        traced[name] = ma

    sweep, ls = traced["osc-ell-sweep"], traced["osc-ls-n5"]
    check(sweep["identifier.jump.calls"][0] == 0, "osc-ell-sweep: identifier.jump.calls == 0")
    check(all(v == 0 for k, v in counts(sweep).items() if k.startswith("identifier.")),
          "osc-ell-sweep: every identifier.* count is 0")
    check(ls["identifier.solve.calls"][0] == ls["hybrid.jumps"][0] > 0,
          "osc-ls-n5: identifier.solve.calls == hybrid.jumps")

    mb1 = short_run("osc-mb-n3-uniform", 1, trace=False).jump_times
    mb2 = short_run("osc-mb-n3-uniform", 2, trace=False).jump_times
    check(mb1 and mb2 and mb1 != mb2, "osc-mb-n3-uniform: seeds 1 and 2 jump at different times")

    sweep_w = workloads.WORKLOADS["osc-ell-sweep"]
    out = ("value,steady_state_max_y,settling_time_s,error\n"
           "5,0.5,0.1,\n10,,,InvalidConfigError: boom\n20,0.1,3.3,\n40,0.05,5.2,\n")
    problems, _ = workloads.check_operation(
        sweep_w, 1, workloads.parse_outputs(sweep_w, out), {}, None, {})
    check(len(problems) == 1 and "boom" in problems[0], "a sweep cell error fails the operation")

    print(f"{len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
