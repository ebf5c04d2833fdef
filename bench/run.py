"""adreg benchmark: closed-loop runs of one workload through ``adreg.cli.main``.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client, closed loop: the next operation starts only after the previous
one has ended, each in a fresh Python process (``op.py``), one at a time. A
new operation starts only while the ones so far, at their median duration,
still fit in S seconds; at least one always runs.

With ``--trace 0`` every operation is timed untraced and the end-to-end
metrics are reported as medians over the operations. With ``--trace 1``
untraced and traced operations alternate; the per-layer metrics are medians
over the traced ones, and ``trace.overhead_frac`` compares the two.

Every operation's outputs are checked (``workloads.check_operation``) and
compared with the run's first operation. Human-readable lines come first;
the last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. Run it from the repository root;
it reads and writes only inside the repository.
"""

import argparse
import contextlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OP = os.path.join(HERE, "op.py")
OUT_DIR = os.path.join(HERE, "out")
WORK_DIR = os.path.join(HERE, "_work")

# every run must end within this many seconds of starting
HARD_LIMIT_S = 170.0

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# printed with the end-to-end metrics but not bounded: they depend on the
# seed far more than any change in speed should move them (README.md)
REPORTED = {"ss_max_y": "1", "failed_frac": "1"}


class Run:
    """One benchmark run: its operations, measurements and problems."""

    def __init__(self, workload, seed, seconds, workdir):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.t_start = time.monotonic()
        self.config_path = os.path.join(workdir, "config.json")
        with open(self.config_path, "w") as fh:
            json.dump(workload.config(seed, workdir), fh, indent=1)
        self.references = workloads.load_references()
        self.env = {}
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.plain = []  # reports of untraced operations
        self.traced = []
        self.durations = []
        self.first_outputs = None
        self.jump_times = []
        self.ss_max_y = []

    def op(self, mode):
        """Run one operation in a fresh process and check it. Returns False
        when the run must stop: the operation did not end in time."""
        report_path = os.path.join(self.workdir, "report.json")
        if os.path.exists(report_path):
            os.remove(report_path)
        argv = self.workload.argv(self.config_path) if mode != "warm" else []
        timeout = max(1.0, HARD_LIMIT_S - (time.monotonic() - self.t_start))
        if mode != "warm":
            self.attempted += 1
        t_spawn = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, "-I", OP, report_path, mode, *argv],
                cwd=self.workdir, capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            self._fail(mode, [f"did not end within {timeout:.0f} s"])
            return False
        if mode != "warm":
            self.durations.append(time.monotonic() - t_spawn)
        if proc.returncode != 0 or not os.path.exists(report_path):
            self._fail(mode, [f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"])
            return True
        with open(report_path) as fh:
            report = json.load(fh)
        src = os.path.realpath(os.path.join(ROOT, "src", "adreg"))
        if os.path.dirname(os.path.realpath(report["adreg_file"])) != src:
            self._fail(mode, [f"imported adreg from {report['adreg_file']}, not {src}"])
            return True
        self.env = report["env"]
        if mode == "warm":
            return True
        # the operation ran to its end, so its times count even when its
        # outputs are wrong; the run is then reported as not correct
        if mode == "plain":
            report["setup_s"] = report["first_step_monotonic"] - t_spawn
            self.plain.append(report)
        else:
            self.traced.append(report)
        try:
            outputs = workloads.parse_outputs(self.workload, proc.stdout)
        except (ValueError, KeyError) as exc:
            self._fail(mode, [f"unreadable output: {exc}"])
            return True
        problems, jump_times = workloads.check_operation(
            self.workload, self.seed, outputs, report, self.workdir, self.references)
        if self.first_outputs is None:
            self.first_outputs = outputs
            self.jump_times = jump_times
        else:
            problems += [f"differs from the run's first operation: {p}" for p in
                         workloads.compare(self.workload, outputs, self.first_outputs)]
        self.ss_max_y.append(workloads.ss_max_y(self.workload, outputs))
        if problems:
            self._fail(mode, problems)
        return True

    def _fail(self, mode, problems):
        self.problems.append(f"{mode} operation: " + "; ".join(problems))
        if mode != "warm":
            self.failed += 1

    def loop(self, trace):
        """Closed loop of operations for ``seconds``; alternates untraced
        and traced operations when ``trace`` is set."""
        modes = ("plain", "trace") if trace else ("plain",)
        deadline = time.monotonic() + self.seconds
        while True:
            for mode in modes:
                if not self.op(mode):
                    return
            per_round = statistics.median(self.durations) * len(modes)
            if time.monotonic() + per_round > deadline:
                return

    def end_to_end(self):
        med = lambda key: statistics.median(r[key] for r in self.plain)
        return {
            "wall_s": med("wall_s"),
            "setup_s": med("setup_s"),
            "peak_rss_mb": med("peak_rss_mb"),
            "ss_max_y": statistics.median(self.ss_max_y) if self.ss_max_y else math.nan,
            "failed_frac": self.failed / self.attempted,
        }

    def per_layer(self):
        per_op = [tracer.layer_metrics(r["trace"]) for r in self.traced]
        metrics = {name: (statistics.median(m[name][0] for m in per_op), unit)
                   for name, (_, unit) in per_op[0].items()}
        wall_plain = statistics.median(r["wall_s"] for r in self.plain)
        wall_traced = statistics.median(r["wall_s"] for r in self.traced)
        metrics["trace.overhead_frac"] = (wall_traced / wall_plain - 1.0, "ratio")
        return metrics

    def metrics(self, trace):
        """The metrics of the result line: the per-layer ones of a traced
        run, the bounded end-to-end ones otherwise."""
        if trace:
            return self.per_layer()
        e2e = self.end_to_end()
        return {name: (e2e[name], unit) for name, unit in END_TO_END.items()}


@contextlib.contextmanager
def workspace(name):
    """A scratch directory under WORK_DIR, removed with its contents on exit."""
    path = os.path.join(WORK_DIR, name)
    os.makedirs(path)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        if not os.listdir(WORK_DIR):
            os.rmdir(WORK_DIR)


def program_present():
    return os.path.isfile(os.path.join(ROOT, "src", "adreg", "cli.py"))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not program_present():
        print(f"adreg sources not found under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    with workspace(str(os.getpid())) as workdir:
        run = Run(workload, args.seed, args.seconds, workdir)
        # compiles the sources and loads the libraries, so that the first
        # timed operation finds the caches that users' later runs find
        run.op("warm")
        if run.problems:
            print("\n".join(run.problems), file=sys.stderr)
            return 2
        run.loop(bool(args.trace))

    if not run.plain or (args.trace and not run.traced):
        print("\n".join(run.problems), file=sys.stderr)
        return 2
    return report(run, args, workload)


def report(run, args, workload):
    result = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
              "env": run.env}
    if args.trace:
        result["trace"] = run.traced[-1]["trace"]
        run.problems += tracer.nesting_violations(result["trace"])
    lines = [f"workload {workload.name} seed {args.seed}: {len(run.plain)} untraced, "
             f"{len(run.traced)} traced operations, closed loop, 1 client"]
    for p in run.problems:
        lines.append(f"PROBLEM {p}")
    e2e = run.end_to_end()
    walls = sorted(r["wall_s"] for r in run.plain)
    lines.append(f"  wall_s per operation: min {walls[0]:.4f} median "
                 f"{statistics.median(walls):.4f} max {walls[-1]:.4f} (n={len(walls)})")
    for name, unit in {**END_TO_END, **REPORTED}.items():
        lines.append(f"  {name:<40} {e2e[name]:>14.6g} {unit}")
    metrics = {name: {"value": v, "unit": u} for name, (v, u) in run.metrics(args.trace).items()}
    if args.trace:
        for name, m in metrics.items():
            lines.append(f"  {name:<40} {m['value']:>14.6g} {m['unit']}")
        result["per_layer"] = metrics
    result.update(end_to_end=e2e, problems=run.problems,
                  operations=[{k: r[k] for k in ("wall_s", "setup_s", "peak_rss_mb")}
                              for r in run.plain])
    lines.append("  env " + json.dumps(run.env, sort_keys=True))
    print("\n".join(lines))

    os.makedirs(OUT_DIR, exist_ok=True)
    out = os.path.join(OUT_DIR, f"{workload.name}-seed{args.seed}-trace{args.trace}.json")
    with open(out, "w") as fh:
        json.dump(result, fh, indent=1)
    print(json.dumps({"correct": not run.problems, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
