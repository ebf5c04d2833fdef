"""The benchmark's workloads and the checks on their outputs.

Every workload is the paper's oscillator benchmark: the forced Van der Pol
plant (a = rho = 2) tracking a unit-amplitude triangular wave, with
ell = 20, h = (6, 11, 6), M = psi_bar = 100, d_eta = 6 and dt = 1e-3. The
seed sets ``clock.seed`` and draws ``plant.p0`` in a box of half-width
P0_BOX around (0.1, 0); it never changes w0. README.md says why each
workload exists and which layers it loads.
"""

import csv
import json
import math
import os
import random
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_FILE = os.path.join(HERE, "reference.json")

P0_BOX = 0.01
SAT_LEVEL = 100.0

BASE_CONFIG = {
    "plant": {"kind": "vdp", "a": 2.0, "rho": 2.0},
    "regulator": {"ell": 20.0, "h_coeffs": [6.0, 11.0, 6.0], "sat_level": SAT_LEVEL,
                  "psi_bar": 100.0, "d_eta": 6},
    "sim": {"dt": 1e-3},
}

# Tolerances against the reference outputs recorded at the commit that added
# the benchmark. A change that reorders floating-point work (another BLAS
# thread count, a Cholesky jump solve) moves these outputs slightly; a change
# that alters the loop's behaviour moves them by far more.
REF_RTOL = 1e-6
SETTLING_ATOL = 2e-3  # two integration steps
THETA_RTOL = 1e-4  # on |theta - theta_ref| / (1 + |theta_ref|)


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "simulate" or "sweep"
    identifier: dict
    clock: dict
    horizon: float
    writes_files: bool
    sweep_values: tuple = ()

    def config(self, seed, workdir):
        rng = random.Random(seed)
        p0 = [0.1 + rng.uniform(-P0_BOX, P0_BOX), rng.uniform(-P0_BOX, P0_BOX)]
        cfg = json.loads(json.dumps(BASE_CONFIG))
        cfg["plant"]["p0"] = p0
        cfg["identifier"] = dict(self.identifier)
        cfg["clock"] = dict(self.clock, seed=seed)
        cfg["sim"]["horizon"] = self.horizon
        if self.writes_files:
            cfg["output"] = {"csv": os.path.join(workdir, "run.csv"),
                             "summary": os.path.join(workdir, "run.json")}
        return cfg

    def argv(self, config_path):
        if self.command == "sweep":
            values = ",".join(f"{v:g}" for v in self.sweep_values)
            return ["sweep", config_path, "--axis", "ell", "--values", values]
        return ["simulate", config_path]


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="osc-ls-n5",
            command="simulate",
            identifier={"kind": "ls", "N": 5, "mu_f": 0.99, "omega_scale": 1e-3},
            clock={"t_low": 0.1, "t_high": 0.1, "strategy": "periodic", "period": 0.1},
            horizon=10.0,
            writes_files=True,
        ),
        Workload(
            name="osc-mb-n3-uniform",
            command="simulate",
            identifier={"kind": "mini-batch", "N": 3, "N_w": 100, "omega_scale": 1e-3},
            clock={"t_low": 0.05, "t_high": 0.15, "strategy": "uniform"},
            horizon=20.0,
            writes_files=True,
        ),
        Workload(
            name="osc-ell-sweep",
            command="sweep",
            identifier={"kind": "none"},
            clock={"t_low": 0.1, "t_high": 0.1, "strategy": "periodic", "period": 0.1},
            horizon=10.0,
            writes_files=False,
            sweep_values=(5.0, 10.0, 20.0, 40.0),
        ),
    )
}


# ---------------------------------------------------------------------------
# output checks


def parse_outputs(workload, stdout):
    """The CLI's printed result: the summary dict of ``simulate``, or one row
    dict per cell of ``sweep``. Raises ValueError on malformed output."""
    if workload.command == "simulate":
        return json.loads(stdout)
    lines = stdout.strip().splitlines()
    if not lines or lines[0] != "value,steady_state_max_y,settling_time_s,error":
        raise ValueError("sweep output has no header")
    rows = []
    for line in lines[1:]:
        value, ss, settling, error = line.split(",", 3)
        row = {"value": float(value)}
        if error:
            row["error"] = error
        else:
            row["steady_state_max_y"] = float(ss)
            row["settling_time_s"] = float(settling)
        rows.append(row)
    return rows


def ss_max_y(workload, outputs):
    """Largest steady_state_max_y over the operation's runs."""
    if workload.command == "simulate":
        return outputs["steady_state_max_y"]
    return max(row["steady_state_max_y"] for row in outputs)


def _csv_checks(path, expected_jumps, problems):
    """Finite values, |u| <= sat_level, and jumps exactly at the clock's
    instants. Returns the jump instants found in the CSV."""
    jump_times = []
    prev_j = 0
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        iu, ij, it = header.index("u"), header.index("j"), header.index("t")
        for row in reader:
            vals = [float(v) for v in row if v != ""]
            if not all(math.isfinite(v) for v in vals):
                problems.append(f"non-finite value in CSV row t={row[it]}")
                break
            if abs(float(row[iu])) > SAT_LEVEL * (1.0 + 1e-12):
                problems.append(f"|u| = {abs(float(row[iu])):.6g} exceeds sat_level")
                break
            j = int(row[ij])
            if j != prev_j:
                jump_times.append(float(row[it]))
                prev_j = j
    if len(jump_times) != len(expected_jumps) or any(
            abs(a - b) > 1e-9 for a, b in zip(jump_times, expected_jumps)):
        problems.append(f"CSV jump instants ({len(jump_times)}) differ from the "
                        f"clock's ({len(expected_jumps)})")
    return jump_times


def _close(a, b, rtol=REF_RTOL, atol=0.0):
    return abs(a - b) <= atol + rtol * abs(b)


def compare(workload, outputs, ref):
    """Differences between two operations' outputs beyond the tolerances."""
    problems = []
    pairs = ([(outputs, ref)] if workload.command == "simulate"
             else list(zip(outputs, ref)))
    if workload.command == "sweep" and len(outputs) != len(ref):
        problems.append(f"{len(outputs)} sweep rows, reference has {len(ref)}")
    for got, want in pairs:
        for key in ("steady_state_max_y", "settling_time_s"):
            atol = SETTLING_ATOL if key == "settling_time_s" else 0.0
            if key not in got or not _close(got[key], want[key], atol=atol):
                problems.append(f"{key} {got.get(key)!r} != reference {want[key]!r}")
        if "jumps_total" in want and got.get("jumps_total") != want["jumps_total"]:
            problems.append(f"jumps_total {got.get('jumps_total')} != {want['jumps_total']}")
        if "final_theta" in want:
            th, th_ref = got.get("final_theta", []), want["final_theta"]
            if len(th) != len(th_ref):
                problems.append("final_theta has the wrong length")
            else:
                diff = math.sqrt(sum((a - b) ** 2 for a, b in zip(th, th_ref)))
                scale = 1.0 + math.sqrt(sum(b * b for b in th_ref))
                if diff > THETA_RTOL * scale:
                    problems.append(f"final_theta differs by {diff:.3g} (scale {scale:.3g})")
    return problems


def load_references():
    with open(REFERENCE_FILE) as fh:
        return json.load(fh)


def check_operation(workload, seed, outputs, report, workdir, references):
    """Problems with one operation's outputs; empty when they are correct.

    Also returns the jump instants read from the CSV (empty for sweeps).
    """
    problems = []
    if workload.command == "sweep":
        for row in outputs:
            if "error" in row:
                problems.append(f"sweep cell {row['value']:g} failed: {row['error']}")
        if len(outputs) != len(workload.sweep_values):
            problems.append("sweep printed the wrong number of rows")
        if problems:
            return problems, []
        summaries = outputs
    else:
        summaries = [outputs]
    for s in summaries:
        values = [s["steady_state_max_y"], s["settling_time_s"]] + list(s.get("final_theta", []))
        if not all(math.isfinite(v) for v in values):
            problems.append("non-finite value in the summary")
    jump_times = []
    if workload.writes_files:
        with open(os.path.join(workdir, "run.json")) as fh:
            if json.load(fh) != outputs:
                problems.append("summary file differs from the printed summary")
        expected = report["expected_jump_times"]
        if outputs["jumps_total"] != len(expected):
            problems.append(f"jumps_total {outputs['jumps_total']} but the clock "
                            f"ticks {len(expected)} times")
        jump_times = _csv_checks(os.path.join(workdir, "run.csv"), expected, problems)
    ref = references.get(workload.name, {}).get(str(seed))
    if ref is not None:
        problems += compare(workload, outputs, ref)
    return problems, jump_times


def reference_entry(workload, outputs):
    """The part of an operation's outputs kept as its reference."""
    if workload.command == "sweep":
        return [{k: row[k] for k in ("value", "steady_state_max_y", "settling_time_s")}
                for row in outputs]
    entry = {k: outputs[k] for k in ("steady_state_max_y", "settling_time_s", "jumps_total")}
    # ten digits are far below THETA_RTOL and keep the file small
    entry["final_theta"] = [float(f"{v:.10g}") for v in outputs["final_theta"]]
    return entry
