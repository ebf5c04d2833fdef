"""Outside-in tracer for one adreg operation.

The tracer wraps the public callables of each adreg layer at the name its
caller looks up, so nothing under ``src/`` changes. Two kinds of record are
kept in memory:

- spans, at the run, scenario, sweep-cell, simulate, jump, reduce and write
  boundaries: name, start, end, parent span id, and the time covered by
  children;
- aggregates, for calls made once per RK4 stage or per jump (rk4 step, flow,
  Jacobian, ``fast_q``, regressor evaluations, the jump solve): a call count,
  total time and self time, stored under the innermost open span and keyed by
  the chain of aggregated names that led to the call (``rk4>flow>jacobian``).

The trace therefore grows with the number of spans (about one per jump), not
with the number of RK4 stages. A record's self time is its duration minus the
time of the records nested inside it.

This module must import nothing that loads numpy: ``op.py`` imports adreg
first, so any thread policy that adreg sets stays in effect.
"""

import os
import time

# flops of one n x n pseudoinverse as computed by numerics.pseudoinverse:
# an SVD with both singular-vector sets (about 21 n^3, Golub & Van Loan,
# Matrix Computations, 4th ed., Fig. 8.6.1) plus the (V S^+) U' product (2 n^3).
PINV_FLOPS_PER_N3 = 23.0


class Tracer:
    def __init__(self):
        self.clock = time.perf_counter
        self.origin = self.clock()
        self.spans = []
        self.notes = {}
        root = self._new_span("process", None, self.origin)
        # frame: [key, child_s, span, is_span]
        self.stack = [["", 0.0, root, True]]
        self.in_simulate = 0

    def _new_span(self, name, parent_id, start):
        rec = {"id": len(self.spans), "parent": parent_id, "name": name,
               "start": start, "end": None, "child_s": 0.0, "agg": {}}
        self.spans.append(rec)
        return rec

    def note_add(self, name, value):
        self.notes[name] = self.notes.get(name, 0) + value

    def note_max(self, name, value):
        self.notes[name] = max(self.notes.get(name, value), value)

    def span(self, name, fn, observe=None):
        """Wrap fn so that each call records a span named ``name``."""
        clock, stack = self.clock, self.stack

        def wrapper(*args, **kw):
            parent = stack[-1]
            t0 = clock()
            rec = self._new_span(name, parent[2]["id"], t0)
            frame = [name, 0.0, rec, True]
            stack.append(frame)
            try:
                result = fn(*args, **kw)
            finally:
                t1 = clock()
                stack.pop()
                rec["end"] = t1
                rec["child_s"] = frame[1]
                parent[1] += t1 - t0
            if observe is not None:
                observe(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def aggregate(self, name, fn, observe=None):
        """Wrap fn so that its calls add to a count and time under the
        innermost open span."""
        clock, stack = self.clock, self.stack
        keys = {}

        def wrapper(*args, **kw):
            parent = stack[-1]
            pkey = parent[0]
            key = name if parent[3] else keys.get(pkey)
            if key is None:
                key = keys[pkey] = pkey + ">" + name
            frame = [key, 0.0, parent[2], False]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kw)
            finally:
                dt = clock() - t0
                stack.pop()
                parent[1] += dt
                agg = parent[2]["agg"]
                a = agg.get(key)
                if a is None:
                    a = agg[key] = [0, 0.0, 0.0]
                a[0] += 1
                a[1] += dt
                a[2] += dt - frame[1]
            if observe is not None:
                observe(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, name, fn):
        """Wrap fn so that calls made while a simulation runs are counted."""

        def wrapper(*args, **kw):
            if self.in_simulate:
                self.note_add(name, 1)
            return fn(*args, **kw)

        wrapper.__wrapped__ = fn
        return wrapper

    def close(self):
        root = self.spans[0]
        root["end"] = self.clock()
        root["child_s"] = self.stack[0][1]

    def dump(self):
        """Spans and notes, with times relative to the tracer's start."""
        o = self.origin
        spans = [dict(s, start=s["start"] - o, end=s["end"] - o) for s in self.spans]
        return {"spans": spans, "notes": dict(self.notes)}


def install(tracer, adreg):
    """Replace adreg's layer entry points, where their callers look them
    up, with tracing wrappers."""
    from adreg import cli, hybrid, identifier, regulator, scenario

    t = tracer

    cli._load_config = t.span("cli.load_config", cli._load_config)
    run = t.span("scenario.run", scenario.run_scenario)
    cli.run_scenario = run
    scenario.run_scenario = run  # looked up by run_sweep for each cell
    cli.run_sweep = t.span("scenario.sweep", cli.run_sweep)

    orig_simulate = scenario.simulate

    def observe_arc(args, arc):
        rows, dim = arc.states.shape
        t.note_max("arc_bytes", rows * dim * 8)

    def simulate(flow, jump, *rest, **kw):
        t.in_simulate += 1
        try:
            return orig_simulate(flow, t.span("hybrid.jump", jump), *rest, **kw)
        finally:
            t.in_simulate -= 1

    scenario.simulate = t.span("hybrid.simulate", simulate, observe=observe_arc)

    # hybrid bound rk4_step at import; the closure field arrives as `field`.
    orig_rk4 = hybrid.rk4_step
    wrapped_fields = {}

    def rk4_step(field, *rest, **kw):
        wf = wrapped_fields.get(id(field))
        if wf is None or wf.__wrapped__ is not field:
            wf = wrapped_fields[id(field)] = t.aggregate("flow", field)
        return orig_rk4(wf, *rest, **kw)

    hybrid.rk4_step = t.aggregate("rk4", rk4_step)

    orig_build = scenario.build_vdp_scenario

    def build_vdp_scenario(*args, **kw):
        spec = orig_build(*args, **kw)
        spec.extras["fast_q"] = t.aggregate("fast_q", spec.extras["fast_q"])
        return spec

    scenario.build_vdp_scenario = build_vdp_scenario

    orig_build_reg = scenario.build_poly_regressor

    def build_poly_regressor(*args, **kw):
        reg = orig_build_reg(*args, **kw)
        t.notes["d_sigma"], t.notes["d_eta"] = reg.d_sigma, reg.d_eta
        return reg

    scenario.build_poly_regressor = build_poly_regressor

    reg = identifier.PolyRegressor
    reg.jacobian = t.aggregate("jacobian", reg.jacobian)
    reg.__call__ = t.aggregate("eval", reg.__call__)
    reg.batch = t.aggregate(
        "batch", reg.batch,
        observe=lambda args, out: t.note_add("batch_rows", args[1].shape[0]))

    def observe_solve(args, out):
        n = out.shape[0]
        t.note_max("solve_dim", n)
        t.note_add("solve_flop", PINV_FLOPS_PER_N3 * n ** 3)

    identifier.pseudoinverse = t.aggregate("solve", identifier.pseudoinverse,
                                           observe=observe_solve)
    for cls in (identifier.LsIdentifier, identifier.MiniBatchIdentifier):
        cls.jump = t.aggregate("identifier.jump", cls.jump)

    scenario._reduce = t.span("scenario.reduce", scenario._reduce)
    res = scenario.ScenarioResult
    res.write_csv = t.span(
        "scenario.write_csv", res.write_csv,
        observe=lambda args, out: t.note_add("csv_bytes", os.path.getsize(args[1])))
    res.write_summary = t.span("scenario.write_summary", res.write_summary)

    # every binding of a regulator.py function, in every adreg module
    reg_funcs = {id(f) for f in vars(regulator).values()
                 if callable(f) and getattr(f, "__module__", None) == regulator.__name__
                 and not isinstance(f, type)}
    wrapped = {}
    for mod in (regulator, identifier, scenario, cli, adreg):
        for name, f in list(vars(mod).items()):
            if id(f) in reg_funcs:
                if id(f) not in wrapped:
                    wrapped[id(f)] = t.counter("regulator_calls", f)
                setattr(mod, name, wrapped[id(f)])


# ---------------------------------------------------------------------------
# per-layer metrics from a dumped trace


def _agg_totals(spans):
    """Sum aggregates over spans by the last name of their key."""
    out = {}
    for s in spans:
        for key, (calls, total, self_s) in s["agg"].items():
            leaf = key.rsplit(">", 1)[-1]
            a = out.setdefault(leaf, [0, 0.0, 0.0])
            a[0] += calls
            a[1] += total
            a[2] += self_s
    return out


def _span_totals(spans):
    out = {}
    for s in spans:
        a = out.setdefault(s["name"], [0, 0.0, 0.0])
        dur = s["end"] - s["start"]
        a[0] += 1
        a[1] += dur
        a[2] += dur - s["child_s"]
    return out


def layer_metrics(trace):
    """Per-layer metrics of one traced operation.

    Returns {name: (value, unit)}. Counts are exact; times are seconds of
    perf_counter under tracing.
    """
    spans, notes = trace["spans"], trace["notes"]
    agg = _agg_totals(spans)
    sp = _span_totals(spans)
    zero = [0, 0.0, 0.0]
    a = lambda k: agg.get(k, zero)
    s = lambda k: sp.get(k, zero)
    m = {}

    solve, jac, ev, batch = a("solve"), a("jacobian"), a("eval"), a("batch")
    dim = notes.get("solve_dim", 0)
    m["identifier.solve.calls"] = (solve[0], "count")
    m["identifier.solve.s"] = (solve[1], "s")
    m["identifier.solve.dim"] = (dim, "count")
    m["identifier.solve.gflop"] = (notes.get("solve_flop", 0.0) / 1e9, "GFLOP")
    m["identifier.regressor.jacobian.calls"] = (jac[0], "count")
    m["identifier.regressor.jacobian.s"] = (jac[1], "s")
    # one scalar psi is used per d_sigma x d_eta Jacobian formed
    m["identifier.regressor.jacobian.useful_ratio"] = (
        1.0 / (notes["d_sigma"] * notes["d_eta"]) if jac[0] else 0.0, "ratio")
    m["identifier.regressor.batch.rows"] = (notes.get("batch_rows", 0), "count")
    m["identifier.regressor.batch.s"] = (batch[1], "s")
    m["identifier.regressor.eval.calls"] = (ev[0], "count")
    m["identifier.regressor.eval.s"] = (ev[1], "s")
    jumps = s("hybrid.jump")[0]
    m["identifier.regressor.eval.useful_ratio"] = (
        jumps / ev[0] if ev[0] else 0.0, "ratio")
    ij = a("identifier.jump")
    m["identifier.jump.calls"] = (ij[0], "count")
    m["identifier.jump.self_s"] = (ij[2], "s")

    flow = a("flow")
    m["scenario.flow.calls"] = (flow[0], "count")
    m["scenario.flow.self_s"] = (flow[2], "s")
    fq = a("fast_q")
    m["plant.fast_q.calls"] = (fq[0], "count")
    m["plant.fast_q.s"] = (fq[1], "s")
    m["numerics.rk4_step.self_s"] = (a("rk4")[2], "s")
    m["hybrid.simulate.self_s"] = (s("hybrid.simulate")[2], "s")
    m["hybrid.steps"] = (a("rk4")[0], "count")
    m["hybrid.jumps"] = (jumps, "count")
    m["hybrid.arc_mb"] = (notes.get("arc_bytes", 0) / 1e6, "MB")

    m["scenario.reduce.self_s"] = (s("scenario.reduce")[2], "s")
    m["scenario.write_csv.s"] = (s("scenario.write_csv")[1], "s")
    m["scenario.write_csv.bytes"] = (notes.get("csv_bytes", 0), "bytes")
    m["scenario.write_summary.s"] = (s("scenario.write_summary")[1], "s")

    by_id = {x["id"]: x for x in spans}
    cells = [x for x in spans if x["name"] == "scenario.run"
             and by_id[x["parent"]]["name"] == "scenario.sweep"]
    m["scenario.sweep.cells"] = (len(cells), "count")
    m["scenario.sweep.cell_s"] = (sum(x["end"] - x["start"] for x in cells), "s")
    m["scenario.sweep.self_s"] = (s("scenario.sweep")[2], "s")

    m["setup.import_s"] = (notes.get("import_s", 0.0), "s")
    m["cli.load_config_s"] = (s("cli.load_config")[1], "s")
    first_sim = next((x for x in spans if x["name"] == "hybrid.simulate"), None)
    m["scenario.wiring_s"] = (
        first_sim["start"] - by_id[first_sim["parent"]]["start"] if first_sim else 0.0, "s")
    m["regulator.calls"] = (notes.get("regulator_calls", 0), "count")
    return m


def nesting_violations(trace, slack=1e-9):
    """Records whose children took longer than they did; empty when sound."""
    bad = []
    for s in trace["spans"]:
        dur = s["end"] - s["start"]
        if s["child_s"] > dur + slack:
            bad.append(f"span {s['name']}#{s['id']}: children {s['child_s']:.6g} s > {dur:.6g} s")
        totals = {k: v[1] for k, v in s["agg"].items()}
        for key, (calls, total, self_s) in s["agg"].items():
            if self_s < -slack:
                bad.append(f"{s['name']}#{s['id']} {key}: negative self time {self_s:.3g}")
            if ">" in key:
                parent = key.rsplit(">", 1)[0]
                if parent in totals and total > totals[parent] + slack:
                    bad.append(f"{s['name']}#{s['id']} {key}: {total:.6g} s > parent {totals[parent]:.6g} s")
    return bad
