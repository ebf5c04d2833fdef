"""Scenario tests: configuration validation, the synthetic linear benchmark,
closed-loop wiring sanity on short runs, and output serialization."""

import csv
import json
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from adreg import scenario
from adreg.errors import AdregError, IntegrationBlowupError, InvalidConfigError, SweepWorkerError
from adreg.identifier import LsIdentifier, MiniBatchIdentifier
from adreg.plant import SyntheticLinearPlant, build_vdp_scenario
from adreg.regulator import Regulator
from adreg.scenario import (
    CSV_HEADER,
    ScenarioConfig,
    build_closed_loop,
    run_scenario,
    run_sweep,
    state_layout,
)


def _regulator(**keys):
    """The default config's regulator with ``keys`` set."""
    return Regulator(**{**ScenarioConfig().regulator, **keys})


class TestScenarioConfig:
    def test_defaults_validate(self):
        ScenarioConfig()

    def test_unknown_section_rejected(self):
        with pytest.raises(InvalidConfigError):
            ScenarioConfig.from_dict({"plnt": {}})

    def test_unknown_key_rejected(self):
        with pytest.raises(InvalidConfigError):
            ScenarioConfig(plant={"amplitude": 2.0})
        with pytest.raises(InvalidConfigError):
            ScenarioConfig(identifier={"forgetting": 0.9})

    def test_unknown_kinds_rejected(self):
        with pytest.raises(InvalidConfigError):
            ScenarioConfig(identifier={"kind": "kalman"})
        with pytest.raises(InvalidConfigError):
            ScenarioConfig(plant={"kind": "pendulum"})

    def test_json_round_trip(self, tmp_path):
        cfg = ScenarioConfig(
            plant={"a": 2.0}, identifier={"kind": "ls", "N": 3},
            sim={"horizon": 5.0},
        )
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg.to_dict()))
        again = ScenarioConfig.from_json(path)
        assert again.to_dict() == cfg.to_dict()

    def test_replace_in_is_nondestructive(self):
        cfg = ScenarioConfig(regulator={"ell": 20.0})
        other = cfg.replace_in("regulator", ell=5.0)
        assert cfg.regulator["ell"] == 20.0
        assert other.regulator["ell"] == 5.0
        with pytest.raises(InvalidConfigError):
            cfg.replace_in("regulator", gain=5.0)


class TestSyntheticLinearPlant:
    def test_sylvester_identity(self):
        # M must satisfy F M - M S = -G c' with c = (-rho, 0)
        rho = 2.0
        im = _regulator(d_eta=6)
        plant = SyntheticLinearPlant(rho, im.F, im.G)
        m = plant.tau_rows(np.eye(2)).T  # columns tau(e1), tau(e2)
        s_mat = np.array([[0.0, 1.0], [-rho, 0.0]])
        c = np.array([-rho, 0.0])
        lhs = im.F @ m - m @ s_mat
        assert np.allclose(lhs, -im.G @ c[None, :], atol=1e-10)

    @pytest.mark.parametrize("d_eta", [2, 4, 6, 9])
    @pytest.mark.parametrize("rho", [0.5, 2.0, 7.0])
    def test_tau_matches_scipy_solve_sylvester(self, d_eta, rho):
        solve_sylvester = pytest.importorskip("scipy.linalg").solve_sylvester
        im = _regulator(d_eta=d_eta)
        plant = SyntheticLinearPlant(rho, im.F, im.G)
        m = plant.tau_rows(np.eye(2)).T
        s_mat = np.array([[0.0, 1.0], [-rho, 0.0]])
        c = np.array([-rho, 0.0])
        want = solve_sylvester(im.F, -s_mat, -im.G.reshape(-1, 1) @ c[None, :])
        assert np.allclose(m, want, rtol=1e-12, atol=1e-14)

    def test_theta_star_reproduces_ustar_on_tau(self):
        rho = 2.0
        im = _regulator(d_eta=6)
        plant = SyntheticLinearPlant(rho, im.F, im.G)
        theta = plant.theta_star
        rows = np.random.default_rng(0).normal(size=(10, 2))
        assert np.allclose(plant.tau_rows(rows) @ theta, -rho * rows[:, 0], rtol=0, atol=1e-9)
        assert np.array_equal(plant.ustar_rows(rows), -rho * rows[:, 0])

    def test_tau_rows_is_m_w_on_each_row(self):
        im = _regulator(d_eta=4)
        plant = SyntheticLinearPlant(1.5, im.F, im.G)
        rows = np.random.default_rng(1).normal(size=(5, 2))
        batch = plant.tau_rows(rows)
        for i, w in enumerate(rows):
            assert np.allclose(batch[i], plant.M @ w)

    def test_invalid_rho(self):
        # the plant section's ranges are the config schema's
        with pytest.raises(InvalidConfigError, match="^plant.rho must be positive, got -1.0$"):
            ScenarioConfig(plant={"kind": "synthetic-linear", "rho": -1.0})


class TestExosystem:
    @pytest.mark.parametrize("kind", ["vdp", "synthetic-linear"])
    def test_eval_s_equals_the_fields_w_rows(self, kind):
        # check-identifier integrates plant.eval_s and the closed loop the w
        # rows of its field: one exosystem, bit for bit
        rho = 1.7
        im = _regulator(d_eta=4)
        plant = (build_vdp_scenario(2.0, rho) if kind == "vdp"
                 else SyntheticLinearPlant(rho, im.F, im.G))
        one, _ = build_closed_loop(plant, _regulator(d_eta=4, ell=5.0))
        lay = state_layout(4)
        rng = np.random.default_rng(5)
        for _ in range(50):
            state = rng.standard_normal(lay.size) * 10.0 ** rng.integers(-3, 4)
            want = np.array(plant.eval_s(state[lay.w].tolist())).tobytes()
            assert np.array(one(state.tolist())[lay.w]).tobytes() == want


class TestRunScenario:
    @staticmethod
    def _short_cfg(**identifier):
        return ScenarioConfig(
            identifier=identifier,
            sim={"horizon": 2.05, "dt": 1e-3},
        )

    def test_baseline_runs_and_is_finite(self):
        res = run_scenario(self._short_cfg(), states=True)
        assert np.all(np.isfinite(res.states))
        assert res.t[-1] == pytest.approx(2.05)
        assert res.summary["jumps_total"] == 20
        assert res.summary["final_theta"] == []
        assert res.thetas.shape == (20, 0)
        # baseline: no identified model, so gamma_hat stays zero
        assert np.all(res.gamma_hat == 0.0)

    def test_default_exosystem_start_is_unit_amplitude(self):
        res = run_scenario(self._short_cfg(), states=True)
        assert res.states[0, 0] == pytest.approx(1.0 / np.pi)
        assert res.states[0, 1] == pytest.approx(0.0)

    def test_ls_identifier_updates_theta_each_jump(self):
        res = run_scenario(self._short_cfg(kind="ls", N=1), states=True)
        assert res.thetas.shape == (res.summary["jumps_total"], 6)
        assert res.thetas[-1].tolist() == res.summary["final_theta"]
        assert np.any(res.gamma_hat != 0.0)

    def test_mini_batch_runs(self):
        res = run_scenario(self._short_cfg(kind="mini-batch", N=1, N_w=5), states=True)
        assert np.all(np.isfinite(res.states))
        assert len(res.summary["final_theta"]) == 6

    @pytest.mark.parametrize("identifier", [{"kind": "ls", "N": 1},
                                            {"kind": "mini-batch", "N": 3, "N_w": 5}],
                             ids=["ls", "mini-batch"])
    @pytest.mark.parametrize("clock", [
        {}, {"t_low": 0.05, "t_high": 0.15, "strategy": "uniform", "seed": 3}],
        ids=["periodic", "uniform"])
    def test_identifier_takes_the_pre_jump_rows(self, fed_samples, identifier, clock):
        # each jump feeds the identifier the pre-jump row's eta, bit for bit,
        # and the vector form of the controller on that row as a float
        res = run_scenario(ScenarioConfig(identifier=identifier, clock=clock,
                                          sim={"horizon": 2.05, "dt": 1e-3}), states=True)
        reg, lay = _regulator(), state_layout(6)
        pre = np.flatnonzero(np.diff(res.j))
        assert len(fed_samples) == pre.size == res.summary["jumps_total"] > 0
        for (eta, u), row in zip(fed_samples, res.states[pre]):
            assert eta.tobytes() == row[lay.eta].tobytes()
            want = -row[lay.sigma_hat:] - reg.K @ row[lay.x_hat]
            norm = np.linalg.norm(want)
            if norm > reg.sat_level:
                want = want * (reg.sat_level / norm)
            assert type(u) is float
            assert np.float64(u).tobytes() == want[0].tobytes()

    def test_synthetic_linear_with_eps_star(self):
        cfg = ScenarioConfig(
            plant={"kind": "synthetic-linear"},
            identifier={"kind": "ls", "N": 1, "mu_f": 0.95, "omega_scale": 1e-6},
            sim={"horizon": 2.0, "dt": 1e-3},
        )
        res = run_scenario(cfg, states=True)
        assert res.eps_star.size == res.t.size
        # the model set contains the true map, so the ideal error is ~0
        assert np.max(np.abs(res.eps_star)) < 1e-8

    def test_output_files(self, tmp_path):
        csv_path = tmp_path / "run.csv"
        summary_path = tmp_path / "run.json"
        cfg = ScenarioConfig(
            identifier={"kind": "ls", "N": 1},
            sim={"horizon": 1.0, "dt": 1e-3},
            output={"csv": str(csv_path), "summary": str(summary_path)},
        )
        res = run_scenario(cfg)
        with open(csv_path) as fh:
            reader = csv.reader(fh)
            header = next(reader)
            assert header == CSV_HEADER.split(",")
            rows = list(reader)
        assert len(rows) == res.t.size
        assert float(rows[0][0]) == pytest.approx(res.t[0])
        summary = json.loads(summary_path.read_text())
        assert summary["steady_state_max_y"] == pytest.approx(
            res.summary["steady_state_max_y"]
        )

    def test_degenerate_horizon_has_zero_jumps(self, tmp_path):
        # horizon shorter than the clock's minimum gap: pure flow, valid CSV
        csv_path = tmp_path / "flow.csv"
        cfg = ScenarioConfig(
            sim={"horizon": 0.05, "dt": 1e-3},
            output={"csv": str(csv_path)},
        )
        res = run_scenario(cfg)
        assert res.summary["jumps_total"] == 0
        assert csv_path.read_text().startswith(CSV_HEADER)

    def test_csv_is_deterministic(self, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for p in paths:
            cfg = ScenarioConfig(
                identifier={"kind": "ls", "N": 1},
                sim={"horizon": 1.0, "dt": 1e-3},
                output={"csv": str(p)},
            )
            run_scenario(cfg)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_summary_recomputable_from_csv(self, tmp_path):
        csv_path = tmp_path / "run.csv"
        cfg = ScenarioConfig(
            identifier={"kind": "ls", "N": 1},
            sim={"horizon": 1.0, "dt": 1e-3},
            output={"csv": str(csv_path)},
        )
        res = run_scenario(cfg)
        data = np.genfromtxt(csv_path, delimiter=",", skip_header=1,
                             usecols=(0, 1, 2))
        t, j, y = data[:, 0], data[:, 1], data[:, 2]
        tail = t >= 0.8 * 1.0
        ss = float(np.max(np.abs(y[tail])))
        assert ss == pytest.approx(res.summary["steady_state_max_y"])
        exceed = np.abs(y) > 2.0 * ss
        settling = float(t[exceed][-1]) if np.any(exceed) else 0.0
        assert settling == pytest.approx(res.summary["settling_time_s"])
        assert int(j[-1]) == res.summary["jumps_total"]

    @pytest.mark.parametrize("identifier", [{}, {"kind": "ls", "N": 1}])
    def test_csv_u_is_the_applied_u(self, identifier):
        # the u column is the field's controller on each stored state, and
        # the saturation bound holds exactly
        res = run_scenario(self._short_cfg(**identifier), states=True)
        _, control = build_closed_loop(build_vdp_scenario(2.0, 2.0), _regulator())
        lay = state_layout(6)
        applied = [control(*v[lay.x_hat], v[lay.sigma_hat]) for v in res.states]
        assert np.array_equal(res.u, applied)
        assert np.max(np.abs(res.u)) <= 100.0
        assert np.any(np.abs(res.u) == 100.0)  # the bound is reached

    def test_bad_internal_model_pairing(self):
        cfg = ScenarioConfig(regulator={"F": [[-1.0]]})
        with pytest.raises(InvalidConfigError):
            run_scenario(cfg)

    @pytest.mark.parametrize("kind", ["ls", "mini-batch"])
    def test_non_finite_theta_is_integration_failure(self, monkeypatch, kind):
        # a jump that gives a non-finite theta ends the run there, naming the
        # identifier, t and j, before the flow takes that theta
        cls = {"ls": LsIdentifier, "mini-batch": MiniBatchIdentifier}[kind]

        def jump(self, eta_in, u_out):
            self.theta = np.full(self.theta.shape, np.nan)

        monkeypatch.setattr(cls, "jump", jump)
        with pytest.raises(IntegrationBlowupError) as exc:
            run_scenario(self._short_cfg(kind=kind, N=1))
        assert str(exc.value) == f"{kind} identifier's jump at t=0.1, j=0: non-finite theta"
        assert exc.value.j == 0 and exc.value.t == 0.1


class TestColumnsOnDemand:
    """The CSV columns past t, j and y are built when first read, with the
    bits the reduction computed when it built them all; a sweep cell, which
    reads only its summary, builds none."""

    COLUMNS = ("u", "u_star", "gamma_hat", "err_xhat", "err_sigmahat", "eps_star")

    @staticmethod
    def _eager_columns(res, cfg):
        """The columns as the reduction built them for every run before they
        were built on demand: a test-local copy of that code."""
        cell = scenario._wire(cfg)
        plant, ident, thetas = cell.plant, cell.ident, res.thetas
        lay = state_layout(cell.reg.d_eta)
        _, control = build_closed_loop(plant, cell.reg, ident)
        states = res.states
        n = states.shape[0]
        w_rows = states[:, lay.w]
        x_rows = states[:, lay.x]
        eta_rows = states[:, lay.eta]
        xh_rows = states[:, lay.x_hat]
        sh = states[:, lay.sigma_hat]
        xh1, xh2 = xh_rows.T.tolist()
        u = np.fromiter(map(control, xh1, xh2, sh.tolist()), dtype=float, count=n)
        u_star = plant.ustar_rows(w_rows)
        gamma_hat = np.zeros(n)
        if thetas.size:
            seg = res.j - 1
            bounds = np.flatnonzero(np.diff(seg) != 0) + 1
            starts = np.concatenate(([0], bounds))
            stops = np.concatenate((bounds, [n]))
            for s0, s1 in zip(starts, stops):
                k = seg[s0]
                if k >= 0:
                    gamma_hat[s0:s1] = ident.regressor.batch(eta_rows[s0:s1]) @ thetas[k]
        err_xhat = np.linalg.norm(x_rows - xh_rows, axis=1)
        err_sigmahat = np.abs(sh + u_star)
        if plant.theta_star is not None and ident is not None:
            eps_star = u_star - plant.tau_rows(w_rows) @ plant.theta_star
        else:
            eps_star = np.zeros(0)
        return {"u": u, "u_star": np.asarray(u_star), "gamma_hat": gamma_hat,
                "err_xhat": err_xhat, "err_sigmahat": err_sigmahat, "eps_star": eps_star}

    @pytest.mark.parametrize("cfg", [
        ScenarioConfig(identifier={"kind": "ls", "N": 3}, sim={"horizon": 1.05, "dt": 1e-3}),
        ScenarioConfig(plant={"kind": "synthetic-linear"},
                       identifier={"kind": "ls", "N": 1, "mu_f": 0.95, "omega_scale": 1e-6},
                       sim={"horizon": 1.05, "dt": 1e-3}),
        ScenarioConfig(sim={"horizon": 1.05, "dt": 1e-3}),
    ], ids=["vdp-ls-n3", "synthetic-linear-ls", "vdp-baseline"])
    def test_columns_equal_the_eager_reduction(self, cfg):
        res = run_scenario(cfg, states=True)
        want = self._eager_columns(res, cfg)
        assert res.gamma_hat.any() == bool(res.thetas.size)
        assert (res.eps_star.size > 0) == (cfg.plant["kind"] == "synthetic-linear")
        for name in self.COLUMNS:
            got = getattr(res, name)
            assert got.shape == want[name].shape, name
            assert got.tobytes() == want[name].tobytes(), name

    def test_sweep_cell_calls_no_ustar_rows(self, monkeypatch):
        build = scenario.build_vdp_scenario

        def without_ustar_rows(*args):
            spec = build(*args)

            def ustar_rows(rows):
                raise AssertionError("u_star built")

            spec.ustar_rows = ustar_rows
            return spec

        monkeypatch.setattr(scenario, "build_vdp_scenario", without_ustar_rows)
        base = ScenarioConfig(identifier={"kind": "ls", "N": 3}, sim={"horizon": 0.3, "dt": 1e-3})
        rows = run_sweep(base, "ell", [10.0, 20.0])
        assert all("error" not in r for r in rows)
        # the patch is in effect: a run's column read calls it
        with pytest.raises(AssertionError, match="u_star built"):
            run_scenario(base, states=True).u_star

    def test_sweep_cell_reads_no_column(self, monkeypatch):
        for name in self.COLUMNS:
            def read(res, name=name):
                raise AssertionError(f"{name} read")

            monkeypatch.setattr(scenario.ScenarioResult, name, property(read))
        base = ScenarioConfig(identifier={"kind": "ls", "N": 3}, sim={"horizon": 0.3, "dt": 1e-3})
        rows = run_sweep(base, "ell", [10.0, 20.0])
        assert all("error" not in r for r in rows)


def _arc_widths(monkeypatch):
    """Wrap scenario.simulate to record the column count of each arc it
    returns in this process; returns that list."""
    widths, simulate = [], scenario.simulate

    def recorded(*args, **kw):
        arc = simulate(*args, **kw)
        widths.append(arc.states.shape[1])
        return arc

    monkeypatch.setattr(scenario, "simulate", recorded)
    return widths


class TestSummaryOnly:
    """A run records y alone beside t and j unless it writes a CSV or is
    asked for its states; its summary is the same either way, and without
    the states its other columns raise."""

    CONFIGS = [
        ScenarioConfig(sim={"horizon": 2.0, "dt": 1e-3}),
        ScenarioConfig(identifier={"kind": "ls", "N": 3}, sim={"horizon": 2.0, "dt": 1e-3}),
        ScenarioConfig(identifier={"kind": "mini-batch", "N": 3},
                       clock={"t_low": 0.05, "t_high": 0.15, "strategy": "uniform", "seed": 3},
                       sim={"horizon": 2.0, "dt": 1e-3}),
    ]

    @pytest.mark.parametrize("cfg", CONFIGS, ids=["baseline", "ls-n3", "mini-batch-n3-uniform"])
    def test_summary_equals_the_full_runs(self, cfg, monkeypatch):
        widths = _arc_widths(monkeypatch)
        full, brief = run_scenario(cfg, states=True), run_scenario(cfg)
        assert brief.summary == full.summary
        assert brief.y.tobytes() == full.y.tobytes()
        assert brief.t.tobytes() == full.t.tobytes() and brief.j.tobytes() == full.j.tobytes()
        assert brief.thetas.tobytes() == full.thetas.tobytes()
        assert widths == [state_layout(cfg.regulator["d_eta"]).size, 1]
        assert brief.states is None

    def test_blowup_text_equals_the_full_runs(self):
        cfg = ScenarioConfig(plant={"p0": [1e200, 0.0]}, sim={"horizon": 1.0, "dt": 1e-3})
        texts = []
        for states in (True, False):
            with np.errstate(over="ignore", invalid="ignore"):
                with pytest.raises(IntegrationBlowupError) as exc:
                    run_scenario(cfg, states=states)
            texts.append(str(exc.value))
        assert texts[0] == texts[1]
        assert texts[0].startswith("non-finite x at t=")

    @pytest.mark.parametrize("name", TestColumnsOnDemand.COLUMNS)
    def test_columns_raise(self, name):
        res = run_scenario(self.CONFIGS[1])
        with pytest.raises(ValueError, match="this run records t, j and y alone"):
            getattr(res, name)

    def test_output_csv_records_every_state(self, tmp_path, monkeypatch):
        widths = _arc_widths(monkeypatch)
        path = tmp_path / "run.csv"
        cfg = ScenarioConfig(sim={"horizon": 0.3, "dt": 1e-3}, output={"csv": str(path)})
        res = run_scenario(cfg)
        assert widths == [state_layout(cfg.regulator["d_eta"]).size]
        assert res.states.shape == (res.t.size, widths[0])
        assert path.read_text().startswith(CSV_HEADER)
        assert len(path.read_text().splitlines()) == 1 + res.t.size

    def test_sweep_cells_record_one_column(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})  # every cell here
        widths = _arc_widths(monkeypatch)
        base = ScenarioConfig(identifier={"kind": "ls", "N": 1}, sim={"horizon": 0.3, "dt": 1e-3})
        rows = run_sweep(base, "ell", [10.0, 20.0, 40.0])
        assert all("error" not in r for r in rows)
        assert widths == [1, 1, 1]


# Prints the growth of peak RSS over one run_scenario call and the run's
# memory sum. The peak is VmHWM, the high-water mark of this process's own
# memory map: ru_maxrss would also count the parent's RSS, which a forked
# child held until its exec. Before it measures, the process wires the config
# (as validate does) and solves one small pseudoinverse: the library code that
# a first SVD pages in, about 1 MB, is the process's, as numpy's import is,
# not the run's. So are OpenBLAS's per-thread buffers (about 0.6 MB a thread
# at d_sigma = 314): the process runs with one OpenBLAS thread.
_MEASURE_RUN = """
import json, re, sys
sys.path.insert(0, sys.argv[1])
import numpy as np
from adreg import scenario
from adreg.numerics import pseudoinverse

def peak():
    with open("/proc/self/status") as fh:
        return 1024 * int(re.search(r"VmHWM:\\s*(\\d+) kB", fh.read()).group(1))

cfg = scenario.ScenarioConfig.from_dict(json.loads(sys.argv[2]))
total = scenario._wire(cfg).cost.total_bytes
pseudoinverse(np.eye(8) + 0.1)
before = peak()
scenario.run_scenario(cfg, states=True)
print(peak() - before, total)
"""


class TestMemorySum:
    """The memory sum that _wire checks covers what a run holds: the arc
    (states, t and j), the identifier's jump and the record of every jump."""

    @pytest.mark.parametrize("cfg", [
        {"sim": {"horizon": 100.0}},
        {"identifier": {"kind": "ls", "N": 1}, "sim": {"horizon": 50.0}},
        {"identifier": {"kind": "ls", "N": 5}, "sim": {"horizon": 10.0}},
    ], ids=["baseline", "ls-n1", "ls-n5"])
    def test_peak_rss_growth_within_the_sum(self, cfg):
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        out = subprocess.run([sys.executable, "-I", "-c", _MEASURE_RUN, src, json.dumps(cfg)],
                             env={**os.environ, "OPENBLAS_NUM_THREADS": "1"}, check=True,
                             capture_output=True, text=True, timeout=120).stdout
        grew, total = map(int, out.split())
        assert grew <= 1.05 * total, f"peak RSS grew {grew} bytes against a sum of {total}"

    @pytest.mark.parametrize("cfg", [
        {"sim": {"horizon": 100.0}},
        {"identifier": {"kind": "ls", "N": 5}, "sim": {"horizon": 10.0}},
        {"identifier": {"kind": "mini-batch", "N": 3},
         "clock": {"t_low": 0.05, "t_high": 0.15, "strategy": "uniform"}},
    ], ids=["baseline", "ls-n5", "mini-batch-n3-uniform"])
    def test_record_is_theta_a_jump(self, cfg):
        cost = scenario._wire(ScenarioConfig.from_dict(cfg)).cost
        assert cost.record_bytes == 8 * cost.jumps * cost.d_sigma


class TestRunSweep:
    def test_ell_axis(self):
        base = ScenarioConfig(sim={"horizon": 1.0, "dt": 1e-3})
        rows = run_sweep(base, "ell", [5.0, 20.0])
        assert [r["value"] for r in rows] == [5.0, 20.0]
        for r in rows:
            assert "steady_state_max_y" in r

    def test_bad_axis_and_empty_values(self):
        base = ScenarioConfig()
        with pytest.raises(InvalidConfigError):
            run_sweep(base, "dt", [1.0])
        with pytest.raises(InvalidConfigError):
            run_sweep(base, "ell", [])

    def test_per_cell_failure_recorded(self):
        base = ScenarioConfig(sim={"horizon": 1.0, "dt": 1e-3})
        rows = run_sweep(base, "ell", [0.5, 20.0])  # ell < 1 is invalid
        assert "error" in rows[0]
        assert "steady_state_max_y" in rows[1]

    def test_programming_error_propagates(self, monkeypatch):
        def broken(cfg):
            raise TypeError("broken cell")

        monkeypatch.setattr(scenario, "_wire", broken)
        with pytest.raises(TypeError):
            run_sweep(ScenarioConfig(), "ell", [20.0])


class TestEnsembleSweep:
    """Each cell's row equals run_scenario on that cell's config, whichever
    worker process ran it, and each cell is run exactly once."""

    @staticmethod
    def _base(**identifier):
        return ScenarioConfig(identifier=identifier, sim={"horizon": 1.05, "dt": 1e-3})

    @staticmethod
    def _serial_row(base, axis, val):
        try:  # a value out of its range fails when the cell's config is made
            if axis == "ell":
                cfg = base.replace_in("regulator", ell=float(val))
            else:
                cfg = base.replace_in("identifier", N=int(val))
            s = run_scenario(cfg).summary
        except AdregError as exc:
            return {"value": val, "error": f"{type(exc).__name__}: {exc}"}
        return {"value": val, "steady_state_max_y": s["steady_state_max_y"],
                "settling_time_s": s["settling_time_s"]}

    def _check(self, base, axis, values):
        rows = run_sweep(base, axis, values)
        assert [r["value"] for r in rows] == values
        for row in rows:
            want = self._serial_row(base, axis, row["value"])
            assert row.keys() == want.keys()
            if "error" in want:
                assert row["error"] == want["error"]
                continue
            for key in ("steady_state_max_y", "settling_time_s"):
                assert row[key] == want[key]
        return rows

    def test_ell_sweep_without_identifier(self):
        self._check(self._base(), "ell", [5.0, 10.0, 20.0, 40.0])

    def test_ell_sweep_with_ls(self):
        self._check(self._base(kind="ls", N=1), "ell", [5.0, 20.0, 40.0])

    def test_ell_sweep_with_mini_batch(self):
        self._check(self._base(kind="mini-batch", N=3, N_w=5), "ell", [5.0, 20.0, 40.0])

    def test_ell_sweep_with_ls_and_a_blowup_cell(self):
        # ell = 1e4 puts the observer's poles past RK4's stability bound at
        # dt = 1e-3: the cell that blew up is now a config error row
        rows = self._check(self._base(kind="ls", N=3), "ell", [5.0, 1e4, 20.0])
        assert rows[1]["error"].startswith("InvalidConfigError: regulator.ell gives")

    def test_n_sweep_with_ls(self):
        self._check(self._base(kind="ls"), "N", [1, 3])

    def test_invalid_cell_next_to_valid_ones(self):
        rows = self._check(self._base(), "ell", [10.0, 0.5, 20.0])
        assert "ell must be >= 1" in rows[1]["error"]
        assert "error" not in rows[0] and "error" not in rows[2]

    def test_blowup_cell_gets_its_serial_row(self):
        # at ell = 1e4 the observer's poles put RK4 at dt = 1e-3 far outside
        # its stability region: a config error row, and the others run
        rows = self._check(self._base(), "ell", [10.0, 1e4, 20.0])
        assert rows[1]["error"].startswith("InvalidConfigError: regulator.ell gives")
        assert "error" not in rows[0] and "error" not in rows[2]

    def test_blowup_cells_get_integration_error_rows(self):
        # p0 = (1e200, 0) overflows the field's inline q on the first step of
        # every cell
        base = self._base().replace_in("plant", p0=[1e200, 0.0])
        with np.errstate(over="ignore", invalid="ignore"):
            rows = self._check(base, "ell", [10.0, 20.0])
        assert [r["error"].split(":")[0] for r in rows] == ["IntegrationBlowupError"] * 2

    @staticmethod
    def _record_calls(monkeypatch, path):
        """Wrap scenario.run_scenario to append each cell's ell to ``path``,
        which calls made in forked workers reach too; returns a reader."""
        run = scenario.run_scenario

        def counted(cfg, **kw):
            with open(path, "a") as fh:
                fh.write(f"{cfg.regulator['ell']!r}\n")
            return run(cfg, **kw)

        monkeypatch.setattr(scenario, "run_scenario", counted)
        return lambda: [float(line) for line in path.read_text().split()]

    @pytest.mark.parametrize("values", [[5.0, 20.0, 40.0], [10.0, 1e4, 20.0]])
    def test_each_cell_is_one_run_scenario_call(self, monkeypatch, tmp_path, values):
        # looked up as scenario.run_scenario for every cell, as a tracer
        # that wraps it expects; a blow-up cell is run once like the others
        calls = self._record_calls(monkeypatch, tmp_path / "calls.txt")
        with np.errstate(over="ignore", invalid="ignore"):
            rows = run_sweep(self._base(), "ell", values)
        assert sorted(calls()) == sorted(values)  # every value exactly once
        assert [("error" in r) for r in rows] == [v == 1e4 for v in values]

    def test_one_cpu_runs_the_cells_in_order(self, monkeypatch, tmp_path):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        calls = self._record_calls(monkeypatch, tmp_path / "calls.txt")
        values = [40.0, 5.0, 20.0, 10.0]
        rows = run_sweep(self._base(), "ell", values)
        assert calls() == values
        assert [r["value"] for r in rows] == values

    def test_sweep_writes_no_files(self, tmp_path):
        base = ScenarioConfig(sim={"horizon": 0.3, "dt": 1e-3},
                              output={"csv": str(tmp_path / "run.csv"),
                                      "summary": str(tmp_path / "run.json")})
        rows = run_sweep(base, "ell", [10.0, 20.0])
        assert all("error" not in r for r in rows)
        assert list(tmp_path.iterdir()) == []


class TestSweepMemory:
    """W x the largest cell's memory sum fits in physical memory: a sweep
    forks only the workers whose cells fit beside this process's."""

    @pytest.mark.parametrize("cells, forks", [(1.5, 0), (2.5, 1)])
    def test_workers_fit_in_memory(self, monkeypatch, cells, forks):
        base = ScenarioConfig(sim={"horizon": 0.3, "dt": 1e-3})
        total = scenario._wire(base).cost.total_bytes  # the same for every ell
        monkeypatch.setattr(scenario, "physical_memory", lambda: int(cells * total))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        forked, fork = [], os.fork
        monkeypatch.setattr(os, "fork", lambda: forked.append(1) or fork())
        values = [5.0, 10.0, 20.0, 40.0]
        rows = run_sweep(base, "ell", values)
        assert len(forked) == forks
        assert rows == [TestEnsembleSweep._serial_row(base, "ell", v) for v in values]

    def test_cells_that_fail_to_wire_are_not_sized(self, monkeypatch):
        # N = 41 is past physical memory: its row is the memory error, and
        # the N = 1 cells still run in two workers
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        forked, fork = [], os.fork
        monkeypatch.setattr(os, "fork", lambda: forked.append(1) or fork())
        base = ScenarioConfig(identifier={"kind": "ls"}, sim={"horizon": 0.3, "dt": 1e-3})
        rows = run_sweep(base, "N", [1, 41, 1])
        assert len(forked) == 1
        assert "more than the" in rows[1]["error"]
        assert rows[0] == rows[2] == TestEnsembleSweep._serial_row(base, "N", 1)


class Unpicklable(Exception):
    def __init__(self):
        super().__init__("holds a lambda", lambda: None)


class TestSweepWorkers:
    """Three workers, whatever CPUs this box has: cells 0 and 3 run in this
    process, cells 1 and 2 in two forked children. After each case no child
    is left, running or unreaped."""

    VALUES = [10.0, 20.0, 40.0, 5.0]

    @pytest.fixture(autouse=True)
    def three_workers(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        yield
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @staticmethod
    def _base():
        return ScenarioConfig(sim={"horizon": 0.3, "dt": 1e-3})

    @staticmethod
    def _in_children(monkeypatch, act):
        """Patch scenario.run_scenario so that cells run in a child call
        ``act(cfg)`` instead; this process's cells run as before."""
        parent, run = os.getpid(), scenario.run_scenario

        def patched(cfg, **kw):
            return run(cfg, **kw) if os.getpid() == parent else act(cfg)

        monkeypatch.setattr(scenario, "run_scenario", patched)

    def test_rows_equal_serial_rows(self):
        rows = run_sweep(self._base(), "ell", self.VALUES)
        assert rows == [TestEnsembleSweep._serial_row(self._base(), "ell", v)
                        for v in self.VALUES]

    def test_adreg_error_in_a_child_is_its_cells_row(self):
        values = [10.0, 0.5, 20.0]  # 0.5 runs in the first child
        rows = run_sweep(self._base(), "ell", values)
        assert rows == [TestEnsembleSweep._serial_row(self._base(), "ell", v) for v in values]
        assert "ell must be >= 1" in rows[1]["error"]

    def test_other_exception_in_a_child_is_raised(self, monkeypatch):
        def fail(cfg):
            raise ValueError(f"bad cell {cfg.regulator['ell']:g}")

        self._in_children(monkeypatch, fail)
        with pytest.raises(ValueError, match=r"^bad cell 20$"):
            run_sweep(self._base(), "ell", self.VALUES)

    def test_exception_that_cannot_be_pickled_is_sent_as_text(self, monkeypatch):
        def fail(cfg):
            raise Unpicklable()

        self._in_children(monkeypatch, fail)
        with pytest.raises(RuntimeError, match=r"cannot be pickled(.|\n)*Unpicklable"):
            run_sweep(self._base(), "ell", self.VALUES)

    def test_child_that_exits_names_its_cells(self, monkeypatch):
        self._in_children(monkeypatch, lambda cfg: os._exit(3))
        with pytest.raises(SweepWorkerError, match=r"cells \[20\.0\] ended without a result "
                                                   r"\(exit status 3\)"):
            run_sweep(self._base(), "ell", self.VALUES)

    def test_child_killed_by_a_signal_names_it(self, monkeypatch):
        self._in_children(monkeypatch, lambda cfg: os.kill(os.getpid(), signal.SIGKILL))
        with pytest.raises(SweepWorkerError, match=r"cells \[20\.0\] ended without a result "
                                                   rf"\(killed by signal {signal.SIGKILL:d}\)"):
            run_sweep(self._base(), "ell", self.VALUES)

    def test_interrupt_in_this_process_kills_the_children(self, monkeypatch):
        parent = os.getpid()

        def patched(cfg, **kw):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            time.sleep(60)  # killed long before

        monkeypatch.setattr(scenario, "run_scenario", patched)
        t0 = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            run_sweep(self._base(), "ell", self.VALUES)
        assert time.monotonic() - t0 < 30.0
