"""Scenario tests: configuration validation, the synthetic linear benchmark,
closed-loop wiring sanity on short runs, and output serialization."""

import csv
import json

import numpy as np
import pytest

from adreg import scenario
from adreg.errors import AdregError, InvalidConfigError
from adreg.numerics import place_poles
from adreg.plant import build_vdp_scenario
from adreg.regulator import ObserverConfig, StabilizerConfig, default_internal_model
from adreg.scenario import (
    CSV_HEADER,
    ScenarioConfig,
    build_closed_loop,
    build_synthetic_linear_plant,
    run_scenario,
    run_sweep,
    state_layout,
)


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
        im = default_internal_model(6)
        plant = build_synthetic_linear_plant(rho, im.F, im.G)
        m = np.column_stack([
            plant.extras["tau"](np.array([1.0, 0.0])),
            plant.extras["tau"](np.array([0.0, 1.0])),
        ])
        s_mat = np.array([[0.0, 1.0], [-rho, 0.0]])
        c = np.array([-rho, 0.0])
        lhs = im.F @ m - m @ s_mat
        assert np.allclose(lhs, -im.G @ c[None, :], atol=1e-10)

    @pytest.mark.parametrize("d_eta", [2, 4, 6, 9])
    @pytest.mark.parametrize("rho", [0.5, 2.0, 7.0])
    def test_tau_matches_scipy_solve_sylvester(self, d_eta, rho):
        solve_sylvester = pytest.importorskip("scipy.linalg").solve_sylvester
        im = default_internal_model(d_eta)
        plant = build_synthetic_linear_plant(rho, im.F, im.G)
        m = plant.extras["tau_rows"](np.eye(2)).T
        s_mat = np.array([[0.0, 1.0], [-rho, 0.0]])
        c = np.array([-rho, 0.0])
        want = solve_sylvester(im.F, -s_mat, -im.G.reshape(-1, 1) @ c[None, :])
        assert np.allclose(m, want, rtol=1e-12, atol=1e-14)

    def test_theta_star_reproduces_ustar_on_tau(self):
        rho = 2.0
        im = default_internal_model(6)
        plant = build_synthetic_linear_plant(rho, im.F, im.G)
        theta = plant.extras["theta_star"]
        rng = np.random.default_rng(0)
        for _ in range(10):
            w = rng.normal(size=2)
            assert float(theta @ plant.extras["tau"](w)) == pytest.approx(
                -rho * w[0], abs=1e-9
            )

    def test_tau_rows_matches_tau(self):
        im = default_internal_model(4)
        plant = build_synthetic_linear_plant(1.5, im.F, im.G)
        rows = np.random.default_rng(1).normal(size=(5, 2))
        batch = plant.extras["tau_rows"](rows)
        for i, w in enumerate(rows):
            assert np.allclose(batch[i], plant.extras["tau"](w))

    def test_invalid_rho(self):
        im = default_internal_model(3)
        with pytest.raises(InvalidConfigError):
            build_synthetic_linear_plant(-1.0, im.F, im.G)


class TestExosystem:
    @pytest.mark.parametrize("kind", ["vdp", "synthetic-linear"])
    def test_eval_s_equals_the_fields_w_rows(self, kind):
        # check-identifier integrates plant.eval_s and the closed loop the w
        # rows of its field: one exosystem, bit for bit
        rho = 1.7
        im = default_internal_model(4)
        plant = (build_vdp_scenario(2.0, rho) if kind == "vdp"
                 else build_synthetic_linear_plant(rho, im.F, im.G))
        stab = StabilizerConfig(K=[[2.0, 3.0]], sat_level=100.0)
        obs = ObserverConfig(ell=5.0, h_coeffs=[6.0, 11.0, 6.0], psi_bar=100.0)
        one, _ = build_closed_loop(plant, im, stab, obs)
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
        res = run_scenario(self._short_cfg())
        assert np.all(np.isfinite(res.states))
        assert res.t[-1] == pytest.approx(2.05)
        assert res.summary["jumps_total"] == 20
        assert res.summary["final_theta"] == []
        # baseline: no identified model, so gamma_hat stays zero
        assert np.all(res.gamma_hat == 0.0)

    def test_default_exosystem_start_is_unit_amplitude(self):
        res = run_scenario(self._short_cfg())
        assert res.states[0, 0] == pytest.approx(1.0 / np.pi)
        assert res.states[0, 1] == pytest.approx(0.0)

    def test_ls_identifier_updates_theta_each_jump(self):
        res = run_scenario(self._short_cfg(kind="ls", N=1))
        assert len(res.theta_history) == res.summary["jumps_total"]
        assert len(res.summary["final_theta"]) == 6
        assert np.any(res.gamma_hat != 0.0)

    def test_mini_batch_runs(self):
        res = run_scenario(self._short_cfg(kind="mini-batch", N=1, N_w=5))
        assert np.all(np.isfinite(res.states))
        assert len(res.summary["final_theta"]) == 6

    def test_jump_samples_match_states(self):
        res = run_scenario(self._short_cfg(kind="ls", N=1))
        j, eta, u = res.jump_samples[0]
        assert j == 0
        # the recorded eta equals the pre-jump internal-model state
        rows = np.flatnonzero(res.j == 1)
        pre = rows[0] - 1
        assert np.allclose(eta, res.states[pre, 4:10])

    def test_synthetic_linear_with_eps_star(self):
        cfg = ScenarioConfig(
            plant={"kind": "synthetic-linear"},
            identifier={"kind": "ls", "N": 1, "mu_f": 0.95, "omega_scale": 1e-6},
            sim={"horizon": 2.0, "dt": 1e-3},
        )
        res = run_scenario(cfg)
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
        res = run_scenario(self._short_cfg(**identifier))
        stab = StabilizerConfig(K=place_poles(2, 1, [-1.0, -2.0]), sat_level=100.0)
        obs = ObserverConfig(ell=20.0, h_coeffs=[6.0, 11.0, 6.0], psi_bar=100.0)
        _, control = build_closed_loop(build_vdp_scenario(2.0, 2.0),
                                       default_internal_model(6), stab, obs)
        lay = state_layout(6)
        applied = [control(*v[lay.x_hat], v[lay.sigma_hat]) for v in res.states]
        assert np.array_equal(res.u, applied)
        assert np.max(np.abs(res.u)) <= 100.0
        assert np.any(np.abs(res.u) == 100.0)  # the bound is reached

    def test_bad_internal_model_pairing(self):
        cfg = ScenarioConfig(regulator={"F": [[-1.0]]})
        with pytest.raises(InvalidConfigError):
            run_scenario(cfg)


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
        plant, ident, theta_history = cell.plant, cell.ident, res.theta_history
        lay = state_layout(cell.im.d_eta)
        _, control = build_closed_loop(plant, cell.im, cell.stab, cell.obs, ident)
        states = res.states
        n = states.shape[0]
        w_rows = states[:, lay.w]
        x_rows = states[:, lay.x]
        eta_rows = states[:, lay.eta]
        xh_rows = states[:, lay.x_hat]
        sh = states[:, lay.sigma_hat]
        xh1, xh2 = xh_rows.T.tolist()
        u = np.fromiter(map(control, xh1, xh2, sh.tolist()), dtype=float, count=n)
        u_star = plant.extras["ustar_rows"](w_rows)
        gamma_hat = np.zeros(n)
        if theta_history:
            seg = res.j - 1
            bounds = np.flatnonzero(np.diff(seg) != 0) + 1
            starts = np.concatenate(([0], bounds))
            stops = np.concatenate((bounds, [n]))
            for s0, s1 in zip(starts, stops):
                k = seg[s0]
                if k >= 0:
                    gamma_hat[s0:s1] = ident.regressor.batch(eta_rows[s0:s1]) @ theta_history[k][1]
        err_xhat = np.linalg.norm(x_rows - xh_rows, axis=1)
        err_sigmahat = np.abs(sh + u_star)
        if "tau_rows" in plant.extras and "theta_star" in plant.extras and ident is not None:
            eps_star = u_star - plant.extras["tau_rows"](w_rows) @ plant.extras["theta_star"]
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
        res = run_scenario(cfg)
        want = self._eager_columns(res, cfg)
        assert res.gamma_hat.any() == bool(res.theta_history)
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

            spec.extras["ustar_rows"] = ustar_rows
            return spec

        monkeypatch.setattr(scenario, "build_vdp_scenario", without_ustar_rows)
        base = ScenarioConfig(identifier={"kind": "ls", "N": 3}, sim={"horizon": 0.3, "dt": 1e-3})
        rows = run_sweep(base, "ell", [10.0, 20.0])
        assert all("error" not in r for r in rows)
        # the patch is in effect: a run's column read calls it
        with pytest.raises(AssertionError, match="u_star built"):
            run_scenario(base).u_star

    def test_sweep_cell_reads_no_column(self, monkeypatch):
        for name in self.COLUMNS:
            def read(res, name=name):
                raise AssertionError(f"{name} read")

            monkeypatch.setattr(scenario.ScenarioResult, name, property(read))
        base = ScenarioConfig(identifier={"kind": "ls", "N": 3}, sim={"horizon": 0.3, "dt": 1e-3})
        rows = run_sweep(base, "ell", [10.0, 20.0])
        assert all("error" not in r for r in rows)


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
    """A sweep runs its cells one at a time; each cell's row equals
    run_scenario on that cell's config."""

    @staticmethod
    def _base(**identifier):
        return ScenarioConfig(identifier=identifier, sim={"horizon": 1.05, "dt": 1e-3})

    @staticmethod
    def _serial_row(base, axis, val):
        if axis == "ell":
            cfg = base.replace_in("regulator", ell=float(val))
        else:
            cfg = base.replace_in("identifier", N=int(val))
        try:
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
        with np.errstate(over="ignore", invalid="ignore"):
            rows = self._check(self._base(kind="ls", N=3), "ell", [5.0, 1e4, 20.0])
        assert rows[1]["error"].startswith("IntegrationBlowupError")

    def test_n_sweep_with_ls(self):
        self._check(self._base(kind="ls"), "N", [1, 3])

    def test_invalid_cell_next_to_valid_ones(self):
        rows = self._check(self._base(), "ell", [10.0, 0.5, 20.0])
        assert "ell must be >= 1" in rows[1]["error"]
        assert "error" not in rows[0] and "error" not in rows[2]

    def test_blowup_cell_gets_its_serial_row(self):
        # at ell = 1e4 the observer's gains put RK4 at dt = 1e-3 far outside
        # its stability region, so that cell overflows and the others run
        with np.errstate(over="ignore", invalid="ignore"):
            rows = self._check(self._base(), "ell", [10.0, 1e4, 20.0])
        assert rows[1]["error"].startswith("IntegrationBlowupError")
        assert "error" not in rows[0] and "error" not in rows[2]

    @pytest.mark.parametrize("values", [[5.0, 20.0, 40.0], [10.0, 1e4, 20.0]])
    def test_each_cell_is_one_run_scenario_call(self, monkeypatch, values):
        # looked up as scenario.run_scenario for every cell, as a tracer
        # that wraps it expects; a blow-up cell is run once like the others
        calls = []
        run = scenario.run_scenario

        def counted(cfg):
            calls.append(cfg.regulator["ell"])
            return run(cfg)

        monkeypatch.setattr(scenario, "run_scenario", counted)
        with np.errstate(over="ignore", invalid="ignore"):
            rows = run_sweep(self._base(), "ell", values)
        assert calls == values
        assert [("error" in r) for r in rows] == [v == 1e4 for v in values]

    def test_sweep_writes_no_files(self, tmp_path):
        base = ScenarioConfig(sim={"horizon": 0.3, "dt": 1e-3},
                              output={"csv": str(tmp_path / "run.csv"),
                                      "summary": str(tmp_path / "run.json")})
        rows = run_sweep(base, "ell", [10.0, 20.0])
        assert all("error" not in r for r in rows)
        assert list(tmp_path.iterdir()) == []
