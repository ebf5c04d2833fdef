"""CLI tests: subcommands, output files, and exit codes.

main() is driven in-process with capsys rather than via subprocess, so the
exit codes are asserted on the returned value.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from adreg import scenario
from adreg.cli import EXIT_CONFIG, EXIT_INTEGRATION, EXIT_OK, EXIT_THRESHOLD, main
from adreg.hybrid import ClockConfig, arc_row_bound


@pytest.fixture
def write_cfg(tmp_path):
    def _write(cfg, name="cfg.json"):
        path = tmp_path / name
        path.write_text(json.dumps(cfg))
        return str(path)

    return _write


SHORT_SIM = {"horizon": 1.0, "dt": 1e-3}


class TestValidate:
    def test_ok(self, write_cfg, capsys):
        path = write_cfg({"sim": SHORT_SIM})
        assert main(["validate", path]) == EXIT_OK
        out = capsys.readouterr().out
        assert "config ok" in out

    def test_unknown_key(self, write_cfg, capsys):
        path = write_cfg({"sim": {"horizont": 1.0}})
        assert main(["validate", path]) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "validate"])
    @pytest.mark.parametrize("key", ["clamp", "theta_bound", "cutoff_rel"])
    def test_removed_identifier_key_is_unknown(self, write_cfg, capsys, key, command):
        # the identifiers take these as constructor arguments; a config does not
        cfg = {"sim": SHORT_SIM, "identifier": {"kind": "ls", "N": 1, key: NAN}}
        assert main([command, write_cfg(cfg)]) == EXIT_CONFIG
        assert "unknown keys in 'identifier'" in capsys.readouterr().err

    def test_prints_resolved_config(self, write_cfg, capsys):
        path = write_cfg({"identifier": {"kind": "ls", "N": 3}, "regulator": {"ell": 10}})
        assert main(["validate", path]) == EXIT_OK
        out = capsys.readouterr().out
        resolved = json.loads(out[out.index("{"):])
        assert resolved["regulator"]["ell"] == 10.0
        assert resolved["regulator"]["d_eta"] == 6
        assert resolved["identifier"] == {"kind": "ls", "N": 3, "mode": "full-multiset"}
        assert resolved["clock"] == {"t_low": 0.1, "t_high": 0.1, "strategy": "periodic",
                                     "seed": 0}
        assert resolved["output"] == {"csv": None, "summary": None}

    def test_rejects_what_simulate_rejects_before_its_first_step(self, write_cfg, capsys):
        # dt > t_low / 10 and an observer polynomial with complex roots are
        # found by wiring the config, not by resolving it
        for cfg in ({"sim": {"dt": 0.05}}, {"regulator": {"h_coeffs": [1, 1, 1]}}):
            assert main(["validate", write_cfg(cfg)]) == EXIT_CONFIG
            assert "config error:" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        assert main(["validate", str(tmp_path / "nope.json")]) == EXIT_CONFIG

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["validate", str(path)]) == EXIT_CONFIG


NAN = float("nan")


class TestNonFiniteConfig:
    @pytest.mark.parametrize("command", ["simulate", "validate"])
    @pytest.mark.parametrize("section,key,value", [
        ("regulator", "ell", "x"),
        ("regulator", "ell", None),
        ("regulator", "ell", NAN),
        ("regulator", "poles", ["x", -2]),
        ("regulator", "d_eta", "six"),
        ("regulator", "h_coeffs", [6, NAN, 6]),
        ("regulator", "sat_level", NAN),
        ("regulator", "psi_bar", NAN),
        ("plant", "rho", NAN),
        ("plant", "p0", [NAN, 0.0]),
        ("clock", "seed", "a"),
        ("clock", "period", "x"),
        ("sim", "horizon", "x"),
    ])
    def test_config_error(self, write_cfg, capsys, command, section, key, value):
        cfg = {"sim": dict(SHORT_SIM), "identifier": {"kind": "ls", "N": 1}}
        cfg.setdefault(section, {})[key] = value
        assert main([command, write_cfg(cfg)]) == EXIT_CONFIG
        assert "config error:" in capsys.readouterr().err


def _with(section, key, value):
    cfg = {"sim": dict(SHORT_SIM), "identifier": {"kind": "ls", "N": 1}}
    cfg.setdefault(section, {})[key] = value
    return cfg


class TestMalformedConfig:
    """Configs that raised a traceback or were silently truncated or ignored;
    each is a config error from ``validate`` and from ``simulate`` alike."""

    @pytest.mark.parametrize("command", ["simulate", "validate"])
    @pytest.mark.parametrize("cfg", [
        # raised a traceback
        _with("plant", "p0", [0.1]),
        _with("plant", "w0", [1, 0, 0]),
        _with("plant", "w0", [0, 0]),  # the reference has no slope at w = 0
        _with("plant", "w0", [1e200, 1]),  # |w0|**3 overflows
        _with("plant", "a", 10**400),  # an int past the float range
        _with("regulator", "d_eta", 0),
        {"regulator": {"F": [[-1, 1], [0]], "G": [[0], [1]]}, "sim": SHORT_SIM},
        {"regulator": {"F": [[-1, 1], [0, -1]], "G": 5}, "sim": SHORT_SIM},
        {"regulator": {"F": [[-1, 1], [0, -1]], "G": [[0, 1], [1, 0]]}, "sim": SHORT_SIM},
        _with("regulator", "h_coeffs", 6),
        _with("regulator", "ell", [20]),
        _with("regulator", "ell", 1e200),  # ell**3 overflows
        _with("clock", "t_low", [0.1]),
        _with("clock", "seed", -1),
        _with("sim", "horizon", [1]),
        {"plant": [1, 2]},
        {"identifier": "ls"},
        5,
        None,
        # a path, not a file descriptor: 10**6 is open nowhere, where 1 or 2
        # would write into this process's stdout or stderr and close it
        _with("output", "csv", 10**6),
        _with("output", "summary", 10**6),
        # silently truncated or ignored
        _with("plant", "p0", [0.1, 0.0, 0.0]),
        _with("identifier", "N", 3.9),
        {"identifier": {"kind": "mini-batch", "N": 1, "N_w": 10.5}, "sim": SHORT_SIM},
        _with("regulator", "d_eta", 6.7),
        _with("clock", "seed", 1.5),
        {"clock": {"t_low": 0.05, "t_high": 0.15, "strategy": "uniform", "period": 0.1},
         "sim": SHORT_SIM},
        {"identifier": {"kind": "ls", "N": 1, "N_w": 5}, "sim": SHORT_SIM},
        {"identifier": {"kind": "mini-batch", "N": 1, "mu_f": 0.5}, "sim": SHORT_SIM},
        {"identifier": {"kind": "none", "omega_scale": 1e-3}, "sim": SHORT_SIM},
        # an arc buffer past what an array can index: fails before any allocation
        _with("sim", "horizon", 1e300),
        # rows an array can index, but rows x 13 state floats x 8 bytes it cannot
        _with("sim", "horizon", 1e14),
        # d_eta x d_eta floats of F past what an array can index
        _with("regulator", "d_eta", 1e300),
    ], ids=[
        "p0-short", "w0-long", "w0-zero", "w0-huge", "a-huge-int", "d_eta-0", "F-ragged",
        "G-scalar", "G-two-columns", "h_coeffs-scalar", "ell-list", "ell-huge",
        "t_low-list", "seed-negative", "horizon-list", "plant-list", "identifier-string",
        "config-int", "config-null", "csv-int", "summary-int", "p0-long", "N-fraction",
        "N_w-fraction", "d_eta-fraction", "seed-fraction", "uniform-with-period",
        "ls-with-N_w", "mini-batch-with-mu_f", "none-with-omega_scale", "horizon-huge",
        "horizon-past-bytes", "d_eta-huge",
    ])
    def test_config_error(self, write_cfg, capsys, command, cfg):
        assert main([command, write_cfg(cfg)]) == EXIT_CONFIG
        assert "config error:" in capsys.readouterr().err


class TestSimulate:
    def test_prints_summary(self, write_cfg, capsys):
        path = write_cfg({"sim": SHORT_SIM})
        assert main(["simulate", path]) == EXIT_OK
        summary = json.loads(capsys.readouterr().out)
        assert "steady_state_max_y" in summary
        assert summary["jumps_total"] > 0

    def test_writes_output_files(self, write_cfg, tmp_path, capsys):
        csv_path = tmp_path / "run.csv"
        summary_path = tmp_path / "run.json"
        path = write_cfg({
            "sim": SHORT_SIM,
            "identifier": {"kind": "ls", "N": 1},
            "output": {"csv": str(csv_path), "summary": str(summary_path)},
        })
        assert main(["simulate", path]) == EXIT_OK
        assert csv_path.exists() and summary_path.exists()
        assert csv_path.read_text().startswith("t,j,y,")

    def test_assert_max_y_pass_and_fail(self, write_cfg, capsys):
        path = write_cfg({"sim": SHORT_SIM})
        assert main(["simulate", path, "--assert-max-y", "1e6"]) == EXIT_OK
        capsys.readouterr()
        assert main(["simulate", path, "--assert-max-y", "1e-12"]) == EXIT_THRESHOLD
        assert "exceeds threshold" in capsys.readouterr().err

    def test_output_path_that_is_a_directory(self, write_cfg, tmp_path, capsys):
        path = write_cfg({"sim": SHORT_SIM, "output": {"csv": str(tmp_path)}})
        assert main(["simulate", path]) == EXIT_CONFIG
        assert "config error:" in capsys.readouterr().err

    def test_bad_config_value(self, write_cfg, capsys):
        path = write_cfg({"regulator": {"ell": 0.5}, "sim": SHORT_SIM})
        assert main(["simulate", path]) == EXIT_CONFIG

    @pytest.mark.parametrize("identifier", [
        {"kind": "ls", "omega_scale": -1.0},
        {"kind": "mini-batch", "omega_scale": -1.0},
        {"kind": "mini-batch", "N_w": 0},
        {"kind": "mini-batch", "N_w": -3},
    ])
    def test_bad_identifier_value(self, write_cfg, capsys, identifier):
        path = write_cfg({"identifier": {"N": 1, **identifier}, "sim": SHORT_SIM})
        assert main(["simulate", path]) == EXIT_CONFIG
        assert "config error:" in capsys.readouterr().err

    @pytest.mark.parametrize("cfg,block", [
        # the observer's gains at ell = 1e4 put RK4 at dt = 1e-3 far outside
        # its stability region
        ({"regulator": {"ell": 1e4}}, "x"),
        # (x1 + p1*)**2 overflows in fast_q, which on Python floats raises
        # OverflowError where a numpy scalar gives inf
        ({"plant": {"p0": [1e200, 0.0]}}, "x"),
    ])
    def test_blowup_is_integration_failure_naming_its_block(self, write_cfg, capsys,
                                                            cfg, block):
        path = write_cfg({**cfg, "sim": SHORT_SIM})
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["simulate", path]) == EXIT_INTEGRATION
        err = capsys.readouterr().err
        assert err.startswith(f"integration failure: non-finite {block} at t=")


class TestIdentifierMemory:
    """An identifier whose jump would hold more bytes than physical memory is
    a config error, found before anything is allocated."""

    @pytest.mark.parametrize("command", ["validate", "simulate"])
    def test_order_past_memory_is_config_error(self, write_cfg, capsys, monkeypatch,
                                               command):
        monkeypatch.setattr(scenario, "physical_memory", lambda: 64 * 2**20)
        path = write_cfg({"identifier": {"kind": "ls", "N": 9}, "sim": SHORT_SIM})
        assert main([command, path]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: identifier.N = 9 gives d_sigma = 3108 ")
        # 12 arrays of d_sigma^2 8-byte floats
        assert f"holds about {12 * 8 * 3108**2} bytes, more than the {64 * 2**20} " in err

    def test_order_that_fits_runs(self, write_cfg, capsys, monkeypatch):
        # N = 5: d_sigma = 314, about 9.5 MB of jump arrays
        monkeypatch.setattr(scenario, "physical_memory", lambda: 64 * 2**20)
        path = write_cfg({"identifier": {"kind": "ls", "N": 5}, "sim": SHORT_SIM})
        assert main(["validate", path]) == EXIT_OK

    @pytest.mark.parametrize("command", ["validate", "simulate"])
    @pytest.mark.parametrize("n,d_sigma", [(21, "d_sigma = 166166 "),
                                           (1e300, "at least d_sigma = ")])
    def test_huge_order_is_config_error(self, write_cfg, capsys, command, n, d_sigma):
        path = write_cfg({"identifier": {"kind": "mini-batch", "N": n}, "sim": SHORT_SIM})
        assert main([command, path]) == EXIT_CONFIG
        assert d_sigma in capsys.readouterr().err


class TestWiringMemory:
    """A default F or an arc buffer with more bytes than physical memory is a
    config error, found before either is allocated."""

    MEMORY = 2**20

    @pytest.mark.parametrize("command", ["validate", "simulate"])
    def test_f_past_memory_is_config_error(self, write_cfg, capsys, monkeypatch, command):
        monkeypatch.setattr(scenario, "physical_memory", lambda: self.MEMORY)

        def allocate_f(d_eta):
            raise AssertionError("F allocated")

        monkeypatch.setattr(scenario, "default_internal_model", allocate_f)
        path = write_cfg({"regulator": {"d_eta": 512}, "sim": SHORT_SIM})
        assert main([command, path]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: regulator.d_eta = 512 asks for an F ")
        assert f" of {8 * 512**2} bytes, more than the {self.MEMORY} bytes " in err

    @pytest.mark.parametrize("command", ["validate", "simulate"])
    def test_arc_past_memory_is_config_error(self, write_cfg, capsys, monkeypatch, command):
        monkeypatch.setattr(scenario, "physical_memory", lambda: self.MEMORY)

        def allocate_arc(*args):
            raise AssertionError("arc allocated")

        monkeypatch.setattr(scenario, "simulate", allocate_arc)
        path = write_cfg({"sim": {"horizon": 20.0, "dt": 1e-3}})
        assert main([command, path]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: sim.horizon / sim.dt = 20.0 / 0.001 asks for an "
                              "arc buffer ")
        rows = arc_row_bound(ClockConfig(t_low=0.1, t_high=0.1), 20.0, 1e-3)
        assert f" of {8 * 13 * rows} bytes, more than the {self.MEMORY} bytes " in err

    def test_config_that_fits_runs(self, write_cfg, capsys, monkeypatch):
        # a 1 s arc of 13 floats a row is about 0.1 MB
        monkeypatch.setattr(scenario, "physical_memory", lambda: self.MEMORY)
        assert main(["simulate", write_cfg({"sim": SHORT_SIM})]) == EXIT_OK


class TestImport:
    def test_cli_import_loads_no_scipy(self):
        # scipy serves only the test suite; a run never imports it
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        code = ("import sys; sys.path.insert(0, sys.argv[1]); import adreg.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        out = subprocess.run([sys.executable, "-I", "-c", code, src], check=True,
                             capture_output=True, text=True, timeout=60).stdout
        assert out.strip() == "[]"

    @pytest.mark.parametrize("argv,cfg,loads", [
        (["simulate"], {"identifier": {"kind": "ls", "N": 3}}, False),
        (["sweep", "--axis", "ell", "--values", "10,20"], {}, False),
        # the uniform clock draws its gaps from numpy's generator
        (["simulate"], {"clock": {"t_low": 0.05, "t_high": 0.15, "strategy": "uniform"}},
         True),
    ], ids=["simulate-periodic", "sweep-periodic", "simulate-uniform"])
    def test_numpy_random_only_for_a_uniform_clock(self, write_cfg, tmp_path, argv, cfg,
                                                   loads):
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        path = write_cfg({**cfg, "sim": {"horizon": 0.3, "dt": 1e-3},
                          "output": {"csv": str(tmp_path / "run.csv")}})
        code = ("import sys; sys.path.insert(0, sys.argv[1]); from adreg.cli import main; "
                "code = main(sys.argv[2:]); print(code, 'numpy.random' in sys.modules)")
        out = subprocess.run([sys.executable, "-I", "-c", code, src, argv[0], path, *argv[1:]],
                             check=True, capture_output=True, text=True, timeout=60).stdout
        assert out.splitlines()[-1] == f"0 {loads}"


class TestSweep:
    def test_ell_sweep_csv(self, write_cfg, capsys):
        path = write_cfg({"sim": SHORT_SIM})
        assert main(["sweep", path, "--axis", "ell", "--values", "5,20"]) == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "value,steady_state_max_y,settling_time_s,error"
        assert len(lines) == 3
        assert lines[1].startswith("5,")

    @pytest.mark.parametrize("values", ["5,abc", "", "5,,10"])
    def test_malformed_values_are_config_error(self, write_cfg, capsys, values):
        path = write_cfg({"sim": SHORT_SIM})
        assert main(["sweep", path, "--axis", "ell", "--values", values]) == EXIT_CONFIG
        assert "config error: --values" in capsys.readouterr().err

    def test_per_cell_error_reported_in_csv(self, write_cfg, capsys):
        path = write_cfg({"sim": SHORT_SIM})
        assert main(["sweep", path, "--axis", "ell", "--values", "0.5"]) == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert "InvalidConfigError" in lines[1]


class TestCheckIdentifier:
    def test_ls_identifier_passes(self, write_cfg, capsys):
        path = write_cfg({"identifier": {"kind": "ls", "N": 1, "mu_f": 0.95}})
        assert main(["check-identifier", path]) == EXIT_OK
        out = capsys.readouterr().out
        assert "optimality: PASS" in out
        assert "stability: PASS" in out
        assert "regularity: PASS" in out

    def test_mini_batch_identifier_passes(self, write_cfg, capsys):
        path = write_cfg({"identifier": {"kind": "mini-batch", "N": 1, "N_w": 10}})
        assert main(["check-identifier", path]) == EXIT_OK
        out = capsys.readouterr().out
        assert "optimality: PASS" in out
        assert "stability: PASS" in out
        assert "regularity: PASS" in out
        assert "j_star: 10" in out

    def test_requires_identifier(self, write_cfg, capsys):
        path = write_cfg({"sim": SHORT_SIM})
        assert main(["check-identifier", path]) == EXIT_CONFIG

    def test_f_without_g_is_config_error(self, write_cfg, capsys):
        path = write_cfg({"regulator": {"F": [[-1, 1], [0, -1]]},
                          "identifier": {"kind": "ls", "N": 1}})
        assert main(["check-identifier", path]) == EXIT_CONFIG
        assert "F and G must be given together" in capsys.readouterr().err
