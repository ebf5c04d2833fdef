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

from adreg import cli, hybrid, scenario
from adreg.cli import EXIT_CONFIG, EXIT_INTEGRATION, EXIT_OK, EXIT_PIPE, EXIT_THRESHOLD, main
from adreg.harness import OPTIMALITY_TOL
from adreg.hybrid import ClockConfig, arc_row_bound, jump_bound
from adreg.numerics import pseudoinverse
from adreg.regulator import Regulator


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
    @pytest.mark.parametrize("key", ["clamp", "theta_bound", "cutoff_rel", "mode"])
    def test_removed_identifier_key_is_unknown(self, write_cfg, capsys, key, command):
        # settings with one value, fixed in the code: no config or constructor takes them
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
        assert resolved["identifier"] == {"kind": "ls", "N": 3, "mu_f": 0.99,
                                          "omega_scale": 1e-3}
        assert resolved["clock"] == {"t_low": 0.1, "t_high": 0.1, "strategy": "periodic",
                                     "period": 0.1, "seed": 0}
        assert resolved["output"] == {"csv": None, "summary": None}

    @pytest.mark.parametrize("cfg,section,want", [
        ({"identifier": {"kind": "mini-batch"}}, "identifier",
         {"kind": "mini-batch", "N": 1, "N_w": 10, "omega_scale": 1e-3}),
        ({"identifier": {"kind": "none"}}, "identifier", {"kind": "none"}),
        ({"clock": {"t_low": 0.05, "t_high": 0.15, "strategy": "uniform"}}, "clock",
         {"t_low": 0.05, "t_high": 0.15, "strategy": "uniform", "seed": 0}),
        ({"plant": {"kind": "synthetic-linear"}}, "plant",
         {"kind": "synthetic-linear", "rho": 2.0, "p0": [0.1, 0.0]}),
    ], ids=["mini-batch", "none", "uniform", "synthetic-linear"])
    def test_prints_the_keys_of_its_kind(self, write_cfg, capsys, cfg, section, want):
        # every key that applies to the section's kind, with its default; no other
        assert main(["validate", write_cfg({**cfg, "sim": SHORT_SIM})]) == EXIT_OK
        out = capsys.readouterr().out
        assert json.loads(out[out.index("{"):])[section] == want

    @pytest.mark.parametrize("identifier,d_sigma", [({"kind": "none"}, 0),
                                                    ({"kind": "ls", "N": 5}, 314)],
                             ids=["none", "ls-n5"])
    def test_prints_the_runs_cost(self, write_cfg, capsys, monkeypatch, identifier, d_sigma):
        # osc-ls-n5's config: LS at N = 5 on the default pair of d_eta = 6,
        # 10 s at dt = 1e-3; the default [F G] has two non-zero diagonals,
        # and the clock ticks every 0.1 s, at 0.1, 0.2, ..., 10.0
        monkeypatch.setattr(scenario, "physical_memory", lambda: 2**30)
        path = write_cfg({"identifier": identifier, "sim": {"horizon": 10.0, "dt": 1e-3}})
        assert main(["validate", path]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == f"config ok: {path}"
        # the arc holds 13 state components, t and j a row; the jump record
        # holds theta, d_sigma floats, a jump
        rows = arc_row_bound(ClockConfig(0.1, 0.1, "periodic", 0.1, 0), 10.0, 1e-3)
        compile_bytes = scenario.FIELD_TERM_BYTES * 12 + scenario.RK4_COMPONENT_BYTES * 13
        record = 100 * 8 * d_sigma
        parts = [8 * 6 * 6, 8 * 15 * rows, compile_bytes, 10 * 8 * d_sigma**2, record]
        assert lines[1] == (f"cost: d_sigma = {d_sigma}; F {parts[0]} bytes, arc buffer "
                            f"{parts[1]} bytes, compiling {parts[2]} bytes, identifier jump "
                            f"{parts[3]} bytes, jump record {parts[4]} bytes: {sum(parts)} of "
                            f"{2**30} bytes of physical memory; closed-loop field 12 terms; "
                            "at most 100 jumps, "
                            f"d_sigma^3 x jumps = {100 * d_sigma**3}; largest |lambda| dt = 0.06")

    def test_prints_the_d_eta_of_a_given_f(self, write_cfg, capsys):
        # d_eta defaults to F's dimension when F is given
        f = [[-2.0, 1.0, 0.5], [0.5, -2.0, 1.0], [0.25, 0.5, -2.0]]
        path = write_cfg({"regulator": {"F": f, "G": [[0.5], [0.25], [1.0]]}, "sim": SHORT_SIM})
        assert main(["validate", path]) == EXIT_OK
        out = capsys.readouterr().out
        assert json.loads(out[out.index("{"):])["regulator"]["d_eta"] == 3

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
        # an observer pole of -2850 puts an RK4 step of dt = 1e-3 past its bound
        _with("regulator", "ell", 950),
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
        "ell-past-rk4", "t_low-list", "seed-negative", "horizon-list", "plant-list", "identifier-string",
        "config-int", "config-null", "csv-int", "summary-int", "p0-long", "N-fraction",
        "N_w-fraction", "d_eta-fraction", "seed-fraction", "uniform-with-period",
        "ls-with-N_w", "mini-batch-with-mu_f", "none-with-omega_scale", "horizon-huge",
        "horizon-past-bytes", "d_eta-huge",
    ])
    def test_config_error(self, write_cfg, capsys, command, cfg):
        assert main([command, write_cfg(cfg)]) == EXIT_CONFIG
        assert "config error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "validate"])
    def test_overflowing_reference_names_w0(self, write_cfg, capsys, command):
        # |w0|**3 leaves the float range in the oscillator's reference
        assert main([command, write_cfg(_with("plant", "w0", [1e200, 1]))]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == ("config error: plant.w0 = [1e+200, 1.0] is too large: the reference at "
                       "it overflows the float range\n")

    @pytest.mark.parametrize("command", ["simulate", "validate"])
    @pytest.mark.parametrize("w0", [[1e-110, 0.0], [0.0, 1e-120]])
    def test_underflowing_reference_names_w0(self, write_cfg, capsys, command, w0):
        # |w0|**3 underflows to 0 in the oscillator's reference, which divides by it
        assert main([command, write_cfg(_with("plant", "w0", w0))]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == (f"config error: plant.w0 = {w0} is too small: the reference at it "
                       "divides by |w0|**3, which underflows to 0\n")


class TestOutputPaths:
    """An output file that cannot be written is a config error of
    ``validate`` and ``simulate``, before anything runs or is created."""

    @pytest.mark.parametrize("command", ["validate", "simulate"])
    @pytest.mark.parametrize("key", ["csv", "summary"])
    def test_missing_directory(self, write_cfg, tmp_path, capsys, command, key):
        out = str(tmp_path / "nodir" / "x.out")
        path = write_cfg({"sim": {"horizon": 20.0}, "output": {key: out}})
        assert main([command, path]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"config error: output.{key} = {out!r}: no directory "
                                f"{os.path.dirname(out)!r}\n")
        assert not (tmp_path / "nodir").exists()

    @pytest.mark.parametrize("command", ["validate", "simulate"])
    def test_one_file_for_both(self, write_cfg, tmp_path, monkeypatch, capsys, command):
        # the summary would overwrite the CSV: two spellings of one path
        monkeypatch.chdir(tmp_path)
        path = write_cfg({"sim": {"horizon": 1.0}, "output": {"csv": "o.txt",
                                                              "summary": "./o.txt"}})
        assert main([command, path]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("config error: output.csv and output.summary name one file: "
                                f"{str(tmp_path / 'o.txt')!r}\n")
        assert sorted(os.listdir(tmp_path)) == ["cfg.json"]

    @pytest.mark.parametrize("command", ["validate", "simulate"])
    @pytest.mark.parametrize("key", ["csv", "summary"])
    def test_directory(self, write_cfg, tmp_path, capsys, command, key):
        path = write_cfg({"sim": {"horizon": 20.0}, "output": {key: str(tmp_path)}})
        assert main([command, path]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"config error: output.{key} = {str(tmp_path)!r} is a directory\n"

    def test_file_in_the_working_directory(self, write_cfg, tmp_path, monkeypatch, capsys):
        # a bare file name is written in the working directory
        monkeypatch.chdir(tmp_path)
        path = write_cfg({"sim": SHORT_SIM, "output": {"csv": "run.csv"}})
        assert main(["simulate", path]) == EXIT_OK
        assert (tmp_path / "run.csv").exists()

    @pytest.mark.parametrize("argv", [["sweep", "--axis", "ell", "--values", "20"],
                                      ["check-identifier"]], ids=["sweep", "check-identifier"])
    def test_commands_that_write_no_file_ignore_output(self, write_cfg, tmp_path, capsys,
                                                       argv):
        cfg = {"identifier": {"kind": "ls", "N": 1}, "sim": SHORT_SIM,
               "output": {"csv": str(tmp_path / "nodir" / "x.csv"), "summary": str(tmp_path)}}
        assert main([argv[0], write_cfg(cfg), *argv[1:]]) == EXIT_OK
        assert not (tmp_path / "nodir").exists()


class TestUsage:
    """A command line that argparse rejects exits 1, as a config error does,
    with argparse's message on stderr; -h exits 0."""

    @pytest.mark.parametrize("args,message", [
        (["simulate", "CFG", "--assert-max-y", "abc"],
         "argument --assert-max-y: invalid float value: 'abc'"),
        (["sweep", "CFG", "--axis", "foo", "--values", "1"], "argument --axis: invalid choice"),
        ([], "the following arguments are required: command"),
    ], ids=["threshold", "axis", "no-command"])
    def test_usage_error_exits_1(self, write_cfg, capsys, args, message):
        path = write_cfg({"sim": SHORT_SIM})
        assert main([path if a == "CFG" else a for a in args]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: adreg")
        assert message in captured.err

    @pytest.mark.parametrize("args", [["-h"], ["simulate", "-h"]])
    def test_help_exits_0(self, capsys, args):
        assert main(args) == EXIT_OK
        assert capsys.readouterr().out.startswith("usage: adreg")


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

    @staticmethod
    def _run(tmp_path, monkeypatch, capsys, csv):
        """simulate an LS N = 3 config that writes its summary, and a CSV when
        ``csv``; returns the arcs' widths, stdout and the summary file."""
        widths = []

        def recorded(*args, **kw):
            arc = hybrid.simulate(*args, **kw)
            widths.append(arc.states.shape[1])
            return arc

        monkeypatch.setattr(scenario, "simulate", recorded)
        tmp_path.mkdir()
        output = {"summary": str(tmp_path / "run.json")}
        if csv:
            output["csv"] = str(tmp_path / "run.csv")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"sim": SHORT_SIM, "identifier": {"kind": "ls", "N": 3},
                                    "output": output}))
        assert main(["simulate", str(path)]) == EXIT_OK
        assert (tmp_path / "run.csv").exists() == csv
        return widths, capsys.readouterr().out, (tmp_path / "run.json").read_text()

    def test_arc_is_y_alone_without_a_csv(self, tmp_path, monkeypatch, capsys):
        brief = self._run(tmp_path / "brief", monkeypatch, capsys, csv=False)
        full = self._run(tmp_path / "full", monkeypatch, capsys, csv=True)
        assert brief[0] == [1] and full[0] == [13]  # 13 = the state of d_eta = 6
        assert brief[1:] == full[1:]  # the printed and the written summary

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

    def test_nan_threshold_is_config_error(self, write_cfg, capsys):
        # no summary exceeds NaN, so such a run could never fail its threshold
        path = write_cfg({"sim": SHORT_SIM})
        assert main(["simulate", path, "--assert-max-y", "nan"]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""  # rejected before the run
        assert captured.err == "config error: --assert-max-y must be a number other than NaN\n"

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
        # the state overflows within a few steps
        ({"plant": {"p0": [1e20, 0.0]}}, "x"),
        # (x1 + p1*)**2 overflows the field's inline q, which on Python
        # floats raises OverflowError; the field takes q as nan
        ({"plant": {"p0": [1e200, 0.0]}}, "x"),
    ])
    def test_blowup_is_integration_failure_naming_its_block(self, write_cfg, capsys,
                                                            cfg, block):
        path = write_cfg({**cfg, "sim": SHORT_SIM})
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["simulate", path]) == EXIT_INTEGRATION
        err = capsys.readouterr().err
        assert err.startswith(f"integration failure: non-finite {block} at t=")


class TestIdentifierJumpFailure:
    """A config that validates but whose identifier's jump cannot give a
    finite theta is an integration failure: one line that names the
    identifier, t and j, and exit 2."""

    OVERFLOW = {"regulator": {"sat_level": 1e300, "psi_bar": 1e300},
                "plant": {"kind": "synthetic-linear", "p0": [1e160, 0.0]}, "sim": {"horizon": 1}}

    def _validate_then_simulate(self, path, capsys):
        assert main(["validate", path]) == EXIT_OK
        capsys.readouterr()
        with np.errstate(all="ignore"):
            assert main(["simulate", path]) == EXIT_INTEGRATION
        captured = capsys.readouterr()
        assert captured.out == ""
        return captured.err

    @pytest.mark.parametrize("kind,where", [("ls", "t=0.1, j=0"), ("mini-batch", "t=1, j=9")])
    def test_overflowing_sample(self, write_cfg, capsys, kind, where):
        # sigma sigma' of the first sample overflows: the LS jump solves at
        # once, the mini-batch one when its window of 10 fills
        path = write_cfg({**self.OVERFLOW, "identifier": {"kind": kind, "N": 1}})
        assert self._validate_then_simulate(path, capsys) == (
            f"integration failure: {kind} identifier's jump at {where}: matrix contains "
            "non-finite entries\n")

    MINI_BATCH = {"identifier": {"kind": "mini-batch", "N": 3},
                  "clock": {"t_low": 0.05, "t_high": 0.15, "strategy": "uniform", "seed": 1},
                  "regulator": {"ell": 5}, "sim": {"horizon": 5}}

    def test_mini_batch_residual_too_large(self, write_cfg, capsys):
        # at t = 4.96661, j = 48 the residual |G theta - b| is 1.24e-8 (1 + |b|),
        # but its backward error is 1.2e-11: the pseudoinverse's cutoff, not a
        # bad solve, leaves it, and the run ends normally
        assert main(["simulate", write_cfg(self.MINI_BATCH)]) == EXIT_OK
        assert capsys.readouterr().err == ""

    def test_mini_batch_wrong_solve_fails(self, write_cfg, capsys, monkeypatch):
        # a solve that returns twice theta leaves a residual of |b|: the
        # first full window of 10 samples fails the backward-error check
        monkeypatch.setattr("adreg.identifier.pseudoinverse", lambda m: 2.0 * pseudoinverse(m))
        err = self._validate_then_simulate(write_cfg(self.MINI_BATCH), capsys)
        assert err.startswith("integration failure: mini-batch identifier's jump at t=")
        assert ", j=9: batch solver optimality residual " in err
        assert err.endswith(" too large\n") and err.count("\n") == 1


class TestRk4StepRule:
    """A config with a linear pole on which an RK4 step of sim.dt is unstable
    is a config error that names the key, the pole and the largest dt."""

    @pytest.mark.parametrize("command", ["validate", "simulate"])
    @pytest.mark.parametrize("regulator,key,pole", [
        ({"ell": 950}, "regulator.ell", "-2850"),
        ({"F": [[-5000, 0], [0, -1]], "G": [[1], [1]]}, "regulator.F", "-5000"),
        ({"poles": [-1, -3000]}, "regulator.poles", "-3000"),
    ], ids=["ell", "F", "poles"])
    def test_unstable_step_is_config_error(self, write_cfg, capsys, command, regulator, key,
                                           pole):
        assert main([command, write_cfg({"regulator": regulator, "sim": SHORT_SIM})]) \
            == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {key} gives the linear pole {pole}, on which "
                              "an RK4 step of sim.dt = 0.001 is unstable")
        # RK4 is stable on the negative real axis to |lambda| dt = 2.785...
        bound = float(err.rsplit("sim.dt must be at most ", 1)[1])
        assert bound == pytest.approx(2.7852935634 / abs(float(pole)), rel=1e-5)

    @pytest.mark.parametrize("ell,dt", [(920.0, 1e-3), (950.0, 9.7e-4), (40.0, 1e-3)])
    def test_inside_the_bound_is_accepted(self, write_cfg, capsys, ell, dt):
        path = write_cfg({"regulator": {"ell": ell}, "sim": {"horizon": 1.0, "dt": dt}})
        assert main(["validate", path]) == EXIT_OK
        cost = capsys.readouterr().out.splitlines()[1]
        # the observer's fastest pole is -3 ell (the roots of h are -1, -2, -3)
        lambda_dt = float(cost.rsplit("; largest |lambda| dt = ", 1)[1])
        assert lambda_dt == pytest.approx(3 * ell * dt, rel=1e-3)

    @pytest.mark.parametrize("command", ["validate", "simulate"])
    def test_unstable_step_on_the_exosystem_is_config_error(self, write_cfg, capsys, command):
        # w' = (w2, -rho w1) has the poles +-i sqrt(rho): RK4 is stable on
        # them while rho dt^2 <= 8
        path = write_cfg({"plant": {"kind": "synthetic-linear", "rho": 8.1e6},
                          "sim": {"horizon": 3}})
        assert main([command, path]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "config error: plant.rho gives the linear pole 0+2846.05j, on which an RK4 step of "
            "sim.dt = 0.001 is unstable (|lambda| dt = 2.846); sim.dt must be at most "
            "0.000993808\n")

    @pytest.mark.parametrize("command", ["validate", "simulate"])
    def test_stable_step_on_the_exosystem_is_accepted(self, write_cfg, capsys, command):
        path = write_cfg({"plant": {"kind": "synthetic-linear", "rho": 7.9e6},
                          "sim": {"horizon": 3}})
        assert main([command, path]) == EXIT_OK
        assert capsys.readouterr().err == ""

    def test_sweep_cell_past_the_bound_is_an_error_row(self, write_cfg, capsys):
        path = write_cfg({"sim": SHORT_SIM})
        assert main(["sweep", path, "--axis", "ell", "--values", "20,950"]) == EXIT_OK
        rows = capsys.readouterr().out.splitlines()
        assert rows[1].endswith(",")  # no error
        assert rows[2].startswith("950,,,InvalidConfigError: regulator.ell gives the linear "
                                  "pole -2850")


class TestKeyedRangeErrors:
    """A value out of its range is a config error that names its key; a
    repeated observer root is in range."""

    @pytest.mark.parametrize("h_coeffs", [[3, 3, 1], [6, 12, 8], [0.3, 0.03, 0.001], [4, 5, 2]],
                             ids=["s+1-cubed", "s+2-cubed", "s+0.1-cubed", "s+1-squared"])
    def test_repeated_observer_roots_validate(self, write_cfg, capsys, h_coeffs):
        path = write_cfg({"regulator": {"h_coeffs": h_coeffs}, "sim": SHORT_SIM})
        assert main(["validate", path]) == EXIT_OK

    @pytest.mark.parametrize("F,G", [
        ([[0.5, 0], [0, -1]], [[1], [1]]),
        ([[0, 1], [-1, 0]], [[0], [1]]),  # eigenvalues +-i, of real part 0
        ([[0.5, 0], [0, -1]], [[1], [0]]),  # nor controllable: F is checked first
    ], ids=["unstable", "imaginary-axis", "before-controllability"])
    def test_f_not_hurwitz(self, write_cfg, capsys, F, G):
        path = write_cfg({"regulator": {"F": F, "G": G}, "sim": SHORT_SIM})
        assert main(["validate", path]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "config error: regulator.F must be Hurwitz\n"

    @pytest.mark.parametrize("command", ["validate", "simulate"])
    @pytest.mark.parametrize("cfg,error", [
        ({"regulator": {"sat_level": -1}}, "regulator.sat_level must be positive, got -1.0"),
        ({"identifier": {"kind": "ls", "N": 4}},
         "identifier.N must be an odd positive integer, got 4"),
        ({"regulator": {"F": [[-1, 0, 0], [0, -1, 0]], "G": [[0], [1]]}},
         "regulator.F must be square, got shape (2, 3)"),
        ({"regulator": {"F": [[-1, 1], [0, -1]], "G": [[0], [1], [1]]}},
         "regulator.G must be 2 x 1, got shape (3, 1)"),
        ({"regulator": {"F": [[-1, 1, 0], [0, -1, 1], [0, 0, -1]], "G": [[0], [0], [1]],
                        "d_eta": 40}},
         "regulator.d_eta = 40 does not match regulator.F, which is 3 x 3"),
    ], ids=["sat_level", "N-even", "F-not-square", "G-rows", "d_eta-not-F"])
    def test_error_names_its_key(self, write_cfg, capsys, command, cfg, error):
        assert main([command, write_cfg({**cfg, "sim": SHORT_SIM})]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {error}\n"

    @pytest.mark.parametrize("command", ["validate", "simulate"])
    @pytest.mark.parametrize("section,values,error", [
        ("identifier", {"kind": "ls", "mu_f": 1.5}, "identifier.mu_f must be in (0, 1), got 1.5"),
        ("identifier", {"kind": "ls", "omega_scale": -1},
         "identifier.omega_scale must be >= 0, got -1.0"),
        ("identifier", {"kind": "mini-batch", "N_w": 0}, "identifier.N_w must be >= 1, got 0"),
        ("clock", {"t_low": -1}, "clock.t_low must be positive, got -1.0"),
        ("clock", {"t_low": 0.2, "t_high": 0.1},
         "clock.t_low must be <= clock.t_high = 0.1, got 0.2"),
        ("clock", {"strategy": "uniform", "period": 0.1},
         "clock.period does not apply to strategy uniform"),
        ("clock", {"period": 0.5},
         "clock.period must lie in [clock.t_low, clock.t_high] = [0.1, 0.1], got 0.5"),
        ("sim", {"dt": -1}, "sim.dt must be positive, got -1.0"),
        ("sim", {"horizon": 0}, "sim.horizon must be positive, got 0.0"),
        ("plant", {"a": -1}, "plant.a must be positive, got -1.0"),
        ("plant", {"kind": "synthetic-linear", "rho": -1}, "plant.rho must be positive, got -1.0"),
        ("regulator", {"poles": [1, -2]},
         "regulator.poles must be two negative numbers, got [1.0, -2.0]"),
        ("regulator", {"d_eta": 0}, "regulator.d_eta must be >= 1, got 0"),
        # a key given under a kind it does not apply to
        ("plant", {"kind": "synthetic-linear", "a": 5},
         "plant.a does not apply to kind synthetic-linear"),
        ("identifier", {"kind": "none", "N": 5}, "identifier.N does not apply to kind none"),
        # dt against t_low: the simulator's own guard, hybrid.check_step
        ("sim", {"dt": 0.5}, "sim.dt must be at most clock.t_low / 10 = 0.01, got 0.5"),
    ], ids=["mu_f", "omega_scale", "N_w", "t_low", "t_low-past-t_high", "uniform-period",
            "period-outside", "dt", "horizon", "a", "rho", "poles", "d_eta", "a-synthetic-linear",
            "N-none", "dt-past-t_low"])
    def test_one_section_out_of_range(self, write_cfg, capsys, command, section, values, error):
        # every other key takes its default
        assert main([command, write_cfg({section: values})]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"config error: {error}\n"

    def test_sweep_cell_of_even_n_names_its_key(self, write_cfg, capsys):
        path = write_cfg({"identifier": {"kind": "ls"}, "sim": SHORT_SIM})
        assert main(["sweep", path, "--axis", "N", "--values", "1,2"]) == EXIT_OK
        rows = capsys.readouterr().out.splitlines()
        assert rows[1].endswith(",")  # no error
        assert rows[2] == ("2,,,InvalidConfigError: identifier.N must be an odd positive "
                           "integer, got 2.0")

    def test_n_sweep_without_identifier_is_config_error(self, write_cfg, capsys):
        path = write_cfg({"identifier": {"kind": "none"}, "sim": SHORT_SIM})
        assert main(["sweep", path, "--axis", "N", "--values", "1,3,5"]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error: sweep axis N needs an identifier")


class TestIdentifierMemory:
    """An identifier whose jump would hold more bytes than physical memory is
    a config error, found before anything is allocated; its key is named
    first, as the largest part of the run's memory."""

    @pytest.mark.parametrize("command", ["validate", "simulate"])
    def test_order_past_memory_is_config_error(self, write_cfg, capsys, monkeypatch,
                                               command):
        monkeypatch.setattr(scenario, "physical_memory", lambda: 64 * 2**20)
        path = write_cfg({"identifier": {"kind": "ls", "N": 9}, "sim": SHORT_SIM})
        assert main([command, path]) == EXIT_CONFIG
        err = capsys.readouterr().err
        # 10 arrays of d_sigma^2 8-byte floats
        assert err.startswith("config error: identifier.N = 9: a jump of d_sigma = 3108 "
                              f"regressor components, about {10 * 8 * 3108**2} bytes; ")
        assert f" bytes in all, more than the {64 * 2**20} bytes of physical memory\n" in err

    def test_jump_record_past_memory_is_config_error(self, write_cfg, capsys, monkeypatch):
        # a jump every 0.01 s for 1e5 s: theta per jump outweighs the arc's
        # rows between jumps
        monkeypatch.setattr(scenario, "physical_memory", lambda: 2**30)
        cfg = {"identifier": {"kind": "ls", "N": 5}, "clock": {"t_low": 0.01, "t_high": 0.01},
               "sim": {"horizon": 1e5}}
        assert main(["validate", write_cfg(cfg)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        jumps = jump_bound(ClockConfig(0.01, 0.01, "periodic", 0.01, 0), 1e5)
        assert err.startswith(f"config error: identifier.N = 5: a record of {jumps} jumps, "
                              f"{jumps * 8 * 314} bytes; sim.horizon / sim.dt = 100000.0 / "
                              "0.001: an arc buffer ")

    def test_order_that_fits_runs(self, write_cfg, capsys, monkeypatch):
        # N = 5: d_sigma = 314, about 7.9 MB of jump arrays
        monkeypatch.setattr(scenario, "physical_memory", lambda: 64 * 2**20)
        path = write_cfg({"identifier": {"kind": "ls", "N": 5}, "sim": SHORT_SIM})
        assert main(["validate", path]) == EXIT_OK

    @pytest.mark.parametrize("command", ["validate", "simulate"])
    @pytest.mark.parametrize("n,d_sigma", [(21, "d_sigma = 166166 "),
                                           (1e300, "at least d_sigma = ")])
    def test_huge_order_is_config_error(self, write_cfg, capsys, command, n, d_sigma):
        path = write_cfg({"identifier": {"kind": "mini-batch", "N": n}, "sim": SHORT_SIM})
        assert main([command, path]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"config error: identifier.N = {n:.6g}: a jump of {d_sigma}")


class TestWiringMemory:
    """What a run holds in memory at most (F, the arc buffer, the peak of
    compiling the field and the RK4 step, one identifier jump and the record
    of every jump) is summed and compared with physical memory once, before
    any of it is allocated or compiled. The error names each part's key and
    bytes, largest first, then the sum and the memory."""

    MEMORY = 2**20

    @staticmethod
    def _nothing_built(monkeypatch):
        """Make building the regulator (and so F), compiling the field and
        allocating the arc fail the test."""
        for name in ("Regulator", "build_closed_loop", "simulate"):
            def fail(*args, name=name, **kw):
                raise AssertionError(f"{name} called")

            monkeypatch.setattr(scenario, name, fail)

    @pytest.mark.parametrize("command", ["validate", "simulate"])
    def test_f_past_memory_is_config_error(self, write_cfg, capsys, monkeypatch, command):
        # the default pair of d_eta = 512: F is 2 MB, and compiling its field
        # of 1,024 terms and the RK4 step of 519 components about 11 MB
        monkeypatch.setattr(scenario, "physical_memory", lambda: self.MEMORY)
        self._nothing_built(monkeypatch)
        path = write_cfg({"regulator": {"d_eta": 512}, "sim": SHORT_SIM})
        assert main([command, path]) == EXIT_CONFIG
        err = capsys.readouterr().err
        compile_bytes = scenario.FIELD_TERM_BYTES * 1024 + scenario.RK4_COMPONENT_BYTES * 519
        assert err.startswith("config error: regulator.d_eta = 512: compiling 1024 field terms "
                              f"and 519 RK4 components, about {compile_bytes} bytes; ")
        assert f"; regulator.d_eta = 512: F, {8 * 512**2} bytes; " in err
        assert f" bytes in all, more than the {self.MEMORY} bytes of physical memory\n" in err

    @pytest.mark.parametrize("command", ["validate", "simulate"])
    def test_arc_past_memory_is_config_error(self, write_cfg, capsys, monkeypatch, command):
        monkeypatch.setattr(scenario, "physical_memory", lambda: self.MEMORY)
        self._nothing_built(monkeypatch)
        path = write_cfg({"sim": {"horizon": 20.0, "dt": 1e-3}})
        assert main([command, path]) == EXIT_CONFIG
        err = capsys.readouterr().err
        rows = arc_row_bound(ClockConfig(0.1, 0.1, "periodic", 0.1, 0), 20.0, 1e-3)
        assert err.startswith(f"config error: sim.horizon / sim.dt = 20.0 / 0.001: an arc "
                              f"buffer of {rows} rows, {8 * 15 * rows} bytes; ")
        assert f" bytes in all, more than the {self.MEMORY} bytes of physical memory\n" in err

    @pytest.mark.parametrize("command", ["validate", "simulate"])
    def test_field_past_memory_is_config_error(self, write_cfg, capsys, monkeypatch, command):
        # a dense explicit pair of d_eta = 16 (the default pair perturbed in
        # every entry): the field sums the 272 entries of [F G], about 0.5 MB
        # to compile, and the RK4 step of 23 components about 0.4 MB; the 1 s
        # arc is about 0.2 MB
        memory = 2**18
        monkeypatch.setattr(scenario, "physical_memory", lambda: memory)
        im = Regulator(**{**scenario.ScenarioConfig().regulator, "d_eta": 16})
        rng = np.random.default_rng(1)
        f = im.F + 0.01 * rng.standard_normal((16, 16))
        g = im.G + 0.01 * rng.standard_normal((16, 1))
        self._nothing_built(monkeypatch)
        cfg = {"regulator": {"F": f.tolist(), "G": g.tolist()}, "sim": SHORT_SIM}
        assert main([command, write_cfg(cfg)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        nbytes = scenario.FIELD_TERM_BYTES * 272 + scenario.RK4_COMPONENT_BYTES * 23
        assert err.startswith("config error: regulator.F: compiling 272 field terms and 23 RK4 "
                              f"components, about {nbytes} bytes; ")
        assert f"; regulator.F: F, {8 * 16**2} bytes; " in err
        assert f" bytes in all, more than the {memory} bytes of physical memory\n" in err

    @pytest.mark.parametrize("command", ["validate", "simulate"])
    def test_rk4_step_past_memory_is_config_error(self, write_cfg, capsys, monkeypatch,
                                                  command):
        # the default pair of d_eta = 100: its field sums 200 terms, about
        # 0.4 MB to compile, but its RK4 step of 107 components takes about
        # 1.9 MB; F is 80 KB and the 1 s arc about 0.9 MB
        memory = 3 * 2**19
        monkeypatch.setattr(scenario, "physical_memory", lambda: memory)
        self._nothing_built(monkeypatch)
        path = write_cfg({"regulator": {"d_eta": 100}, "sim": SHORT_SIM})
        assert main([command, path]) == EXIT_CONFIG
        err = capsys.readouterr().err
        nbytes = scenario.FIELD_TERM_BYTES * 200 + scenario.RK4_COMPONENT_BYTES * 107
        assert err.startswith("config error: regulator.d_eta = 100: compiling 200 field terms "
                              f"and 107 RK4 components, about {nbytes} bytes; ")
        assert f" bytes in all, more than the {memory} bytes of physical memory\n" in err

    @pytest.mark.parametrize("command", ["validate", "simulate"])
    def test_parts_that_fit_alone_are_summed(self, write_cfg, capsys, monkeypatch, command):
        # the default pair of d_eta = 100 over 1 s: compiling the field and the
        # RK4 step (2,326,000 bytes), the arc buffer (900,776) and F (80,000)
        # each fit in 3 MiB, and their sum, 3,306,776 bytes, does not
        memory = 3 * 2**20
        monkeypatch.setattr(scenario, "physical_memory", lambda: memory)
        self._nothing_built(monkeypatch)
        path = write_cfg({"regulator": {"d_eta": 100}, "sim": SHORT_SIM})
        assert main([command, path]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        rows = arc_row_bound(ClockConfig(0.1, 0.1, "periodic", 0.1, 0), 1.0, 1e-3)
        assert rows * 109 * 8 == 900776
        assert captured.err == (
            "config error: regulator.d_eta = 100: compiling 200 field terms and 107 RK4 "
            "components, about 2326000 bytes; sim.horizon / sim.dt = 1.0 / 0.001: an arc "
            f"buffer of {rows} rows, 900776 bytes; regulator.d_eta = 100: F, 80000 bytes; "
            f"3306776 bytes in all, more than the {memory} bytes of physical memory\n")

    def test_config_that_fits_runs(self, write_cfg, capsys, monkeypatch):
        # a 1 s arc of 13 floats a row is about 0.1 MB, and compiling the field
        # and the RK4 step about 0.26 MB
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

    @pytest.mark.parametrize("p0", [1e3, 1e20])
    def test_failed_run_prints_one_line(self, write_cfg, p0):
        # in a process of its own: pytest would capture numpy's warnings
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        path = write_cfg({"plant": {"p0": [p0, 0]}, "identifier": {"kind": "ls", "N": 5},
                          "sim": {"horizon": 2}})
        code = ("import sys; sys.path.insert(0, sys.argv[1]); from adreg.cli import main; "
                "sys.exit(main(sys.argv[2:]))")
        run = subprocess.run([sys.executable, "-I", "-c", code, src, "simulate", path],
                             capture_output=True, text=True, timeout=60)
        assert run.returncode == EXIT_INTEGRATION
        assert run.stdout == ""
        assert len(run.stderr.splitlines()) == 1
        assert run.stderr.startswith("integration failure: non-finite x at t=")


# Runs main() on sys.argv[2:] in a process pinned to one CPU, so that a sweep
# runs every cell in it, with each numpy.linalg function and numpy.roots
# wrapped to count its calls by name, and each gufunc of
# numpy.linalg._umath_linalg, through which numpy.linalg enters LAPACK, counted
# as "lapack.<name>"; prints the exit code and the counts as its last line.
_COUNT_LINALG = """
import collections, json, os, sys
sys.path.insert(0, sys.argv[1])
os.sched_setaffinity(0, [min(os.sched_getaffinity(0))])
import numpy as np
from numpy.linalg import _umath_linalg

calls = collections.Counter()

def counted(name, fn):
    def wrapper(*args, **kw):
        calls[name] += 1
        return fn(*args, **kw)
    return wrapper

for name in np.linalg.__all__:
    if not isinstance(getattr(np.linalg, name), type):
        setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
for name, fn in vars(_umath_linalg).items():
    if isinstance(fn, np.ufunc):
        setattr(_umath_linalg, name, counted("lapack." + name, fn))
np.roots = counted("roots", np.roots)
from adreg.cli import main
code = main(sys.argv[2:])
print(code, json.dumps(calls, sort_keys=True))
"""


class TestLinalgCalls:
    """A run of the default regulator pair and observer polynomial enters
    LAPACK only through its identifier's jump solves: the regulator's linear
    poles come in closed form."""

    def _counts(self, write_cfg, argv, cfg):
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        path = write_cfg({**cfg, "sim": {"horizon": 0.3, "dt": 1e-3}})
        out = subprocess.run([sys.executable, "-I", "-c", _COUNT_LINALG, src, argv[0], path,
                              *argv[1:]], check=True, capture_output=True, text=True,
                             timeout=60).stdout.splitlines()
        code, calls = out[-1].split(" ", 1)
        assert code == "0"
        return "\n".join(out[:-1]), json.loads(calls)

    @pytest.mark.parametrize("argv,cfg", [
        (["sweep", "--axis", "ell", "--values", "10,20"], {}),
        (["simulate"], {"identifier": {"kind": "none"}}),
    ], ids=["sweep", "simulate-none"])
    def test_no_identifier_no_call(self, write_cfg, argv, cfg):
        assert self._counts(write_cfg, argv, cfg)[1] == {}

    def test_ls_run_solves_once_a_jump(self, write_cfg):
        out, calls = self._counts(write_cfg, ["simulate"], {"identifier": {"kind": "ls", "N": 3}})
        jumps = json.loads(out)["jumps_total"]
        assert jumps > 0
        # saturate's norm of a vector is a dot product, not a LAPACK routine
        assert calls.pop("norm") > 0
        lapack = {name: n for name, n in calls.items() if name.startswith("lapack.")}
        assert {name: n for name, n in calls.items() if name not in lapack} == {"svd": jumps}
        assert all(name.startswith("lapack.svd") for name in lapack)
        assert sum(lapack.values()) == jumps

    def test_dense_f_takes_eigvals_and_controllability(self, write_cfg):
        cfg = {"regulator": {"F": [[-2, 1, 0.5], [0.5, -2, 1], [0.25, 0.5, -2]],
                             "G": [[0.5], [0.25], [1]]}}
        calls = self._counts(write_cfg, ["simulate"], cfg)[1]
        assert calls["eigvals"] == calls["lapack.eigvals"] == 1
        assert calls["svd"] >= 1  # is_controllable's staircase
        assert "roots" not in calls


class TestClosedStdout:
    """A stdout whose reader has gone (``adreg validate cfg.json | true``) ends
    the command with exit 141, 128 + SIGPIPE, and nothing on stderr."""

    @pytest.mark.parametrize("argv", [
        ["validate"], ["simulate"], ["sweep", "--axis", "ell", "--values", "10,20"],
    ], ids=["validate", "simulate", "sweep"])
    def test_exit_141_and_empty_stderr(self, write_cfg, argv):
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        path = write_cfg({"sim": {"horizon": 0.3, "dt": 1e-3}})
        code = ("import sys; sys.path.insert(0, sys.argv[1]); from adreg.cli import main; "
                "sys.exit(main(sys.argv[2:]))")
        read, write = os.pipe()
        os.close(read)  # every write to stdout fails with EPIPE
        try:
            run = subprocess.run([sys.executable, "-I", "-c", code, src, argv[0], path,
                                  *argv[1:]], stdout=write, stderr=subprocess.PIPE, text=True,
                                 timeout=60)
        finally:
            os.close(write)
        assert run.returncode == EXIT_PIPE == 141
        assert run.stderr == ""


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

    def test_dead_worker_prints_one_line(self, write_cfg, capsys, monkeypatch):
        # two workers; the forked one ends without sending its row, as one
        # killed for memory would
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        parent, run = os.getpid(), scenario.run_scenario
        monkeypatch.setattr(scenario, "run_scenario",
                            lambda cfg, **kw: run(cfg, **kw) if os.getpid() == parent
                            else os._exit(3))
        path = write_cfg({"sim": SHORT_SIM})
        assert main(["sweep", path, "--axis", "ell", "--values", "10,20"]) == EXIT_INTEGRATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("sweep failure: the sweep worker for cells [20.0] ended "
                                "without a result (exit status 3)\n")


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

    def test_core_process_steps_at_sim_dt(self, write_cfg, capsys):
        # a clock of t_low = 0.009 needs a dt of at most 0.0009; the config's
        # runs, where a fixed 1e-3 would be rejected
        path = write_cfg({"identifier": {"kind": "mini-batch", "N": 1, "N_w": 10},
                          "clock": {"t_low": 0.009, "t_high": 0.009},
                          "sim": {"dt": 9e-4, "horizon": 1}})
        assert main(["validate", path]) == EXIT_OK
        capsys.readouterr()
        assert main(["check-identifier", path]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.splitlines()[:3] == ["optimality: PASS", "stability: PASS",
                                                 "regularity: PASS"]

    def test_fast_clock_passes(self, write_cfg, capsys):
        # a clock of t_low = 0.005 gives 2,000 samples in the 10 s core
        # process: the oracle solves at each of them, from one product each
        path = write_cfg({"identifier": {"kind": "ls", "N": 1},
                          "clock": {"t_low": 0.005, "t_high": 0.005},
                          "sim": {"dt": 1e-4, "horizon": 1}})
        assert main(["check-identifier", path]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.splitlines()[:3] == ["optimality: PASS", "stability: PASS",
                                                 "regularity: PASS"]

    def test_mini_batch_oracle_is_not_the_solver(self, write_cfg, capsys):
        # the oracle forms the window's Gram as one product, not by the
        # solver's own sum of outer products, so theta and theta* differ in
        # their last bits, within the tolerance
        path = write_cfg({"identifier": {"kind": "mini-batch", "N": 3, "N_w": 10}})
        assert main(["check-identifier", path]) == EXIT_OK
        report = dict(line.split(": ") for line in capsys.readouterr().out.splitlines())
        assert report["optimality"] == "PASS"
        assert 0.0 < float(report["optimality_worst_dev"]) <= OPTIMALITY_TOL

    def test_window_of_every_sample_passes(self, write_cfg, capsys):
        # the 10 s core process of a 0.1 s clock has 100 samples: a window of
        # 100 fills at the last one, and the oracle compares theta there
        path = write_cfg({"identifier": {"kind": "mini-batch", "N": 1, "N_w": 100}})
        assert main(["check-identifier", path]) == EXIT_OK
        out = capsys.readouterr().out
        assert "optimality: PASS" in out
        assert "j_star: 100" in out

    @pytest.mark.parametrize("n_w", [101, 1000])
    def test_window_past_the_samples_is_config_error(self, write_cfg, capsys, n_w):
        path = write_cfg({"identifier": {"kind": "mini-batch", "N": 1, "N_w": n_w}})
        assert main(["check-identifier", path]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"config error: identifier.N_w = {n_w} is more than the 100 "
                                "samples of check-identifier's 10 s core process\n")

    @pytest.mark.parametrize("clock,keys", [
        ({"t_low": 20, "t_high": 20, "period": 20}, "clock.t_low = 20.0, clock.period = 20.0"),
        ({"t_low": 20, "t_high": 30, "strategy": "uniform"}, "clock.t_low = 20.0"),
    ], ids=["periodic", "uniform"])
    def test_clock_without_a_jump_is_config_error(self, write_cfg, capsys, clock, keys):
        path = write_cfg({"identifier": {"kind": "ls", "N": 1}, "clock": clock,
                          "sim": {"horizon": 100}})
        assert main(["validate", path]) == EXIT_OK
        capsys.readouterr()
        assert main(["check-identifier", path]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"config error: {keys}: the clock makes no jump in "
                                "check-identifier's 10 s core process\n")

    def test_overflowing_core_process_names_w0(self, write_cfg, capsys):
        # sigma sigma' of the core process's first sample overflows the Gram
        path = write_cfg({"identifier": {"kind": "ls", "N": 1},
                          "plant": {"kind": "synthetic-linear", "w0": [1e160, 0]},
                          "sim": {"horizon": 1}})
        assert main(["check-identifier", path]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("config error: plant.w0 = [1e+160, 0.0]: the identifier's jump "
                                "on check-identifier's 10 s core process from it fails: matrix "
                                "contains non-finite entries\n")

    @pytest.mark.parametrize("t_low,sim", [
        (1e-16, {"horizon": 1e-15, "dt": 1e-18}),  # more rows than an array can index
        (1e-9, {"horizon": 1e-8, "dt": 1e-10}),  # 4.16e12 bytes
    ], ids=["past-an-array", "past-memory"])
    def test_core_process_arc_too_large_names_dt(self, write_cfg, capsys, monkeypatch,
                                                 t_low, sim):
        # the config's own arc fits; the 10 s core process's at its sim.dt does not
        monkeypatch.setattr(cli, "physical_memory", lambda: 2**33)
        path = write_cfg({"identifier": {"kind": "ls", "N": 1},
                          "clock": {"t_low": t_low, "t_high": t_low}, "sim": sim})
        assert main(["validate", path]) == EXIT_OK
        capsys.readouterr()
        assert main(["check-identifier", path]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"config error: sim.dt = {sim['dt']!r}: the arc of "
                                "check-identifier's 10 s core process does not fit in the "
                                "8589934592 bytes of physical memory\n")

    def test_walk_past_memory_names_n(self, write_cfg, capsys, monkeypatch):
        # LS N = 5 over 1 s: validate sums 8,295,048 bytes, check-identifier's
        # walk 17,659,360 (11 states of xi1, xi2 and theta, a jump, and the
        # oracle's rows and Gram); a memory between them runs the first only
        path = write_cfg({"identifier": {"kind": "ls", "N": 5}, "sim": {"horizon": 1}})
        memory = scenario._run_cost(scenario.ScenarioConfig.from_json(path))[2].total_bytes \
            + 2**22
        monkeypatch.setattr(scenario, "physical_memory", lambda: memory)
        monkeypatch.setattr(cli, "physical_memory", lambda: memory)
        assert main(["validate", path]) == EXIT_OK
        capsys.readouterr()
        assert main(["check-identifier", path]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error: identifier.N = 5: check-identifier's "
                                       "walk at d_sigma = 314 holds 11 identifier states, ")
        assert captured.err.endswith(f": 17659360 bytes in all, more than the {memory} bytes "
                                     "of physical memory\n")

    def test_f_without_g_is_config_error(self, write_cfg, capsys):
        path = write_cfg({"regulator": {"F": [[-1, 1], [0, -1]]},
                          "identifier": {"kind": "ls", "N": 1}})
        assert main(["check-identifier", path]) == EXIT_CONFIG
        assert "F and G must be given together" in capsys.readouterr().err
