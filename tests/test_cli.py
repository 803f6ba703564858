import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from cnlse_ansatz import REFERENCE_PARAMS, elliptic, invariants_from_coefficients, z_curve
from cnlse_ansatz.cli import (
    BRANCH_ORDER,
    CLI_COLUMNS,
    CliError,
    _parse_grid,
    _soliton_control,
    main,
)

from _pins import P_AT_1_1, WP_03

# child processes import the package from src/, as this process does
CHILD_ENV = dict(os.environ)
CHILD_ENV["PYTHONPATH"] = os.pathsep.join(
    p for p in (str(Path(__file__).resolve().parent.parent / "src"),
                CHILD_ENV.get("PYTHONPATH")) if p
)


def body_lines(path):
    """CSV payload without the leading # comment lines."""
    with open(path, "r", encoding="utf-8") as fh:
        return [ln for ln in fh.read().splitlines() if not ln.startswith("#")]


def comment_lines(path):
    with open(path, "r", encoding="utf-8") as fh:
        return [ln for ln in fh.read().splitlines() if ln.startswith("#")]


class TestExitCodes:
    def test_default_paper_check_passes(self, capsys):
        assert main(["paper-check"]) == 0
        capsys.readouterr()

    def test_shifted_start_breaks_the_match(self, capsys):
        # moving z0 detunes P(1,1) away from 0.113 but the construction
        # still solves its ODEs: "valid run, no match" exit
        assert main(["paper-check", "--z0", "1.1"]) == 2
        out = capsys.readouterr().out
        assert "no branch matches" in out

    def test_unreachable_tolerance_fails(self, capsys):
        assert main(["paper-check", "--tol", "r_alg=1e-20"]) == 1
        capsys.readouterr()

    def test_invalid_parameters(self, capsys):
        assert main(["paper-check", "--q", "0"]) == 1
        assert "q must be nonzero" in capsys.readouterr().err

    def test_mode_required(self, capsys):
        assert main([]) == 1
        assert "mode is required" in capsys.readouterr().err

    def test_unknown_mode(self, capsys):
        assert main(["frobnicate"]) == 1
        capsys.readouterr()

    def test_unknown_tolerance_name(self, capsys):
        assert main(["paper-check", "--tol", "nope=1"]) == 1
        assert "unknown tolerance" in capsys.readouterr().err

    def test_tolerance_must_be_positive_number(self, capsys):
        assert main(["paper-check", "--tol", "r_alg=-1"]) == 1
        assert main(["paper-check", "--tol", "r_alg=abc"]) == 1
        capsys.readouterr()

    @pytest.mark.parametrize("args, message", [
        (["residuals", "--dt", "inf"], "--dt must be finite"),
        (["evolve", "--branch", "mm", "--dt", "inf"], "--dt must be finite"),
        (["paper-check", "--tol", "r_alg=inf"], "tolerance r_alg must be finite"),
        (["paper-check", "--tol", "inf"], "tolerance must be finite"),
    ])
    def test_infinite_value_is_named(self, capsys, args, message):
        # an infinite step would reach numpy as inf, and an infinite
        # tolerance would turn its verdict off
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(args) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {message}, got ")
        assert captured.out == ""

    def test_bare_tolerance_rebinds_all(self, capsys):
        # 1e-6 is loose for r1, r2 but far too tight for the 0.113 match,
        # so the run is valid but matchless
        assert main(["paper-check", "--tol", "1e-6"]) == 2
        capsys.readouterr()

    def test_empty_grid_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "scan.csv"
        rc = main(["scan", "--grid", "0.2:1.2:0,0.2:1.2:10", "--out", str(out)])
        assert rc == 1
        assert not out.exists()
        capsys.readouterr()

    def test_evolve_needs_single_branch(self, capsys):
        assert main(["evolve"]) == 1
        assert "one branch" in capsys.readouterr().err

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "cnlse_ansatz"],
            capture_output=True, text=True, timeout=60, env=CHILD_ENV,
        )
        assert proc.returncode == 1
        assert "mode is required" in proc.stderr

    def test_runs_without_scipy(self):
        # numpy is the only runtime dependency: a blocked scipy import
        # must not matter
        code = ("import sys; sys.modules['scipy'] = None; "
                "from cnlse_ansatz.cli import main; "
                "sys.exit(main(['paper-check', '--branch', 'mm']))")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, timeout=60,
                              env=CHILD_ENV)
        assert proc.returncode == 0, proc.stderr


class TestPaperCheck:
    def test_table_layout(self, capsys):
        assert main(["paper-check"]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0].startswith("point: x = 1, t = 1")
        table = [ln for ln in lines if ln[:2] in BRANCH_ORDER]
        assert [ln[:2] for ln in table] == list(BRANCH_ORDER)
        assert "solves both quartic ODEs" in out and "yes" in out
        assert "branch matching P = 0.113" in out
        assert "mm" in out.split("branch matching")[-1]

    def test_single_branch(self, capsys):
        assert main(["paper-check", "--branch", "mm"]) == 0
        out = capsys.readouterr().out
        table = [ln for ln in out.splitlines() if ln[:2] in BRANCH_ORDER]
        assert len(table) == 1 and table[0].startswith("mm")

    def test_quoted_value_appears(self, capsys):
        main(["paper-check", "--branch", "mm"])
        out = capsys.readouterr().out
        row = next(ln for ln in out.splitlines() if ln.startswith("mm"))
        assert "0.113" in row

    def test_p_column_prints_the_pinned_digits(self, capsys):
        assert main(["paper-check"]) == 0
        rows = [ln.split() for ln in capsys.readouterr().out.splitlines()
                if ln[:2] in BRANCH_ORDER]
        assert {r[0]: r[3] for r in rows} == {
            name: format(P_AT_1_1[name], ".10g") for name in BRANCH_ORDER
        }

    def test_pole_adjacent_branch_keeps_r2_out_of_the_verdict(self, capsys):
        # at t = 20000, x = 1 on mp sits next to a profile pole (|Q| = 16.8)
        # where r2's difference quotient reads 1.0e-8; the run still exits
        # 1, since |P| on pm is below the 0.05 floor
        assert main(["paper-check", "--t", "20000"]) == 1
        lines = capsys.readouterr().out.splitlines()
        marked = [ln for ln in lines if ln.endswith("pole_adjacent")]
        assert [ln[:2] for ln in marked] == ["mp"]
        assert "constructed pair solves both quartic ODEs (r1, r2 <= 1e-08): yes" in lines
        assert "|P| >= 0.05 on every branch: NO" in lines


class TestOutFile:
    # --out applies to every mode: the file gets exactly what stdout would
    @pytest.mark.parametrize("args", [
        ["paper-check", "--branch", "mm"],
        ["selftest", "--skip", "quartic", "--skip", "verify", "--skip", "reference"],
    ])
    def test_text_modes_write_the_file(self, args, tmp_path, capsys):
        assert main(args) == 0
        printed = capsys.readouterr().out
        path = tmp_path / "out.txt"
        assert main(args + ["--out", str(path)]) == 0
        assert capsys.readouterr().out == ""
        assert path.read_text(encoding="utf-8") == printed


class TestScan:
    def test_csv_shape_and_order(self, tmp_path):
        out = tmp_path / "scan.csv"
        assert main(["scan", "--grid", "0.2:1.0:3,0.2:1.0:2",
                     "--out", str(out)]) == 0
        comments = comment_lines(out)
        assert comments[0].startswith("# generated_at=")
        assert any(ln.startswith("# mode=scan") for ln in comments)
        lines = body_lines(out)
        assert lines[0] == ",".join(CLI_COLUMNS)
        rows = [ln.split(",") for ln in lines[1:]]
        assert len(rows) == 4 * 3 * 2
        # branch-major ordering, pp first
        sig = [(r[0], r[1]) for r in rows]
        assert sig[:6] == [("1", "1")] * 6
        assert sig[-6:] == [("-1", "-1")] * 6
        # x outer, t inner within a branch block
        assert [r[2] for r in rows[:6]] == ["0.2", "0.2", "0.6", "0.6", "1", "1"]
        assert [r[3] for r in rows[:2]] == ["0.2", "1"]

    def test_csv_deterministic(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        args = ["scan", "--grid", "0.3:0.9:2,0.3:0.9:2"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert body_lines(a) == body_lines(b)

    def test_many_times_phase_each_once(self, tmp_path, monkeypatch):
        # 220 times bring 1,100 stencil times, more than the per-time memo
        # holds; the scan still computes the phase of each time once
        from cnlse_ansatz import ansatz
        seen = []
        phi = ansatz.phi_of_t
        monkeypatch.setattr(ansatz, "phi_of_t",
                            lambda p, t: seen.append(t) or phi(p, t))
        out = tmp_path / "many.csv"
        assert main(["scan", "--branch", "mm", "--grid", "0.5:1.0:2,0.05:11.0:220",
                     "--out", str(out)]) == 0
        assert len(body_lines(out)) == 1 + 2 * 220
        assert len(seen) == len(set(seen))

    def test_pole_adjacent_flagged(self, tmp_path):
        out = tmp_path / "pole.csv"
        assert main(["scan", "--branch", "pp",
                     "--grid", "0.978:0.978:1,0.311:0.311:1",
                     "--out", str(out)]) == 0
        rows = body_lines(out)[1:]
        assert len(rows) == 1
        assert rows[0].endswith("pole_adjacent")

    def test_json_document(self, tmp_path):
        out = tmp_path / "scan.json"
        assert main(["scan", "--grid", "0.3:0.9:2,0.3:0.9:2",
                     "--format", "json", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert set(doc) == {"metadata", "reports"}
        md = doc["metadata"]
        assert md["mode"] == "scan"
        assert "generated_at" in md
        assert md["params"]["q"] == -1.0
        assert len(doc["reports"]) == 16
        first = doc["reports"][0]
        assert list(first) == ["x", "t", "sigma_z", "sigma_q",
                               "P", "r1", "r2", "pde_abs", "notes"]

    def test_json_deterministic_modulo_timestamp(self, tmp_path):
        docs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            assert main(["scan", "--grid", "0.3:0.9:2,0.3:0.9:2",
                         "--format", "json", "--out", str(out)]) == 0
            doc = json.loads(out.read_text())
            doc["metadata"].pop("generated_at")
            docs.append(doc)
        assert docs[0] == docs[1]

    def test_branch_order_does_not_change_records(self, tmp_path):
        # the four-branch scan evaluates every point's branches back to back
        # through the shared wp memo; each branch scanned alone, from an
        # empty memo, must give the same bytes
        def records(branch):
            elliptic._PAIR_MEMO.clear()
            out = tmp_path / f"{branch}.json"
            assert main(["scan", "--branch", branch, "--grid", "0.2:1.2:3,0.2:1.2:3",
                         "--format", "json", "--out", str(out)]) == 0
            return json.loads(out.read_text())["reports"]

        alone = [rec for branch in BRANCH_ORDER for rec in records(branch)]
        together = records("all")
        assert len(together) == 4 * 3 * 3
        assert json.dumps(together) == json.dumps(alone)

    def test_four_branch_scan_evaluates_each_argument_once(self, monkeypatch):
        # count evaluations behind the memo, not wp_pair calls
        evaluated = []
        evaluate = elliptic._evaluate

        def spy(uf, au, inv, *args):
            evaluated.append((uf.tobytes(), np.asarray(inv.g2).tobytes(),
                              np.asarray(inv.g3).tobytes()))
            return evaluate(uf, au, inv, *args)

        monkeypatch.setattr(elliptic, "_evaluate", spy)
        inv = invariants_from_coefficients(z_curve(REFERENCE_PARAMS))
        z_bits = (np.asarray(inv.g2).tobytes(), np.asarray(inv.g3).tobytes())

        def z_curve_evaluations(branch):
            elliptic._PAIR_MEMO.clear()
            evaluated.clear()
            assert main(["scan", "--branch", branch, "--grid", "0.2:1.2:3,0.2:1.2:3",
                         "--out", os.devnull]) == 0
            assert len(evaluated) == len(set(evaluated))
            return sum(key[1:] == z_bits for key in evaluated)

        # the z-curve does not depend on the branch: four branches cost what one does
        one = z_curve_evaluations("mm")
        assert one > 0
        assert z_curve_evaluations("all") == one


class TestLongTime:
    def test_paper_check_2048_periods_out(self, capsys):
        # P, r1 and r2 repeat with the orbit's period, so the verdict does too
        period = elliptic.real_period(invariants_from_coefficients(z_curve(REFERENCE_PARAMS)))
        assert main(["paper-check", "--t", repr(1.0 + 2048 * period)]) == 0
        rows = {ln.split()[0]: ln.split() for ln in capsys.readouterr().out.splitlines()}
        assert abs(float(rows["mm"][3]) - P_AT_1_1["mm"]) <= 1e-10


class TestNonFinitePoint:
    @pytest.mark.parametrize("args, flag", [
        (["residuals", "--t", "nan"], "--t"),
        (["residuals", "--x", "inf"], "--x"),
        (["pde", "--x", "nan"], "--x"),
        (["paper-check", "--t", "nan"], "--t"),
    ])
    def test_flag_named(self, capsys, args, flag):
        assert main(args) == 1
        assert capsys.readouterr().err.startswith(f"error: {flag} must be finite")

    def test_config_key_named(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        # json reads 1e400 as inf
        cfg.write_text('{"x": 1e400}')
        assert main(["residuals", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err.startswith("error: config key 'x' must be finite")

    @pytest.mark.parametrize("grid, message", [
        ("nan:1:3,0.2:1:2", "x axis LO must be finite"),
        ("0.2:1:3,0.2:inf:2", "t axis HI must be finite"),
        ("0.2:1:3,-inf:1:1", "t axis LO must be finite"),
    ])
    def test_grid_axis_named(self, capsys, grid, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["scan", "--grid", grid]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}"), err


class TestPointModes:
    def test_residuals_reports_all_branches(self, tmp_path):
        out = tmp_path / "res.json"
        assert main(["residuals", "--format", "json", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        reports = doc["reports"]
        assert [(r["sigma_z"], r["sigma_q"]) for r in reports] == [
            (1, 1), (1, -1), (-1, 1), (-1, -1)
        ]
        mm = reports[-1]
        assert abs(mm["P"] - 0.113) < 2e-3
        assert mm["r1"] < 1e-8 and mm["r2"] < 1e-8

    def test_pde_mode_reports_only_pde(self, tmp_path):
        out = tmp_path / "pde.json"
        assert main(["pde", "--branch", "mm", "--x", "0.5", "--t", "0.4",
                     "--format", "json", "--out", str(out)]) == 0
        rep = json.loads(out.read_text())["reports"][0]
        assert np.isfinite(rep["pde_abs"]) and rep["pde_abs"] > 1e-3
        assert np.isnan(rep["P"]) and np.isnan(rep["r1"]) and np.isnan(rep["r2"])


class TestEvolve:
    def test_csv_series(self, tmp_path):
        out = tmp_path / "ev.csv"
        assert main(["evolve", "--branch", "mm", "--out", str(out)]) == 0
        comments = comment_lines(out)
        joined = "\n".join(comments)
        for key in ("mode=evolve", "branch=mm", "soliton_control_linf=",
                    "aliasing_warned=", "taper_fraction="):
            assert key in joined, key
        lines = body_lines(out)
        assert lines[0] == "t,l2,linf"
        rows = [ln.split(",") for ln in lines[1:]]
        assert len(rows) == 6
        assert rows[0] == ["0", "0", "0"]
        linfs = [float(r[2]) for r in rows]
        assert linfs == sorted(linfs)
        assert linfs[-1] > 0.1

    def test_json_metadata(self, tmp_path):
        out = tmp_path / "ev.json"
        assert main(["evolve", "--branch", "mm", "--format", "json",
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        md = doc["metadata"]
        for key in ("generated_at", "mode", "branch", "soliton_control_linf",
                    "aliasing_warned", "monotone", "params", "n", "dt"):
            assert key in md, key
        assert md["branch"] == "mm"
        assert md["soliton_control_linf"] < 1e-5
        assert len(doc["points"]) == 6

    def test_window_with_pole_exits_nonzero(self, capsys):
        assert main(["evolve", "--branch", "pp"]) == 1
        assert "pole" in capsys.readouterr().err

    def test_bad_window(self, capsys):
        assert main(["evolve", "--branch", "mm", "--grid", "0:1"]) == 1
        # a time axis is LO:HI:N with HI > LO, like every other axis
        for t_axis in ("0.3:0.1:3", "0.2:0.2:3", "0.1:0.3:x"):
            assert main(["evolve", "--branch", "mm",
                         f"--grid=-1.25:1.25:256,{t_axis}"]) == 1, t_axis
        capsys.readouterr()

    def test_reversed_window_uses_the_axis_message(self, capsys):
        assert main(["evolve", "--branch", "mm", "--grid", "1.25:-1.25:256"]) == 1
        assert capsys.readouterr().err.startswith("error: window axis needs HI > LO")

    def test_infinite_end_time_exits_nonzero(self, capsys):
        assert main(["evolve", "--branch", "mm", "--t-end", "inf"]) == 1
        assert capsys.readouterr().err.startswith("error: t_end must be finite")

    def test_nan_end_time_exits_nonzero(self, capsys):
        assert main(["evolve", "--branch", "mm", "--t-end", "nan"]) == 1
        assert capsys.readouterr().err.startswith("error: t_end must be finite")

    def test_nan_sample_times_exit_nonzero(self, capsys):
        assert main(["evolve", "--branch", "mm",
                     "--grid=-1.25:1.25:256,nan:0.5:3"]) == 1
        assert capsys.readouterr().err.startswith("error: time axis LO must be finite")

    @pytest.mark.parametrize("dt", ["3", "0.3"])
    def test_sample_time_under_a_step_exits_nonzero(self, dt):
        # the default samples are 0.1 apart: a step of 3 realized no step
        # at all, a step of 0.3 repeated rows and ran past t_end
        proc = subprocess.run(
            [sys.executable, "-m", "cnlse_ansatz", "evolve", "--branch", "mm",
             "--dt", dt, "--t-end", "0.5"],
            capture_output=True, text=True, timeout=60, env=CHILD_ENV,
        )
        assert proc.returncode == 1
        err = proc.stderr.splitlines()
        assert len(err) == 1 and err[0].startswith("error: sample time 0.1"), proc.stderr
        assert proc.stdout == ""

    def test_soliton_control_takes_a_step(self):
        # round(1 / dt) is 0 for dt > 2; the control still evolves one step
        assert _soliton_control(3.0) > 0.0


class TestMetadata:
    @pytest.mark.parametrize("args", [
        ["scan", "--grid", "0.3:0.9:2,0.3:0.9:2"],
        ["residuals"],
        ["pde", "--branch", "mm", "--x", "0.5", "--t", "0.4"],
        ["evolve", "--branch", "mm"],
    ], ids=lambda args: args[0])
    def test_csv_comments_match_json_metadata(self, tmp_path, args):
        csv_out, json_out = tmp_path / "out.csv", tmp_path / "out.json"
        assert main(args + ["--out", str(csv_out)]) == 0
        assert main(args + ["--format", "json", "--out", str(json_out)]) == 0
        csv_keys = [ln[2:].partition("=")[0] for ln in comment_lines(csv_out)]
        json_keys = list(json.loads(json_out.read_text())["metadata"])
        json_keys.remove("params")
        assert csv_keys == json_keys


class TestElliptic:
    def test_csv_values(self, tmp_path):
        out = tmp_path / "ell.csv"
        assert main(["elliptic", "--g2", "3.52", "--g3", "1.0384",
                     "--u", "0.3", "--out", str(out)]) == 0
        kv = dict(ln.split(",") for ln in out.read_text().splitlines())
        assert float(kv["g2"]) == 3.52
        assert abs(float(kv["wp_re"]) - WP_03) < 1e-10
        assert abs(float(kv["wp_im"])) < 1e-12
        assert set(kv) >= {"discriminant", "wp_prime_re", "e1_re", "e3_im"}

    def test_json_payload(self, tmp_path):
        out = tmp_path / "ell.json"
        assert main(["elliptic", "--g2", "3.52", "--g3", "1.0384",
                     "--u", "1+1j", "--format", "json", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["u_re"] == 1.0 and doc["u_im"] == 1.0
        assert np.isfinite(doc["wp_re"]) and np.isfinite(doc["wp_im"])

    def test_requires_invariants(self, capsys):
        assert main(["elliptic", "--u", "0.3"]) == 1
        capsys.readouterr()


class TestConfig:
    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "c2": 0.9, "t": 0.5, "branch": "mm", "format": "json",
        }))
        out = tmp_path / "res.json"
        assert main(["residuals", "--config", str(cfg), "--c2", "0.4",
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["metadata"]["params"]["c2"] == 0.4  # flag wins
        reports = doc["reports"]
        assert len(reports) == 1  # config branch applied
        assert reports[0]["t"] == 0.5  # config t applied
        assert (reports[0]["sigma_z"], reports[0]["sigma_q"]) == (-1, -1)

    def test_config_tolerances(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tol": ["r_alg=1e-20"]}))
        assert main(["paper-check", "--config", str(cfg)]) == 1
        capsys.readouterr()

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"zz0": 1.0}))
        assert main(["paper-check", "--config", str(cfg)]) == 1
        assert "unknown config key" in capsys.readouterr().err

    def test_malformed_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2, 3]")
        assert main(["paper-check", "--config", str(cfg)]) == 1
        cfg.write_text("{not json")
        assert main(["paper-check", "--config", str(cfg)]) == 1
        assert main(["paper-check", "--config", str(tmp_path / "no.json")]) == 1
        capsys.readouterr()

    def test_config_value_validated(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"c2": "a lot"}))
        assert main(["paper-check", "--config", str(cfg)]) == 1
        assert "must be a number" in capsys.readouterr().err

    @pytest.mark.parametrize("mode, config, key", [
        ("scan", {"grid": 5}, "grid"),
        ("residuals", {"x": [1]}, "x"),
        ("residuals", {"t": None}, "t"),
        ("residuals", {"branch": ["mm"]}, "branch"),
        ("residuals", {"out": 7}, "out"),
    ])
    def test_config_value_types(self, tmp_path, mode, config, key):
        # a subprocess, so that a wrong type cannot reach this process's
        # file descriptors
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        proc = subprocess.run(
            [sys.executable, "-m", "cnlse_ansatz", mode, "--config", str(cfg)],
            capture_output=True, text=True, timeout=60, env=CHILD_ENV,
        )
        assert proc.returncode == 1
        err = proc.stderr.splitlines()
        assert len(err) == 1 and err[0].startswith("error:"), proc.stderr
        assert repr(key) in err[0]

    def test_config_number_too_large_for_a_float(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"x": 10 ** 400}))
        proc = subprocess.run(
            [sys.executable, "-m", "cnlse_ansatz", "residuals", "--config", str(cfg)],
            capture_output=True, text=True, timeout=60, env=CHILD_ENV,
        )
        assert proc.returncode == 1
        err = proc.stderr.splitlines()
        assert len(err) == 1 and err[0].startswith("error:"), proc.stderr
        assert "'x'" in err[0]


class TestSelftest:
    def test_all_checks_pass(self, capsys):
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        check_lines = [ln for ln in out.splitlines()
                       if ln.endswith(" PASS") and not ln.startswith("overall")]
        assert len(check_lines) == 7
        assert "overall: PASS" in out
        for name in ("wp_ode", "invariants", "equilibrium", "quartic_ode",
                     "soliton_order", "soliton_mag", "mass_drift"):
            assert name in out, name

    def test_skip_suite(self, capsys):
        assert main(["selftest", "--skip", "reference", "--skip", "elliptic"]) == 0
        out = capsys.readouterr().out
        assert out.count(" SKIP") == 2
        assert "mass_drift" in out and "wp_ode" in out

    def test_unknown_suite(self, capsys):
        assert main(["selftest", "--skip", "nope"]) == 1
        assert "unknown suite" in capsys.readouterr().err

    def test_tightened_tolerance_fails(self, capsys):
        assert main(["selftest", "--skip", "reference", "--skip", "verify",
                     "--skip", "quartic", "--tol", "wp_ode=1e-30"]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out


class TestGridParsing:
    def test_two_axes(self):
        xs, ts = _parse_grid("0:1:3,0:2:2")
        assert np.allclose(xs, [0.0, 0.5, 1.0])
        assert np.allclose(ts, [0.0, 2.0])

    def test_single_point_axis(self):
        xs, ts = _parse_grid("0.7:9:1,0:1:2")
        assert list(xs) == [0.7]

    def test_single_point_axis_ignores_hi(self):
        for hi in ("nan", "inf", "-1"):
            xs, _ = _parse_grid(f"0.7:{hi}:1,0:1:2")
            assert list(xs) == [0.7], hi

    def test_malformed(self):
        for text in ("0:1:3", "0:1:3,0:1", "0:1:x,0:1:2", "1:0:3,0:1:2",
                     "0:1:3,0:1:0"):
            with pytest.raises(CliError):
                _parse_grid(text)
