import contextlib
import csv
import importlib.util
import io
import json
import os
import subprocess
import sys
import types
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cnlse_ansatz import (
    REFERENCE_PARAMS,
    ansatz,
    cli,
    elliptic,
    invariants_from_coefficients,
    quartic,
    verify,
    z_curve,
)
from cnlse_ansatz.cli import (
    BRANCH_ORDER,
    CLI_COLUMNS,
    DEFAULT_TOLERANCES,
    CliError,
    _control_run,
    _parse_grid,
    main,
)
from cnlse_ansatz import reference
from cnlse_ansatz.reference import _evolve_runs

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

    @pytest.mark.parametrize("args", [
        ["elliptic", "--g2", "1e300", "--g3", "1", "--u", "0.5"],
        ["elliptic", "--g2", "1", "--g3", "1e200", "--u", "0.5"],
        ["residuals", "--c2", "1e200", "--t", "30"],
        ["scan", "--c2", "1e200", "--grid", "1:1:1,30:30:1"],
    ])
    def test_float_overflow_is_an_error_line(self, args):
        # an overflow in the invariants or the discriminant ends in an error
        # line, not a traceback
        proc = subprocess.run(
            [sys.executable, "-m", "cnlse_ansatz", *args],
            capture_output=True, text=True, timeout=60, env=CHILD_ENV,
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:"), proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("args, name", [
        (["elliptic", "--g2", "1e300", "--g3", "1", "--u", "0.5"], "discriminant g2^3 - 27 g3^2"),
        (["elliptic", "--g2", "1", "--g3", "1e200", "--u", "0.5"], "discriminant g2^3 - 27 g3^2"),
        (["residuals", "--c2", "1e200", "--t", "30"], "invariant g2"),
        (["scan", "--c2", "1e200", "--grid", "1:1:1,30:30:1"], "invariant g2"),
        (["residuals", "--c3", "1e160", "--t", "30"], "invariant g3"),
        # a z-curve coefficient, with the parameters that make it
        (["paper-check", "--q", "1e200"], "z-curve coefficient alpha overflows a float at "
         "q = 1e+200, c1 = -2, c2 = 0.4, c3 = 0.13"),
        (["residuals", "--c1", "1e160"], "z-curve coefficient gamma overflows a float at "
         "q = -1, c1 = 1e+160, c2 = 0.4, c3 = 0.13"),
        (["residuals", "--q", "1e10", "--c2", "1e300"], "z-curve coefficient gamma overflows "
         "a float at q = 1e+10, c1 = -2, c2 = 1e+300, c3 = 0.13"),
        # a profile scalar R2^(k)(Q0), with the Q0 that makes it, and no
        # warning from the arithmetic that found it
        (["residuals", "--q0", "1e100"], "profile scalar R2(Q0) overflows a float at Q0 = 1e+100"),
        (["paper-check", "--q0", "1e100"], "profile scalar R2(Q0) overflows a float at Q0 = 1e+100"),
        (["scan", "--q0=-1e100"], "profile scalar R2(Q0) overflows a float at Q0 = -1e+100"),
        # a constant term of the closed form at t = 0, a product of two
        # finite scalars
        (["residuals", "--q0", "1e77"],
         "profile term R2(Q0) R2''''(Q0)/48 overflows a float at Q0 = 1e+77"),
        (["scan", "--q0", "1e62"], "profile term R2(Q0) R2'''(Q0)/24 overflows a float at Q0 = 1e+62"),
        # the profile lattice, with the parameters that make it
        (["residuals", "--c3", "1e307"], "profile lattice g2, g3 = 0.733333, -inf overflows "
         "a float at q = -1, c1 = -2, c2 = 0.4, c3 = 1e+307"),
    ])
    def test_float_overflow_names_what_overflowed(self, args, name, capsys):
        # a float power raises OverflowError where a product reads inf:
        # either way the one error line names the quantity
        assert main(args) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1
        assert name in captured.err and "overflows a float" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("args", [
        ["residuals", "--q0", "1e77"],
        ["pde", "--q0=-1e62"],
    ])
    def test_closed_form_overflow_is_refused_without_warnings(self, args):
        # R2(Q0) is finite and R2(Q0) R2''''(Q0) or R2(Q0) R2'''(Q0) is not:
        # refused with the one error line, before any arithmetic warns
        proc = subprocess.run(
            [sys.executable, "-m", "cnlse_ansatz", *args],
            capture_output=True, text=True, timeout=60, env=CHILD_ENV,
        )
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr.startswith("error: profile term") and proc.stderr.count("\n") == 1
        assert "RuntimeWarning" not in proc.stderr

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


    def test_far_x_solves_both_odes(self, capsys):
        # r2 reduces x by whole periods of the profile lattice, so at
        # x = 1e5 it no longer reads the spacing of floats near x (2.2e-8
        # before); no branch matches 0.113 there, hence exit 2
        assert main(["paper-check", "--x", "1e5"]) == 2
        lines = capsys.readouterr().out.splitlines()
        assert "constructed pair solves both quartic ODEs (r1, r2 <= 1e-08): yes" in lines
        assert "|P| >= 0.05 on every branch: yes" in lines


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

    def test_many_times_gauge_each_row_once(self, tmp_path, monkeypatch):
        # 220 times, most of them beyond one period 2w: the PDE stencil
        # samples the gauge B, so no time reads the phase, and each time row
        # integrates z once, over one panel per time node, all rows of the
        # scan's stack in one call
        phases, gauges = [], []
        panel_values = verify._panel_values
        for name in ("phi_of_t", "_z_integrals"):
            monkeypatch.setattr(ansatz, name, lambda *args: phases.append(args))
        monkeypatch.setattr(verify, "_panel_values",
                            lambda *args: gauges.append(args[3].shape) or panel_values(*args))
        out = tmp_path / "many.csv"
        assert main(["scan", "--branch", "mm", "--grid", "0.5:1.0:2,0.05:11.0:220",
                     "--out", str(out)]) == 0
        assert len(body_lines(out)) == 1 + 2 * 220
        assert phases == [] and gauges == [(4 * 220, 1)]

    @pytest.mark.parametrize("args", [
        pytest.param(["residuals", "--t", "5115.1"], id="residuals-5115.1"),
        pytest.param(["residuals", "--t", "1e17"], id="residuals-1e17"),
        pytest.param(["pde"], id="pde"),
        pytest.param(["pde", "--t", "1e17"], id="pde-1e17"),
    ])
    def test_the_residual_checks_evaluate_no_phase(self, monkeypatch, args):
        # verify does not import the phase, and no run of the point modes
        # integrates z from 0, which phi_of_t and its tables do (the scan:
        # see above)
        assert not hasattr(verify, "phi_of_t")
        phases = []
        for name in ("phi_of_t", "_z_integrals"):
            monkeypatch.setattr(ansatz, name, lambda *args: phases.append(args))
        assert main([*args, "--out", os.devnull]) == 0
        assert phases == []

    def test_pole_adjacent_flagged(self, tmp_path):
        out = tmp_path / "pole.csv"
        assert main(["scan", "--branch", "pp",
                     "--grid", "0.978:0.978:1,0.311:0.311:1",
                     "--out", str(out)]) == 0
        rows = body_lines(out)[1:]
        assert len(rows) == 1
        assert rows[0].endswith("pole_adjacent")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_a_scan_builds_no_report_object(self, monkeypatch, fmt):
        # the benchmark grid's reports stay columns from row_reports to the
        # bytes, with no ResidualReport per point; the one-point view builds one
        built, init = [], verify.ResidualReport.__init__
        monkeypatch.setattr(verify.ResidualReport, "__init__",
                            lambda rep, *args: built.append(args) or init(rep, *args))
        assert main(["scan", "--branch", "all", "--grid", "0.2:1.2:11,0.2:1.2:11",
                     "--format", fmt, "--out", os.devnull]) == 0
        assert built == []
        verify.report_at(REFERENCE_PARAMS, 1.0, 1.0)
        assert len(built) == 1

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_a_number_not_finite_for_no_noted_reason(self, monkeypatch, tmp_path, fmt):
        # r2 nan at the first x, where no mask says why: exactly that x's
        # points, on every branch and time, read nonfinite, the others nothing
        real = verify._defect

        def defect(curve, y, h):
            out = real(curve, y, h)
            if h == verify.R2_SPACE_STEP:
                out[..., 0] = np.nan
            return out

        monkeypatch.setattr(verify, "_defect", defect)
        out = tmp_path / f"scan.{fmt}"
        assert main(["scan", "--branch", "all", "--grid", "0.2:1.2:3,0.2:1.2:2",
                     "--format", fmt, "--out", str(out)]) == 0
        if fmt == "json":
            notes = [(rec["x"], rec["notes"]) for rec in json.loads(out.read_text())["reports"]]
        else:
            notes = [(float(rec["x"]), rec["flags"]) for rec in csv.DictReader(body_lines(out))]
        assert len(notes) == 4 * 3 * 2
        assert [note for x, note in notes if x == 0.2] == ["nonfinite"] * 8
        assert [note for x, note in notes if x != 0.2] == [""] * 16

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
        # from one time row; each branch scanned alone must give the same
        # bytes
        def records(branch):
            out = tmp_path / f"{branch}.json"
            assert main(["scan", "--branch", branch, "--grid", "0.2:1.2:3,0.2:1.2:3",
                         "--format", "json", "--out", str(out)]) == 0
            return json.loads(out.read_text())["reports"]

        alone = [rec for branch in BRANCH_ORDER for rec in records(branch)]
        together = records("all")
        assert len(together) == 4 * 3 * 3
        assert json.dumps(together) == json.dumps(alone)

    def test_four_branch_scan_evaluates_each_argument_once(self, monkeypatch):
        # the z-curve arguments are evaluated once per time row, whichever
        # branches read it
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
            evaluated.clear()
            assert main(["scan", "--branch", branch, "--grid", "0.2:1.2:3,0.2:1.2:3",
                         "--out", os.devnull]) == 0
            return sum(key[1:] == z_bits for key in evaluated)

        # the z-curve does not depend on the branch: four branches cost what one does
        one = z_curve_evaluations("mm")
        assert one > 0
        assert z_curve_evaluations("all") == one


    def test_four_branch_scan_pairs_the_profile_slopes(self, monkeypatch):
        # every branch, time row and point of a scan shares each closed-form
        # wp part: on the profile lattice one per scan, whatever the number
        # of x and t, not one per orbit, row, branch or point, for r2's
        # stencil, the PDE's x stencil and P's point, which serves Q, Q_t
        # and the PDE's 4 time nodes, at every x; on the z lattice the
        # orbit's, the gauges' and r1's, one each for every row
        zc = z_curve(REFERENCE_PARAMS).invariants
        calls = {"z": 0, "profile": 0}
        real = quartic._closed_form_parts

        def spy(inv, *args):
            calls["z" if inv == zc else "profile"] += 1
            return real(inv, *args)

        for module in (quartic, verify):
            monkeypatch.setattr(module, "_closed_form_parts", spy)
        for nx, nt in ((3, 3), (7, 3), (3, 1)):
            calls.update(z=0, profile=0)
            assert main(["scan", "--branch", "all", "--grid", f"0.2:1.2:{nx},0.2:1.2:{nt}",
                         "--out", os.devnull]) == 0
            assert calls == {"z": 3, "profile": 1}

    def test_profile_scalars_once_per_node_orbit_and_row(self, monkeypatch):
        # R^(k)(Q0) of every time node's real profile curve comes from one
        # evaluation per orbit and stack, of all its nodes' curves at once,
        # whatever the number of x and of rows (5 nodes x 2 orbits x rows
        # evaluations of one curve each before); the three one-curve
        # evaluations are the parameter records' checks at t = 0
        real, calls = quartic.eval_with_derivatives, []

        def spy(curve, y):
            if curve.lattice is not None and not np.iscomplexobj(curve.gamma):
                calls.append(np.ndim(curve.gamma))
            return real(curve, y)

        for module in (quartic, ansatz, verify):
            monkeypatch.setattr(module, "eval_with_derivatives", spy)
        for nx, rows in ((3, 1), (3, 11), (7, 1), (7, 11)):
            calls.clear()
            assert main(["scan", "--branch", "all", "--grid", f"0.2:1.2:{nx},0.2:1.2:{rows}",
                         "--out", os.devnull]) == 0
            assert sorted(calls) == [0, 0, 0, 1, 1], (nx, rows)


class TestParser:
    @staticmethod
    def every_flag_parser():
        # one parser that builds the flags of every mode, as argparse would
        # read them if each were invoked
        parser = cli._Parser(prog="cnlse-ansatz", description=cli.__doc__)
        sub = parser.add_subparsers(dest="mode")
        for mode in cli.MODES:
            flags = cli._add_elliptic_flags if mode == "elliptic" else cli._add_run_flags
            flags(sub.add_parser(mode))
        return parser

    @staticmethod
    def modes(parser):
        """The sub-command parsers of ``parser`` by mode."""
        return next(a.choices for a in parser._actions if a.dest == "mode")

    @staticmethod
    def help_text(argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        return capsys.readouterr().out

    @pytest.mark.parametrize("mode", cli.MODES)
    def test_mode_help_is_that_of_every_flag(self, mode, capsys):
        want = self.modes(self.every_flag_parser())[mode]
        assert self.help_text([mode, "--help"], capsys) == want.format_help()

    def test_top_level_help_lists_every_mode(self, capsys):
        assert self.help_text(["--help"], capsys) == self.every_flag_parser().format_help()

    def test_only_the_invoked_mode_gets_flags(self):
        modes = self.modes(cli._build_parser(["residuals", "--out", "scan"]))
        flagged = [m for m, sp in modes.items() if len(sp._actions) > 1]
        assert list(modes) == list(cli.MODES)
        assert flagged == ["residuals"]

    @pytest.mark.parametrize("argv", [
        [],
        ["frobnicate"],
        ["scan", "--bogus"],
        ["-5", "scan"],
        ["elliptic", "--g2", "1"],
        ["residuals", "--branch", "xx"],
    ])
    def test_errors_are_those_of_every_flag(self, argv, capsys):
        try:
            ns = self.every_flag_parser().parse_args(argv)
            message = "a mode is required" if ns.mode is None else None
        except CliError as exc:
            message = str(exc)
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1, err

    @pytest.mark.parametrize("mode, flag, value, rest", [
        ("residuals", "--t", "-1e3", []),
        ("residuals", "--t", "-1E3", []),
        ("residuals", "--x", "-2.5e-1", []),
        ("elliptic", "--g2", "-1e-3", ["--g3", "1", "--u", "0.5"]),
    ])
    def test_negative_exponent_form_is_a_value(self, mode, flag, value, rest, capsys):
        # -1e3 is read as the flag's value, as in --t=-1e3
        def output(argv):
            assert main(argv) == 0
            out = capsys.readouterr().out
            return [ln for ln in out.splitlines() if "generated_at" not in ln]

        assert output([mode, flag, value, *rest]) == output([mode, f"{flag}={value}", *rest])


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

    @pytest.mark.parametrize("mode, grid, message", [
        pytest.param(["scan"], grid, message, id=f"{grid}-{message}")
        for grid, message in (
            ("nan:1:3,0.2:1:2", "x axis LO must be finite"),
            ("0.2:1:3,0.2:inf:2", "t axis HI must be finite"),
            ("0.2:1:3,-inf:1:1", "t axis LO must be finite"),
            # finite ends whose difference overflows: refused before linspace
            ("-1e308:1e308:3,0:1:2", "x axis HI - LO overflows a float"),
        )
    ] + [
        pytest.param(["evolve", "--branch", "mm"], "-1e308:1e308:64",
                     "window axis HI - LO overflows a float", id="evolve-window-overflows"),
        # more points than memory holds: refused before linspace allocates them
        pytest.param(["scan", "--out", os.devnull], "0:1:2,0:1:10000000000000",
                     "t axis has 10000000000000 points", id="scan-axis-too-long"),
        pytest.param(["evolve", "--branch", "mm"], "-1:1:64,0:1:10000000000000",
                     "time axis has 10000000000000 points", id="evolve-time-axis-too-long"),
    ])
    def test_grid_axis_named(self, capsys, mode, grid, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([*mode, f"--grid={grid}"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}"), err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("mode, grid, axis", [
        # a line break after the grid, as $'...\n' in a shell passes it
        (["scan", "--branch", "pp"], "0.2:1.2:2,0.2:1.2:1\n", "t axis"),
        (["scan", "--branch", "pp"], "0.2:1.2:2\t,0.2:1.2:1", "x axis"),
        # a config line ending in \r\n
        (["evolve", "--branch", "mm"], "-1.25:1.25:256\r\n", "window axis"),
        (["evolve", "--branch", "mm"], "-1.25:1.25:256,0.1:0.3:3\x00", "time axis"),
    ], ids=["scan-newline", "scan-tab", "evolve-crlf", "evolve-nul"])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_a_grid_that_is_not_printable_text(self, tmp_path, capsys, mode, grid, axis, source):
        # float() and int() read a number with a line break around it, which
        # the CSV header would write on lines of its own
        if source == "flag":
            args = [*mode, f"--grid={grid}"]
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"grid": grid}))
            args = [*mode, "--config", str(cfg)]
        assert main(args) == 1
        out, err = capsys.readouterr()
        chunk = grid.split(",")[axis in ("t axis", "time axis")]
        assert out == ""
        assert err == f"error: {axis} must be printable text, got {chunk!r}\n"

    def test_spaces_in_a_grid_are_accepted(self, capsys):
        assert main(["scan", "--branch", "pp", "--grid", "0.2:1.2:2,0.2:1.2:1"]) == 0
        plain = capsys.readouterr().out.splitlines()
        assert main(["scan", "--branch", "pp", "--grid", " 0.2 :1.2:2, 0.2:1.2: 1 "]) == 0
        spaced = capsys.readouterr().out.splitlines()
        assert spaced[2] == "# grid= 0.2 :1.2:2, 0.2:1.2: 1 "
        assert spaced[3:] == plain[3:] and len(plain) == 7


# points of the one report path: the default, a pole-adjacent branch (mp at
# t = 20000), the mirror point of a pole and a point where the -1 orbit
# fails (c2 = 0.8: R(Q0) < 0 on its profile curve)
ONE_PATH_POINTS = [
    pytest.param([], id="default"),
    pytest.param(["--t", "20000"], id="t20000"),
    pytest.param(["--x", "2.14"], id="x2.14"),
    pytest.param(["--c2", "0.8"], id="c2-0.8"),
]
DOMAIN_ERRORS = {"NegativeRadicand", "PoleProximity", "RealityViolation"}


class TestPointModes:
    @staticmethod
    def reports(capsys, mode, point):
        assert main([mode, *point, "--format", "json"]) == 0
        return json.loads(capsys.readouterr().out)["reports"]

    @pytest.mark.parametrize("point", ONE_PATH_POINTS)
    def test_paper_check_rows_are_the_residuals_reports(self, capsys, point):
        # per branch: the row is the report at 10 and 4 digits with its
        # first note if that is a pole note; a branch whose report names a
        # domain error ends paper-check with that error
        for name, rep in zip(BRANCH_ORDER, self.reports(capsys, "residuals", point)):
            code = main(["paper-check", *point, "--branch", name])
            out, err = capsys.readouterr()
            notes = rep["notes"].split(";")
            if DOMAIN_ERRORS.intersection(notes):
                assert code == 1 and out == "" and err.startswith("error: R(y0) = ")
                continue
            note = notes[0] if notes[0] in ("pole", "pole_adjacent") else ""
            row = (f"{name:<6}  {rep['sigma_z']:+d}       {rep['sigma_q']:+d}       "
                   f"{rep['P']:<16.10g}  {rep['r1']:<12.4g}  {rep['r2']:<12.4g}"
                   + (note and f"  {note}"))
            assert out.splitlines()[2] == row

    @pytest.mark.parametrize("point", ONE_PATH_POINTS)
    def test_pde_reads_the_residuals_pde_abs(self, capsys, point):
        pde = self.reports(capsys, "pde", point)
        residuals = self.reports(capsys, "residuals", point)
        assert [r["pde_abs"].hex() for r in pde] == [r["pde_abs"].hex() for r in residuals]
        assert [r["notes"] for r in pde] == [
            "StencilOutOfDomain" if np.isnan(r["pde_abs"]) else "" for r in residuals
        ]
        assert all(np.isnan([r["P"], r["r1"], r["r2"]]).all() for r in pde)

    def test_paper_check_raises_the_failing_orbits_error(self, capsys):
        # at c2 = 0.8 the +1 orbit is clean and the -1 orbit's profile curve
        # has no real slope at Q0: the run ends with that error, no table
        assert main(["paper-check", "--c2", "0.8"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: R(y0) = -0.215643 < 0: no real slope at y0\n"
        notes = [r["notes"] for r in self.reports(capsys, "residuals", ["--c2", "0.8"])]
        assert notes == ["", "", "NegativeRadicand", "NegativeRadicand"]

    def test_paper_check_raises_from_the_row_it_read(self, capsys, monkeypatch):
        # the failing orbit's error comes from the time row that the
        # reports were built from: no second row is built to raise it
        init, rows = verify._TimeRow.__init__, []
        monkeypatch.setattr(verify._TimeRow, "__init__", lambda row, *a: rows.append(init(row, *a)))
        assert main(["paper-check", "--c2", "0.8"]) == 1
        assert capsys.readouterr().err == "error: R(y0) = -0.215643 < 0: no real slope at y0\n"
        assert len(rows) == 1

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_residuals_at_a_huge_q0_write_no_warning(self, capsys, fmt):
        # at Q0 = 1e12 every branch reads Q = inf (noted pole), and the
        # gauge product of the PDE stencil on it is taken under np.errstate
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["residuals", "--q0", "1e12", "--format", fmt]) == 0
        assert capsys.readouterr().err == ""

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

    def test_residuals_far_out_write_no_warning(self):
        # at x = 1e300 the PDE stencil reads the reduced point, so no
        # elliptic argument folds onto a pole and nothing reaches stderr
        proc = subprocess.run(
            [sys.executable, "-m", "cnlse_ansatz", "residuals", "--x", "1e300"],
            capture_output=True, text=True, timeout=60, env=CHILD_ENV,
        )
        assert proc.returncode == 0
        assert proc.stderr == ""

    def test_pde_mode_reports_only_pde(self, tmp_path):
        out = tmp_path / "pde.json"
        assert main(["pde", "--branch", "mm", "--x", "0.5", "--t", "0.4",
                     "--format", "json", "--out", str(out)]) == 0
        rep = json.loads(out.read_text())["reports"][0]
        assert np.isfinite(rep["pde_abs"]) and rep["pde_abs"] > 1e-3
        assert np.isnan(rep["P"]) and np.isnan(rep["r1"]) and np.isnan(rep["r2"])

    def test_pde_notes_a_profile_curve_without_a_real_slope(self, tmp_path):
        # at z0 = 1e-300 the profile curve has R(Q0) < 0 (residuals notes
        # NegativeRadicand): pde notes its stencil as failed and exits 0
        out = tmp_path / "pde.json"
        assert main(["pde", "--z0", "1e-300", "--format", "json", "--out", str(out)]) == 0
        reports = json.loads(out.read_text())["reports"]
        assert [r["notes"] for r in reports] == ["StencilOutOfDomain"] * 4
        assert all(np.isnan(r["pde_abs"]) for r in reports)

    @pytest.mark.parametrize("point", [
        pytest.param(["--x", x], id=x) for x in ("1e5", "1e7", "1e300")
    ] + [pytest.param(["--t", t], id=f"t{t}") for t in ("1e6", "1e17")])
    def test_pde_far_out_reads_the_reduced_point(self, point):
        # pde samples its stencil through the time row of residuals, at x
        # reduced by whole profile periods and t by whole orbit periods: the
        # same pde_abs on every branch, and at x = 1e300 no stencil folds
        # onto a pole and nothing reaches stderr
        def reports(mode):
            proc = subprocess.run(
                [sys.executable, "-m", "cnlse_ansatz", mode, *point, "--format", "json"],
                capture_output=True, text=True, timeout=60, env=CHILD_ENV,
            )
            assert proc.returncode == 0 and proc.stderr == "", proc.stderr
            return json.loads(proc.stdout)["reports"]

        pde, residuals = reports("pde"), reports("residuals")
        assert [r["notes"] for r in pde] == [""] * 4
        assert [r["pde_abs"] for r in pde] == [r["pde_abs"] for r in residuals]


class TestEvolve:
    @pytest.mark.parametrize("dt", ["1e-300", "1e-9"])
    def test_a_tiny_step_is_refused(self, dt):
        # 1 / dt control steps would not finish: refused before any step
        proc = subprocess.run(
            [sys.executable, "-m", "cnlse_ansatz", "evolve", "--branch", "mm", "--dt", dt],
            capture_output=True, text=True, timeout=60, env=CHILD_ENV,
        )
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr.startswith(f"error: --dt {float(dt):.12g} asks for "), proc.stderr

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

    def test_window_with_a_mirror_point_runs(self, capsys):
        # the pp denominator changes sign at x = -0.942 too, the mirror of
        # the pole at +0.940, but Q stays near -0.31 there: no pole inside
        assert main(["evolve", "--branch", "pp", "--grid=-1.25:0.6:256",
                     "--t-end", "0.1", "--format", "json"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert len(json.loads(captured.out)["points"]) == 6

    def test_bad_window(self, capsys):
        assert main(["evolve", "--branch", "mm", "--grid", "0:1"]) == 1
        # a time axis is LO:HI:N with HI > LO, like every other axis
        for t_axis in ("0.3:0.1:3", "0.2:0.2:3", "0.1:0.3:x"):
            assert main(["evolve", "--branch", "mm",
                         f"--grid=-1.25:1.25:256,{t_axis}"]) == 1, t_axis
        capsys.readouterr()

    def test_a_window_too_narrow_for_its_wavenumbers(self, capsys):
        # k_max = pi / dx reads 1.0e202 here, and its square overflows
        assert main(["evolve", "--branch", "mm", "--grid=-1e-200:1e-200:64", "--dt", "1e-3"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: window [-1e-200, 1e-200] with n = 64 is too narrow"), err
        assert "overflows a float when squared" in err and err.count("\n") == 1
        # k_max reads 1.0e152 here, its square 1.0e304
        assert main(["evolve", "--branch", "mm", "--grid=-1e-150:1e-150:64", "--dt", "1e-3"]) == 0
        assert len(capsys.readouterr().out.splitlines()) > 6

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

    def test_benchmark_run_shares_its_transforms(self, monkeypatch, capsys):
        # the window's n is the control's 1024, so the control and the ansatz
        # run advance as one stack for the first 5,000 steps: 20,011 FFT
        # calls in place of 30,012 when each runs alone
        spec = importlib.util.spec_from_file_location(
            "perfbench_workloads", Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, workloads)  # dataclasses look it up
        spec.loader.exec_module(workloads)
        calls = []
        for name in ("_fft", "_ifft"):
            fn = getattr(reference, name)
            monkeypatch.setattr(reference, name, lambda *a, _fn=fn, **kw: calls.append(1) or _fn(*a, **kw))
        assert main(list(workloads.EVOLVE_ARGS)) == 0
        assert len(calls) <= 20_100
        md = json.loads(capsys.readouterr().out)["metadata"]
        # the ansatz run's step aliases: its warning is still recorded
        assert md["aliasing_warned"] is True
        assert md["soliton_control_linf"] < 1e-5

    def test_soliton_control_takes_a_step(self):
        # round(1 / dt) is 0 for dt > 2; the control still evolves one step
        assert _evolve_runs([_control_run(3.0)])[0] > 0.0


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


# JSON scalars as the command line writes them, and the edges of json's
# float and string encodings
_SCALARS = st.one_of(
    st.floats(),  # nan, +-inf, -0.0 and subnormals among them
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 5e-324, -2.5e-310]),
    st.integers(min_value=-2 ** 70, max_value=2 ** 70),
    st.text(st.one_of(st.sampled_from('"\\\x00\x1f\x7f\n\t\u2028\xe9\u20ac\U0001f600'),
                      st.characters())),
    st.booleans(),
    st.none(),
)
_FLAT = st.dictionaries(st.text(), _SCALARS, max_size=9)
# a cell of a written table: floats at their edges, ints, and notes with
# commas, quotes and non-ASCII
_CELLS = st.one_of(
    st.floats(),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 5e-324, -2.5e-310]),
    st.integers(min_value=-2 ** 70, max_value=2 ** 70),
    st.text(st.one_of(st.sampled_from(',;"\'\n\r\xe9\u20ac\U0001f600'), st.characters())),
)
# the tables the command line writes: key, CSV columns and field names
_TABLES = [
    ("reports", CLI_COLUMNS, ("x", "t", "sigma_z", "sigma_q", "P", "r1", "r2", "pde_abs", "notes")),
    ("points", ("t", "l2", "linf"), ("t", "l2", "linf")),
]


@st.composite
def _table(draw):
    """One of the tables the command line writes: key, CSV columns and
    equal-length lists of cells by field name."""
    key, columns, names = draw(st.sampled_from(_TABLES))
    rows = draw(st.integers(0, 5))
    return key, columns, {name: draw(st.lists(_CELLS, min_size=rows, max_size=rows))
                          for name in names}


class TestJsonText:
    @given(table=_table(), meta=_FLAT, fmt=st.sampled_from(["csv", "json"]))
    # no rows: an empty column must not read as one empty token
    @example(table=(*_TABLES[0][:2], {name: [] for name in _TABLES[0][2]}), meta={}, fmt="json")
    # a column of floats and a string that holds json's item separator
    @example(table=("points", _TABLES[1][1], {"t": [0.5, "a, b", float("nan")],
                                              "l2": [1e-300, -0.0, 3], "linf": ["", ", ", 2.5]}),
             meta={"grid": "x, y"}, fmt="json")
    @settings(max_examples=150, deadline=None)
    def test_a_table_is_its_rows(self, table, meta, fmt):
        # columns of equal length are written as a csv.writer writes their
        # rows at 12 digits, or as json.dumps(..., indent=2) writes records
        key, columns, fields = table
        rows = len(next(iter(fields.values())))
        rc = types.SimpleNamespace(mode="scan", format=fmt, out=None, params=REFERENCE_PARAMS)
        got = io.StringIO()
        with mock.patch.object(cli, "_timestamp", lambda: "T"), contextlib.redirect_stdout(got):
            cli._write_table(rc, meta, columns, key, fields)
        head = {"generated_at": "T", "mode": "scan", **meta}
        if fmt == "csv":
            want = io.StringIO()
            want.writelines(f"# {k}={v}\n" for k, v in head.items())
            writer = csv.writer(want)
            writer.writerow(columns)
            for i in range(rows):
                writer.writerow([cli._fmt12(fields[{"flags": "notes"}.get(c, c)][i])
                                 for c in columns])
            want = want.getvalue()
        else:
            records = [{name: fields[name][i] for name in fields} for i in range(rows)]
            want = json.dumps({"metadata": {**head, "params": cli._params_dict(REFERENCE_PARAMS)},
                               key: records}, indent=2) + "\n"
        assert got.getvalue() == want

    @pytest.mark.parametrize("args", [
        ["scan", "--c2", "0.8", "--grid", "0.2:1.2:3,0.2:3:4"],
        ["elliptic", "--g2", "1", "--g3", "0", "--u", "0.5"],
    ], ids=lambda args: args[0])
    def test_one_write_of_indent_2(self, monkeypatch, args):
        # the document is written whole, as json.dumps(..., indent=2) reads
        # it back (nan fields included)
        writes = []
        monkeypatch.setattr(sys, "stdout", types.SimpleNamespace(write=writes.append))
        assert main(args + ["--format", "json"]) == 0
        assert len(writes) == 1
        assert writes[0] == json.dumps(json.loads(writes[0]), indent=2) + "\n"


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

    @pytest.mark.parametrize("g2, g3, want", [("0", "0", 1e-6), ("12", "-8", 1.0)])
    def test_a_degenerate_lattice_far_out(self, capsys, g2, g3, want):
        # 1/u^2, and 1 + 3 / sinh^2(sqrt(3) u): no real period to fold by
        assert main(["elliptic", f"--g2={g2}", f"--g3={g3}", "--u", "1000"]) == 0
        kv = dict(ln.split(",") for ln in capsys.readouterr().out.splitlines())
        assert float(kv["wp_re"]) == pytest.approx(want, rel=1e-12)

    def test_a_degenerate_profile_lattice(self, capsys):
        # profile invariants (12, -8); P is about 1.5e-14 at x = 10, so the
        # stencil's pde_abs reads its own round-off
        assert main(["residuals", "--q", "-1", "--c1", "6", "--c2", "9", "--c3", "128",
                     "--z0", "1", "--q0", "1", "--x", "10", "--t", "0.1", "--branch", "mm",
                     "--format", "json"]) == 0
        rep, = json.loads(capsys.readouterr().out)["reports"]
        assert rep["notes"] or abs(rep["pde_abs"] - abs(rep["P"])) < 1e-6
        assert rep["r2"] < DEFAULT_TOLERANCES["r_alg"]


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

    def test_an_empty_skip_skips_nothing(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"skip": ""}))
        assert main(["selftest", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert out.count(" PASS") == 7 + 1 and " SKIP" not in out  # 7 checks, overall

    def test_parameters_are_refused_before_out_is_read(self, tmp_path):
        # the parameters resolve first, so a bad z0 is what is named; a
        # subprocess, so that out = 7 cannot reach this process's descriptors
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"z0": -1, "out": 7}))
        proc = subprocess.run(
            [sys.executable, "-m", "cnlse_ansatz", "residuals", "--config", str(cfg)],
            capture_output=True, text=True, timeout=60, env=CHILD_ENV,
        )
        assert proc.returncode == 1
        assert proc.stderr == "error: z0 must be positive\n"

    def test_t_end_wins_over_t_hyphen_end(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"t_end": 0.02, "t-end": 0.05}))
        out = tmp_path / "ev.json"
        assert main(["evolve", "--branch", "mm", "--grid=-1.25:1.25:64", "--format", "json",
                     "--config", str(cfg), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["points"][-1]["t"] == 0.02

    def test_a_key_whose_flag_is_given_is_not_read(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"x": "abc"}))
        assert main(["residuals", "--config", str(cfg), "--x", "1"]) == 0
        capsys.readouterr()

    def test_config_is_not_a_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"config": "f"}))
        assert main(["residuals", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == "error: unknown config keys: config\n"

    def test_every_run_flag_is_a_config_key(self, tmp_path, monkeypatch, capsys):
        # the flags as the parser holds them; each key reads as its flag
        monkeypatch.chdir(tmp_path)  # where an out of "0.5" writes
        parser = TestParser.modes(cli._build_parser(["residuals"]))["residuals"]
        flags = [a for a in parser._actions
                 if a.option_strings and a.option_strings[0] not in ("-h", "--config")]
        assert len(flags) == 17
        cfg = tmp_path / "cfg.json"

        def run(argv):
            code = main(["residuals", *argv])
            out, err = capsys.readouterr()
            return code, [ln for ln in out.splitlines() if "generated_at" not in ln], err

        for action in flags:
            flag = action.option_strings[0]
            value = action.choices[0] if action.choices else 0.5 if action.type is float else "0.5"
            cfg.write_text(json.dumps({flag[2:]: value}))
            got = run(["--config", str(cfg)])
            assert "unknown config key" not in got[2], flag
            assert got == run([flag, str(value)]), flag


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
