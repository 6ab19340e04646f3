"""CLI: subcommands, exit codes, error lines, reproducibility."""

import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest
import scipy.special
from hypothesis import given
from hypothesis import strategies as st

from ltcsim import (
    PipelineConfig,
    Trajectory,
    approximate_trajectory,
    parse_field,
    parse_network,
    read_trajectory,
    serialize_network,
    trajectory_to_csv,
)
import ltcsim.approx
from ltcsim import model
from ltcsim.cli import cli_dispatch
from ltcsim.io import _fmt
from helpers import (gap_ring, leak_neuron, overflowing_load, realized_network, rotation_field,
                     two_neuron_chain)


@pytest.fixture
def net_file(tmp_path):
    path = tmp_path / "net.json"
    path.write_text(serialize_network(leak_neuron(cm=1.0, g=2.0, v_leak=0.25)))
    return str(path)


def run(capsys, *argv):
    code = cli_dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBounds:
    def test_minimal_machine_lines(self, capsys, net_file):
        code, out, _ = run(capsys, "bounds", "--net", net_file)
        assert code == 0
        lines = out.splitlines()
        assert "TAU 0 0.5 0.5" in lines
        assert "BOX 0 0.25 0.25" in lines

    def test_overflowing_load(self, capsys, tmp_path):
        # a document the reader accepts, whose neuron 1 has a load of inf
        path = tmp_path / "load.json"
        path.write_text(serialize_network(overflowing_load()))
        code, out, err = run(capsys, "bounds", "--net", str(path))
        assert (code, err) == (0, "")
        assert "TAU 1 0 1" in out.splitlines()

    def test_gap_network_tau_only(self, capsys, tmp_path):
        path = tmp_path / "ring.json"
        path.write_text(serialize_network(gap_ring()))
        code, out, _ = run(capsys, "bounds", "--net", str(path))
        assert code == 0
        assert any(line.startswith("TAU 0 ") for line in out.splitlines())
        assert "BOX" not in out
        assert "gap junction" in out


class TestSimulateAndVerify:
    def test_simulate_then_verify_ok(self, capsys, net_file, tmp_path):
        out_csv = tmp_path / "traj.csv"
        code, _, _ = run(capsys, "simulate", "--net", net_file,
                         "--init", "0.25", "--dt", "0.01", "--t-end", "1",
                         "--method", "rk4", "--out", str(out_csv))
        assert code == 0
        traj = read_trajectory(out_csv)
        assert traj.states[0, 0] == 0.25
        code, out, _ = run(capsys, "verify", "--net", net_file,
                           "--traj", str(out_csv))
        assert code == 0
        assert "OK" in out

    def test_simulate_reproducible_bytes(self, capsys, net_file, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            code, _, _ = run(capsys, "simulate", "--net", net_file,
                             "--init", "0.7", "--dt", "0.001", "--t-end", "0.5",
                             "--method", "euler", "--record-every", "7",
                             "--out", str(path))
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_verify_reports_violations(self, capsys, tmp_path):
        # chemical network initialized far outside its box
        net = two_neuron_chain()
        path = tmp_path / "net.json"
        path.write_text(serialize_network(net))
        out_csv = tmp_path / "t.csv"
        code, _, _ = run(capsys, "simulate", "--net", str(path),
                         "--init", "0.2,25", "--dt", "0.01", "--t-end", "0.2",
                         "--out", str(out_csv))
        assert code == 0
        code, out, _ = run(capsys, "verify", "--net", str(path),
                           "--traj", str(out_csv))
        assert code == 3
        assert "STATE_HIGH" in out

    def test_verify_reports_non_finite(self, capsys, net_file, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("t,v0\n0,nan\n0.5,0.25\n1,inf\n")
        code, out, _ = run(capsys, "verify", "--net", net_file, "--traj", str(path))
        assert code == 3
        lines = [ln for ln in out.splitlines() if ln.startswith("VIOLATION NON_FINITE")]
        assert lines == ["VIOLATION NON_FINITE t=0 neuron=0 value=nan bound=nan",
                         "VIOLATION NON_FINITE t=1 neuron=0 value=inf bound=nan"]


class TestErrorPaths:
    def test_unknown_flag_usage(self, capsys, net_file):
        code, _, err = run(capsys, "bounds", "--net", net_file, "--frobnicate")
        assert code == 1
        assert err.startswith("ERROR usage:")

    def test_missing_subcommand(self, capsys):
        code, _, err = run(capsys)
        assert code == 1
        assert err.startswith("ERROR usage:")

    def test_unreadable_file(self, capsys):
        code, _, err = run(capsys, "bounds", "--net", "/nonexistent/net.json")
        assert code == 2
        assert err.startswith("ERROR parse:")

    @pytest.mark.parametrize("kind", ["network", "trajectory"])
    def test_file_not_utf8_is_parse_error(self, capsys, net_file, tmp_path, kind):
        bad = tmp_path / "bad"
        bad.write_bytes(b"t,v0\n0,\xff\n")
        argv = (["bounds", "--net", str(bad)] if kind == "network"
                else ["verify", "--net", net_file, "--traj", str(bad)])
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert err.startswith(f"ERROR parse: cannot read {kind} file {bad}: ")
        assert "can't decode byte 0xff" in err

    def test_unwritable_simulate_out(self, capsys, net_file, tmp_path):
        # a missing directory, and a path that is a directory
        for out in (tmp_path / "missing" / "o.csv", tmp_path):
            code, _, err = run(capsys, "simulate", "--net", net_file, "--init", "0.1",
                               "--dt", "0.1", "--t-end", "0.2", "--out", str(out))
            assert code == 2
            assert err.startswith(f"ERROR parse: cannot write trajectory file {out}")

    def test_simulate_out_to_devnull_and_fifo(self, capsys, net_file, tmp_path):
        args = ("simulate", "--net", net_file, "--init", "0.1", "--dt", "0.1",
                "--t-end", "0.2", "--out")
        assert run(capsys, *args, os.devnull)[0] == 0
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_text()))
        reader.start()
        code = run(capsys, *args, str(fifo))[0]
        reader.join(timeout=10)
        assert code == 0
        assert run(capsys, *args, str(tmp_path / "o.csv"))[0] == 0
        assert received == [(tmp_path / "o.csv").read_text()]

    @pytest.mark.parametrize("flag, kind", [("--out-net", "network"),
                                            ("--out-traj", "trajectory"),
                                            ("--report", "report")])
    def test_unwritable_approximate_output(self, capsys, tmp_path, flag, kind):
        out = tmp_path / "missing" / "out"
        # the other outputs could be written, but the run stops before any work
        others = [arg for other in ("--out-net", "--out-traj", "--report") if other != flag
                  for arg in (other, str(tmp_path / other.lstrip("-")))]
        code, _, err = run(capsys, *TestApproximate.ARGS, *others, flag, str(out))
        assert code == 2
        assert err.startswith(f"ERROR parse: cannot write {kind} file {out}")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag, kind", [("--out", "trajectory"),
                                            ("--out-net", "network"),
                                            ("--out-traj", "trajectory"),
                                            ("--report", "report")])
    def test_empty_output_path(self, capsys, tmp_path, flag, kind):
        # fails before any input is read: the network file does not exist,
        # and approximate's other outputs are never written
        if flag == "--out":
            argv = ["simulate", "--net", str(tmp_path / "absent.json"), "--init", "0.1",
                    "--dt", "0.1", "--t-end", "0.2"]
        else:
            argv = [*TestApproximate.ARGS,
                    *(arg for other in ("--out-net", "--out-traj", "--report")
                      if other != flag for arg in (other, str(tmp_path / other[2:])))]
        code, _, err = run(capsys, *argv, flag, "")
        assert code == 2
        assert err.startswith(f"ERROR parse: cannot write {kind} file : ")
        assert list(tmp_path.iterdir()) == []

    def test_refused_output_open_exits_2(self, capsys, net_file, tmp_path, opens):
        opens[1].add("w")
        out = tmp_path / "o.csv"
        code, _, err = run(capsys, "simulate", "--net", net_file, "--init", "0.1",
                           "--dt", "0.1", "--t-end", "0.2", "--out", str(out))
        assert code == 2
        assert err.startswith(f"ERROR parse: cannot write trajectory file {out}: ")

    def test_invalid_network_document(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"neurons": [{"cm": 0, "g_leak": 1, "v_leak": 0}], '
                        '"n_output": 1}')
        code, _, err = run(capsys, "bounds", "--net", str(path))
        assert code == 2
        assert err.startswith("ERROR parse:") and "cm" in err
        for digits in (400, 5000):  # beyond float range; beyond the int digit limit
            path.write_text('{"neurons": [{"cm": 1%s, "g_leak": 1, "v_leak": 0}], '
                            '"n_output": 1}' % ("0" * digits))
            code, _, err = run(capsys, "bounds", "--net", str(path))
            assert code == 2
            assert err.startswith("ERROR parse:")

    def test_bad_init_value(self, capsys, net_file, tmp_path):
        code, _, err = run(capsys, "simulate", "--net", net_file,
                           "--init", "abc", "--dt", "0.1", "--t-end", "1",
                           "--out", str(tmp_path / "o.csv"))
        assert code == 1
        assert err.startswith("ERROR usage:")

    def test_bad_dt_value(self, capsys, net_file, tmp_path):
        for dt, t_end in (("-1", "1"), ("nan", "1"), ("0.1", "inf"), ("1e-300", "1e300"),
                          ("1e-12", "1e4")):
            code, _, err = run(capsys, "simulate", "--net", net_file,
                               "--init", "0.0", "--dt", dt, "--t-end", t_end,
                               "--out", str(tmp_path / "o.csv"))
            assert code == 1
            assert err.startswith("ERROR usage:")
        approx = ["approximate", "--field", "x2;-x1", "--domain", "-1:1,-1:1",
                  "--x0", "1,0"]
        for flags in (["--horizon", "nan"], ["--horizon", "1", "--features", "0"]):
            code, _, err = run(capsys, *approx, *flags)
            assert code == 1
            assert err.startswith("ERROR usage:")
        code, _, err = run(capsys, *approx, "--horizon", "1", "--seed", "-1")
        assert code == 1
        assert err.startswith("ERROR usage: seed must be >= 0, got -1")
        for domain in ("1:0,0:1", "1:1,0:1", "0:1,0:inf", "0:1,nan:1"):
            code, _, err = run(capsys, "approximate", "--field", "x2;-x1", "--domain", domain,
                               "--x0", "0.5,0.5", "--horizon", "1")
            assert code == 1
            assert err.startswith("ERROR usage: --domain")
        traj = tmp_path / "t.csv"
        traj.write_text("t,v0\n0,0.25\n")
        for tol in ("nan", "-5", "inf"):
            code, _, err = run(capsys, "verify", "--net", net_file, "--traj", str(traj),
                               "--tolerance", tol)
            assert code == 1
            assert err.startswith("ERROR usage:")

    def test_underscore_in_numeric_flag(self, capsys, net_file, tmp_path):
        # float() and int() read "1_0" as 10; no numeric flag takes it
        sim = ["simulate", "--net", net_file, "--out", str(tmp_path / "o.csv")]
        for flags, named in ((["--init", "1_0", "--dt", "0.1", "--t-end", "1"], "--init"),
                             (["--init", "0", "--dt", "1_0e-3", "--t-end", "1"], "--dt"),
                             (["--init", "0", "--dt", "0.1", "--t-end", "1_0"], "--t-end"),
                             (["--init", "0", "--dt", "0.1", "--t-end", "1",
                               "--record-every", "1_0"], "--record-every")):
            code, _, err = run(capsys, *sim, *flags)
            assert code == 1
            assert err.startswith("ERROR usage:") and named in err
        approx = ["approximate", "--field", "x2;-x1", "--horizon", "1"]
        for flags, named in ((["--domain", "0:1,0:1_0", "--x0", "0.5,0.5"], "--domain"),
                             (["--domain", "0:1,0:1", "--x0", "0.5,0_5"], "--x0"),
                             (["--domain", "0:1,0:1", "--x0", "0.5,0.5", "--tau", "1_00"],
                              "--tau"),
                             (["--domain", "0:1,0:1", "--x0", "0.5,0.5", "--features", "1_6"],
                              "--features")):
            code, _, err = run(capsys, *approx, *flags)
            assert code == 1
            assert err.startswith("ERROR usage:") and named in err
        traj = tmp_path / "t.csv"
        traj.write_text("t,v0\n0,0.25\n")
        code, _, err = run(capsys, "verify", "--net", net_file, "--traj", str(traj),
                           "--tolerance", "1_0")
        assert code == 1
        assert err.startswith("ERROR usage: argument --tolerance: invalid float value: '1_0'")

    def test_init_dimension_mismatch_numeric(self, capsys, net_file, tmp_path):
        code, _, err = run(capsys, "simulate", "--net", net_file,
                           "--init", "0.1,0.2", "--dt", "0.1", "--t-end", "1",
                           "--out", str(tmp_path / "o.csv"))
        assert code == 3
        assert err.startswith("ERROR numeric:")

    def test_field_syntax_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "approximate", "--field", "x2;-x1)",
                           "--domain", "-1:1,-1:1", "--x0", "1,0",
                           "--horizon", "1")
        assert code == 2
        assert err.startswith("ERROR parse:")

    @pytest.mark.parametrize("field", [
        "(" * 260 + "x2" + ")" * 260 + ";-x1",  # deeper than the parser recurses
        "+".join(["x2"] * 1200) + ";-x1",  # deeper than the emitter recurses
        "x²;-x1",  # a superscript two is not a digit
        "x2^" + "1" * 5000 + ";-x1",  # more digits than int() takes
    ], ids=["parentheses", "sum", "superscript", "long-exponent"])
    def test_field_parse_error_exits_2(self, capsys, field):
        code, _, err = run(capsys, "approximate", "--field", field,
                           "--domain", "-1:1,-1:1", "--x0", "1,0", "--horizon", "1")
        assert code == 2
        assert err.startswith("ERROR parse:")
        assert "Traceback" not in err

    def test_x0_outside_domain_numeric(self, capsys):
        code, _, err = run(capsys, "approximate", "--field", "x2;-x1",
                           "--domain", "-1:1,-1:1", "--x0", "5,0",
                           "--horizon", "1", "--features", "4")
        assert code == 3
        assert err.startswith("ERROR numeric:")

    def test_horizon_step_count_overflow_numeric(self, capsys):
        # a finite horizon over the reference step is inf steps: named, not int(inf)
        code, _, err = run(capsys, "approximate", "--field", "x2;-x1", "--domain", "-1:1,-1:1",
                           "--x0", "1,0", "--horizon", "1e308", "--features", "4")
        assert code == 3
        assert err.startswith("ERROR numeric: t_end / dt must be finite, got 1e+308 / ")

    def test_horizon_step_count_over_bound_numeric(self, capsys):
        # a finite step count no run could finish is refused before any stage runs
        code, _, err = run(capsys, "approximate", "--field", "x2;-x1", "--domain", "-1:1,-1:1",
                           "--x0", "0.5,0", "--horizon", "1e300", "--features", "4")
        assert code == 3
        assert err.startswith("ERROR numeric: t_end / dt must be at most 2**50 steps, "
                              "got 1e+300 / ")

    def test_horizon_under_one_network_step_numeric(self, capsys, monkeypatch):
        # refused before the Lipschitz estimate, the fit or the realization,
        # and worded in the pipeline's own names
        calls = []
        monkeypatch.setattr(ltcsim.approx, "estimate_lipschitz", calls.append)
        code, _, err = run(capsys, "approximate", "--field", "x2;-x1", "--domain", "-1:1,-1:1",
                           "--x0", "0.5,0", "--horizon", "0.0001", "--features", "4")
        assert code == 3 and calls == []
        assert err == "ERROR numeric: horizon must be >= ltc_dt, got 0.0001 < 0.001\n"

    def test_overflowing_power_numeric(self, capsys):
        # x1 ** 2000 raises OverflowError where a product would give inf: the
        # same refusal as any non-finite field value
        code, _, err = run(capsys, "approximate", "--field", "x1^2000", "--domain=-2:2",
                           "--x0", "0.5", "--horizon", "0.1", "--features", "4")
        assert code == 3
        assert err == "ERROR numeric: vector field returned non-finite values on its domain\n"

    def test_overflowing_reference_solve_diverges(self, capsys):
        # the reference state passes 1e34, where x1 ** 9 raises OverflowError:
        # a divergence at that step, as a product's inf would be
        code, _, err = run(capsys, "approximate", "--field", "x1^9", "--domain=-2:2",
                           "--x0", "2", "--horizon", "5", "--features", "4")
        assert code == 3
        assert err.splitlines()[0] == ("ERROR numeric: integration diverged at "
                                       "t=0.0006000000000000001: non-finite state component")

    @pytest.mark.parametrize("field, domain, x0", [
        ("1e308*x1;x2", "-1.5:1.5,-1.5:1.5", "1,0"),  # Lipschitz estimate on the grid
        ("1e308*x1;x2;x3;x4", "-1.5:1.5,-1.5:1.5,-1:1,-1:1", "1,0,0,0"),  # on random pairs
    ], ids=["2-D", "4-D"])
    def test_overflowing_field_first_line_is_error(self, field, domain, x0):
        # the overflow is reported as the error, not first as numpy warnings
        out = subprocess.run(
            [sys.executable, "-m", "ltcsim", "approximate", "--field", field, "--domain", domain,
             "--x0", x0, "--horizon", "0.2", "--features", "16"],
            capture_output=True, text=True, env=subprocess_env())
        assert out.returncode == 3
        assert out.stderr.splitlines()[0] == "ERROR numeric: array must not contain infs or NaNs"

    def test_divergence_numeric(self, capsys, net_file, tmp_path):
        code, _, err = run(capsys, "simulate", "--net", net_file,
                           "--init", "1.0", "--dt", "1000", "--t-end", "1000000",
                           "--method", "euler", "--out", str(tmp_path / "o.csv"))
        assert code == 3
        assert "diverged" in err


ERROR_LINE = re.compile(r"^ERROR (usage|parse|numeric): ")


def numbers(lo, hi):
    """Flag values: finite numbers in [lo, hi], or nan, +-inf, zero, negative."""
    return st.floats(lo, hi).map(repr) | st.sampled_from(
        ["nan", "inf", "-inf", "0", "-0.0", "-0.5"])


def dispatch(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_dispatch(list(argv))
    return code, out.getvalue(), err.getvalue()


def assert_contract(code, err):
    """Documented exit code; a failure's first stderr line names its category."""
    assert code in (0, 1, 2, 3)
    if code:
        assert ERROR_LINE.match(err.splitlines()[0])
    else:
        assert err == ""


def fresh_file(directory) -> str:
    """A new empty file per example: truncating a file that holds data can
    flush it to disk, which costs tens of milliseconds on some file systems."""
    fd, path = tempfile.mkstemp(".csv", dir=directory)
    os.close(fd)
    return path


@pytest.fixture(scope="module")
def chain_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("contract")
    (path / "net.json").write_text(serialize_network(two_neuron_chain()))
    return path


class TestContract:
    # (dt, t_end) pairs stay within 40 steps, or diverge within a few
    @given(st.tuples(st.floats(0.05, 0.5).map(repr), st.floats(0.5, 2.0).map(repr))
           | st.tuples(numbers(0.05, 0.5), numbers(0.05, 2.0)) | st.just(("1000", "5000")),
           st.integers(-1, 4),
           st.lists(st.floats(-2.0, 2.0).map(repr), min_size=2, max_size=2)
           | st.lists(numbers(-2.0, 2.0), min_size=1, max_size=3),
           st.sampled_from(["euler", "rk4", "semi-implicit"]), numbers(0.0, 1e-3))
    def test_simulate_then_verify(self, chain_dir, steps, every, init, method, tolerance):
        dt, t_end = steps
        net, csv = str(chain_dir / "net.json"), fresh_file(chain_dir)
        code, _, err = dispatch("simulate", "--net", net, "--init=" + ",".join(init),
                                "--dt=" + dt, "--t-end=" + t_end, "--method", method,
                                "--record-every", str(every), "--out", csv)
        assert_contract(code, err)
        dt, t_end = float(dt), float(t_end)
        if not (math.isfinite(dt) and math.isfinite(t_end) and 0 < dt <= t_end
                and every >= 1):
            assert code == 1
            return
        if len(init) != 2 or not all(math.isfinite(float(v)) for v in init):
            assert code == 3
            return
        assert code in (0, 3)
        if code:
            return
        code, out, err = dispatch("verify", "--net", net, "--traj", csv,
                                  "--tolerance=" + tolerance)
        assert_contract(code, err)
        tolerance = float(tolerance)
        assert code == (1 if not (math.isfinite(tolerance) and tolerance >= 0)
                        else 3 if "violation(s)" in out else 0)

    @given(st.integers(1, 6), st.data(), st.sampled_from([math.nan, math.inf, -math.inf]),
           st.floats(0.0, 1e-3))
    def test_verify_reports_injected_non_finite(self, chain_dir, rows, data, bad,
                                                tolerance):
        states = np.array(data.draw(st.lists(st.floats(-0.5, 1.0), min_size=2 * rows,
                                             max_size=2 * rows))).reshape(rows, 2)
        row, col = data.draw(st.integers(0, rows - 1)), data.draw(st.integers(0, 1))
        states[row, col] = bad
        csv = fresh_file(chain_dir)
        with open(csv, "w", encoding="utf-8") as fh:
            fh.write(trajectory_to_csv(Trajectory(0.25 * np.arange(rows), states)))
        code, out, err = dispatch("verify", "--net", str(chain_dir / "net.json"),
                                  "--traj", csv, "--tolerance", repr(tolerance))
        assert_contract(code, err)
        assert code == 3
        line = (f"VIOLATION NON_FINITE t={_fmt(0.25 * row)} neuron={col} "
                f"value={_fmt(bad)} bound=nan")
        assert out.splitlines().count(line) == 1


class TestApproximate:
    ARGS = [
        "approximate", "--field", "x2;-x1", "--domain", "-1.5:1.5,-1.5:1.5",
        "--x0", "1,0", "--horizon", "0.5", "--features", "8", "--seed", "7",
        "--samples", "256",
    ]

    def test_outputs_match_library_bit_exactly(self, capsys, tmp_path):
        report_path = tmp_path / "report.txt"
        net_path = tmp_path / "net.json"
        traj_path = tmp_path / "pair.csv"
        code, out, _ = run(capsys, *self.ARGS, "--out-net", str(net_path),
                           "--out-traj", str(traj_path),
                           "--report", str(report_path))
        assert code == 0
        report_text = report_path.read_text()
        line = [ln for ln in report_text.splitlines()
                if ln.startswith("sup_traj_error")][0]
        cli_value = float(line.split("=")[1])

        lib = approximate_trajectory(
            rotation_field(), [1.0, 0.0], 0.5,
            PipelineConfig(n_features=8, seed=7, n_samples=256),
        )
        assert cli_value == lib.sup_traj_error

        net = parse_network(net_path.read_text())
        assert net == lib.network

        header = traj_path.read_text().splitlines()[0]
        assert header == "t,x0_ref,x1_ref,x0_ltc,x1_ltc"

    def test_repeat_runs_identical_bytes(self, capsys, tmp_path):
        paths = []
        for tag in ("a", "b"):
            net_path = tmp_path / f"net_{tag}.json"
            traj_path = tmp_path / f"pair_{tag}.csv"
            rep_path = tmp_path / f"rep_{tag}.txt"
            code, _, _ = run(capsys, *self.ARGS, "--out-net", str(net_path),
                             "--out-traj", str(traj_path), "--report", str(rep_path))
            assert code == 0
            paths.append((net_path, traj_path, rep_path))
        for left, right in zip(paths[0], paths[1]):
            assert left.read_bytes() == right.read_bytes()

    def test_repeat_run_leaves_identical_outputs_in_place(self, capsys, tmp_path):
        def outputs(tag):
            return [tmp_path / f"{tag}_{name}" for name in ("net.json", "pair.csv", "rep.txt")]

        def approximate(paths):
            flags = zip(("--out-net", "--out-traj", "--report"), map(str, paths))
            assert run(capsys, *self.ARGS, *(a for pair in flags for a in pair))[0] == 0

        approximate(outputs("a"))
        inodes = [p.stat().st_ino for p in outputs("a")]
        approximate(outputs("a"))  # truncated and rewritten, so the same files
        assert [p.stat().st_ino for p in outputs("a")] == inodes
        approximate(outputs("fresh"))
        for again, fresh in zip(outputs("a"), outputs("fresh")):
            assert again.read_bytes() == fresh.read_bytes()

    @pytest.mark.parametrize("field, domain, horizon, features, tau, wl, verdicts", [
        # the cli-files settings: the bias leakage breaks condition (b)
        ("x2;-x1", "-1.5:1.5,-1.5:1.5", 0.2, 256, 100.0, 1e-4, ("PASS", "FAIL", "PASS")),
        # the same with a slower base rate: every condition passes
        ("x2;-x1", "-1.5:1.5,-1.5:1.5", 0.2, 256, 1e4, 1e-6, ("PASS", "PASS", "PASS")),
        # test_stiff_field_exits_zero's field: exp(l_gtilde * horizon) overflows
        ("x2;(1 - x1^2)*x2 - x1", "-2.5:2.5,-3:3", 0.5, 16, 100.0, 1e-4,
         ("FAIL", "FAIL", "PASS")),
    ])
    def test_report_lines_pinned(self, capsys, field, domain, horizon, features, tau, wl,
                                 verdicts):
        # every line of the report, against the library's values for the same
        # inputs in this process (their digits depend on the BLAS threads)
        code, out, _ = run(capsys, "approximate", "--field", field, "--domain", domain,
                           "--x0", "1,0", "--horizon", repr(horizon), "--features",
                           str(features), "--seed", "7", "--tau", repr(tau), "--wl", repr(wl))
        assert code == 0
        box = [[float(v) for v in axis.split(":")] for axis in domain.split(",")]
        rep = approximate_trajectory(parse_field(field.split(";"), box), [1.0, 0.0], horizon,
                                     PipelineConfig(n_features=features, seed=7, tau_base=tau,
                                                    w_l=wl))
        system, eta, l_gt = rep.system, rep.eta, rep.l_gtilde
        # the margins, worked out here from the report's own values
        tau_min = 1.0 / (1.0 / tau + wl)
        edges = np.array(box)
        lo, hi = edges[:, 0] - eta, edges[:, 1] + eta
        margin_a = rep.epsilon_l / 2.0 - float(np.sqrt(np.sum(np.maximum(lo**2, hi**2)))) / tau_min
        bias = (ltcsim.approx._error_budget(eta, l_gt, horizon)
                - float(np.linalg.norm(system.bias)) / tau_min)
        rate = l_gt / 2.0 - 1.0 / tau_min
        tau_wl = 0.01 - tau * wl
        words = tuple("PASS" if ok else "FAIL"
                      for ok in (margin_a > 0, bias > 0 and rate > 0, tau_wl >= 0))
        assert words == verdicts
        assert out.splitlines() == [
            "approximation report",
            "  field dim      n = 2",
            f"  features       N = {features}",
            "  seed           7",
            f"  tau            {_fmt(tau)}",
            f"  w_l            {_fmt(wl)}",
            f"  fit sup_error  {_fmt(rep.fitted.sup_error)}",
            f"  lipschitz_f    {_fmt(rep.lipschitz_f)}",
            f"  l_gtilde       {_fmt(l_gt)}",
            f"  eta            {_fmt(eta)}",
            f"  epsilon_l      {_fmt(rep.epsilon_l)}",
            f"  tau_sys range  [{_fmt(tau_min)}, {_fmt(tau)}]",
            f"  condition_a    {words[0]}  margin={_fmt(margin_a)}",
            f"  condition_b    {words[1]}  bias_margin={_fmt(bias)} rate_margin={_fmt(rate)}",
            f"  tau_wl         {words[2]}  margin={_fmt(tau_wl)}",
            f"sup_traj_error = {_fmt(rep.sup_traj_error)}",
        ]

    def test_fourth_row_printed_by_the_cli(self, capsys, monkeypatch):
        # the CLI prints whatever rows the check returns, each the same way
        check = ltcsim.approx.check_tau_conditions

        def with_extra_row(*args):
            return [*check(*args), ("condition_x", False, (("margin", -1.0), ("slack", 0.5)))]

        monkeypatch.setattr(ltcsim.approx, "check_tau_conditions", with_extra_row)
        code, out, _ = run(capsys, *self.ARGS)
        assert code == 0
        lines = out.splitlines()
        assert lines[-3].startswith("  tau_wl         PASS  margin=")
        assert lines[-2] == "  condition_x    FAIL  margin=-1 slack=0.5"
        assert lines[-1].startswith("sup_traj_error = ")

    def test_stiff_field_exits_zero(self, capsys):
        # exp(l_gtilde * horizon) overflows here; the conditions report FAIL
        code, out, _ = run(capsys, "approximate", "--field", "x2;(1 - x1^2)*x2 - x1",
                           "--domain", "-2.5:2.5,-3:3", "--x0", "1,0",
                           "--horizon", "0.5", "--features", "16")
        assert code == 0
        assert "condition_b    FAIL" in out
        assert out.splitlines()[-1].startswith("sup_traj_error = ")

    def test_domain_field_dimension_mismatch(self, capsys):
        code, _, err = run(capsys, "approximate", "--field", "x2;-x1",
                           "--domain", "-1:1", "--x0", "1,0", "--horizon", "1")
        assert code == 1
        assert err.startswith("ERROR usage:")


def subprocess_env():
    return dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))


def test_import_skips_scipy_stats_and_spatial():
    code = ("import sys, ltcsim; "
            "print(sorted(m for m in sys.modules "
            "if m.startswith(('scipy.stats', 'scipy.spatial'))))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=subprocess_env())
    assert out.stdout.strip() == "[]"


@pytest.fixture(scope="module")
def realized_64(tmp_path_factory):
    """argv for bounds, simulate (semi-implicit and RK4, 200 steps each, as
    cli-files simulates) and verify of a realized N = 64 network file."""
    path = tmp_path_factory.mktemp("realized")
    net, traj = str(path / "net.json"), str(path / "traj.csv")
    (path / "net.json").write_text(serialize_network(realized_network(62)))
    init = ",".join(repr(v) for v in np.linspace(-0.5, 0.5, 64).tolist())
    simulate = ["simulate", "--net", net, "--init", init, "--dt", "0.001",
                "--t-end", "0.2", "--out", traj]
    return {"bounds": ["bounds", "--net", net],
            "semi-implicit": [*simulate, "--method", "semi-implicit"],
            "rk4": [*simulate, "--method", "rk4"],
            "verify": ["verify", "--net", net, "--traj", traj]}


def test_scipy_loaded_only_where_called(tmp_path, realized_64):
    # import ltcsim, bounds, simulate and verify, and on its own an approximate
    # with 256 features and 1,024 samples, stay within the math.exp sigmoid's
    # budget and fit without scipy, so they load no scipy module
    net = str(tmp_path / "net.json")
    with open(net, "w") as fh:
        fh.write(serialize_network(two_neuron_chain()))
    chain = [["bounds", "--net", net],
             ["simulate", "--net", net, "--init", "0.5,0.3", "--dt", "0.01",
              "--t-end", "0.1", "--out", str(tmp_path / "traj.csv")],
             ["verify", "--net", net, "--traj", str(tmp_path / "traj.csv")]]
    realized = [realized_64[k] for k in ("bounds", "semi-implicit", "rk4", "verify")]
    approximate = [["approximate", "--field", "x2;-x1", "--domain", "-1.5:1.5,-1.5:1.5",
                    "--x0", "1,0", "--horizon", "0.2", "--features", "256", "--seed", "7",
                    "--out-net", str(tmp_path / "approx.json"),
                    "--out-traj", str(tmp_path / "pair.csv")]]
    code = """
import contextlib, io, json, sys
import ltcsim
from ltcsim.cli import cli_dispatch
seen = [sorted(m for m in sys.modules if m.startswith("scipy"))]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli_dispatch(argv) == 0
    seen.append(sorted(m for m in sys.modules if m.startswith("scipy")))
print(json.dumps(seen))
"""
    for argvs in (chain + realized, approximate):
        out = subprocess.run([sys.executable, "-c", code, json.dumps(argvs)], capture_output=True,
                             text=True, check=True, env=subprocess_env())
        assert json.loads(out.stdout) == [[]] * (len(argvs) + 1)


def test_sigmoid_budget_spent_imports_scipy():
    code = """
import sys
import numpy as np
import ltcsim.model as model
assert not [m for m in sys.modules if m.startswith("scipy")]
model.expit(np.zeros(model._LIBM_BUDGET))
import scipy.special
print(model.expit is scipy.special.expit)
"""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=subprocess_env())
    assert out.stdout.strip() == "True"


def test_sigmoid_in_place_on_both_paths():
    # expit(x, out=x) gives expit(x)'s bits on the math.exp path within the
    # budget and on scipy's after the switch; expit(x) leaves x unwritten
    code = """
import json, math, sys
import numpy as np
import ltcsim.model as model
m = model._EXP_MAX
edges = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -745.2, -800.0, 800.0,
         -m, m, math.nextafter(-m, -math.inf), math.nextafter(-m, 0.0)]
seen = []
for spent in (0, model._LIBM_BUDGET):
    model.expit(np.zeros(spent))
    path = "scipy" if "scipy.special" in sys.modules else "libm"
    for x in (np.array(edges * 700), np.array(edges).reshape(13, 1), np.array(-800.0),
              np.array(-0.0), np.array(math.nan)):
        before = x.copy()
        want = model.expit(x)
        kept = (x.view(np.int64) == before.view(np.int64)).all()
        got = model.expit(x, out=x)
        same = (got.view(np.int64) == want.view(np.int64)).all()
        seen.append([path, bool(kept and got is x and same)])
print(json.dumps(seen))
"""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=subprocess_env())
    assert json.loads(out.stdout) == [["libm", True]] * 5 + [["scipy", True]] * 5


def test_sigmoid_paths_write_same_files(capsys, realized_64):
    # fresh processes stay on the math.exp sigmoid; this one has spent its
    # budget, so it runs scipy's expit
    model.expit(np.zeros(model._LIBM_BUDGET))
    assert model.expit is scipy.special.expit
    argv, traj = realized_64, Path(realized_64["verify"][-1])
    for method in ("semi-implicit", "rk4"):
        fresh = [subprocess.run([sys.executable, "-m", "ltcsim", *args], capture_output=True,
                                text=True, check=True, env=subprocess_env()).stdout
                 for args in (argv[method], argv["verify"])]
        csv = traj.read_bytes()
        traj.unlink()
        assert run(capsys, *argv[method]) == (0, fresh[0], "")
        assert traj.read_bytes() == csv
        assert run(capsys, *argv["verify"]) == (0, fresh[1], "")
