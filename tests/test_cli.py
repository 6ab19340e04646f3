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

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ltcsim import (
    PipelineConfig,
    Trajectory,
    approximate_trajectory,
    parse_network,
    read_trajectory,
    serialize_network,
    trajectory_to_csv,
)
from ltcsim.cli import cli_dispatch
from ltcsim.io import _fmt
from helpers import gap_ring, leak_neuron, rotation_field, two_neuron_chain


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
        for dt, t_end in (("-1", "1"), ("nan", "1"), ("0.1", "inf")):
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
        traj = tmp_path / "t.csv"
        traj.write_text("t,v0\n0,0.25\n")
        for tol in ("nan", "-5", "inf"):
            code, _, err = run(capsys, "verify", "--net", net_file, "--traj", str(traj),
                               "--tolerance", tol)
            assert code == 1
            assert err.startswith("ERROR usage:")

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

    def test_x0_outside_domain_numeric(self, capsys):
        code, _, err = run(capsys, "approximate", "--field", "x2;-x1",
                           "--domain", "-1:1,-1:1", "--x0", "5,0",
                           "--horizon", "1", "--features", "4")
        assert code == 3
        assert err.startswith("ERROR numeric:")

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


def test_import_skips_scipy_stats_and_spatial():
    code = ("import sys, ltcsim; "
            "print(sorted(m for m in sys.modules "
            "if m.startswith(('scipy.stats', 'scipy.spatial'))))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
    assert out.stdout.strip() == "[]"


def test_scipy_loaded_only_where_called(tmp_path):
    # import ltcsim and bounds evaluate no sigmoid and solve nothing; simulate
    # and verify need scipy.special's expit but not scipy.linalg
    net, traj = str(tmp_path / "net.json"), str(tmp_path / "traj.csv")
    with open(net, "w") as fh:
        fh.write(serialize_network(two_neuron_chain()))
    code = f"""
import contextlib, io, json, sys
import ltcsim
from ltcsim.cli import cli_dispatch
seen = []
for argv in ([], ["bounds", "--net", {net!r}],
             ["simulate", "--net", {net!r}, "--init", "0.5,0.3", "--dt", "0.01",
              "--t-end", "0.1", "--out", {traj!r}],
             ["verify", "--net", {net!r}, "--traj", {traj!r}]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert not argv or cli_dispatch(argv) == 0
    seen.append(sorted(m for m in sys.modules if m.startswith("scipy")))
print(json.dumps(seen))
"""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
    after_import, after_bounds, after_simulate, after_verify = json.loads(out.stdout)
    assert after_import == [] and after_bounds == []
    assert "scipy.special" in after_simulate
    for loaded in (after_simulate, after_verify):
        assert not [m for m in loaded if m.startswith("scipy.linalg")]
