"""CLI: subcommands, exit codes, error lines, reproducibility."""

import os
import subprocess
import sys

import numpy as np
import pytest

from ltcsim import (
    PipelineConfig,
    approximate_trajectory,
    parse_network,
    read_trajectory,
    serialize_network,
)
from ltcsim.cli import cli_dispatch
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
