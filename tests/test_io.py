"""Network document and trajectory CSV formats."""

import json
import os

import numpy as np
import pytest
from hypothesis import given

from ltcsim import (
    FormatError,
    LtcNetwork,
    Method,
    SolverConfig,
    Trajectory,
    parse_network,
    random_network,
    serialize_network,
    simulate,
    trajectory_from_csv,
    trajectory_to_csv,
    write_network,
    write_trajectory,
)
from ltcsim.io import _write_text
from helpers import networks, two_neuron_chain

def reference_document(net):
    """The document as the JSON encoder writes it from the item views."""
    doc = {
        "neurons": [{"cm": p.cm, "g_leak": p.g_leak, "v_leak": p.v_leak}
                    for p in net.neurons],
        "chemical_synapses": [
            {"src": s.src, "dst": s.dst, "w": s.w, "gamma": s.gamma, "mu": s.mu,
             "e_rev": s.e_rev}
            for s in net.chem
        ],
        "gap_junctions": [{"a": g.a, "b": g.b, "w_hat": g.w_hat} for g in net.gaps],
        "n_output": net.n_output,
    }
    return json.dumps(doc, indent=2) + "\n"

MINIMAL = """
{
  "neurons": [{"cm": 1.0, "g_leak": 2.0, "v_leak": 0.25}],
  "chemical_synapses": [],
  "gap_junctions": [],
  "n_output": 1
}
"""


class TestNetworkDocument:
    def test_minimal_document(self):
        net = parse_network(MINIMAL)
        assert net.size == 1 and net.n_output == 1
        assert net.neurons[0].g_leak == 2.0

    def test_lists_optional(self):
        net = parse_network('{"neurons": [{"cm": 1, "g_leak": 1, "v_leak": 0}], '
                            '"n_output": 1}')
        assert net.size == 1

    def test_roundtrip_structural_equality(self):
        rng = np.random.default_rng(30)
        for _ in range(50):
            net = random_network(rng)
            assert parse_network(serialize_network(net)) == net

    @given(networks())
    def test_serializer_matches_json_encoder(self, net):
        text = serialize_network(net)
        assert text == reference_document(net)
        again = parse_network(text)
        assert again == net
        assert again.neurons == net.neurons and again.chem == net.chem
        assert again.gaps == net.gaps

    def test_array_and_tuple_networks_agree(self):
        rng = np.random.default_rng(32)
        for _ in range(20):
            net = random_network(rng)
            cols = {f: [getattr(x, f) for x in items]
                    for items, fields in ((net.neurons, ("cm", "g_leak", "v_leak")),
                                          (net.chem, ("src", "dst", "w", "gamma",
                                                      "mu", "e_rev")),
                                          (net.gaps, ("a", "b", "w_hat")))
                    for f in fields}
            arrays = LtcNetwork.from_arrays(**cols, n_output=net.n_output)
            assert arrays == net and repr(arrays) == repr(net)
            assert serialize_network(arrays) == serialize_network(net)

    def test_serialized_floats_are_exact(self):
        net = two_neuron_chain()
        text = serialize_network(net)
        again = parse_network(text)
        assert again.neurons[0].cm == net.neurons[0].cm
        assert again.chem[0].gamma == net.chem[0].gamma

    def test_invalid_cm_names_field(self):
        doc = json.loads(MINIMAL)
        doc["neurons"][0]["cm"] = 0.0
        with pytest.raises(FormatError, match=r"neurons\[0\].*cm"):
            parse_network(json.dumps(doc))

    def test_missing_key_named(self):
        doc = json.loads(MINIMAL)
        del doc["neurons"][0]["v_leak"]
        with pytest.raises(FormatError, match="v_leak"):
            parse_network(json.dumps(doc))

    def test_unknown_key_named(self):
        doc = json.loads(MINIMAL)
        doc["neurons"][0]["leak"] = 1.0
        with pytest.raises(FormatError, match="leak"):
            parse_network(json.dumps(doc))

    def test_syntax_error_position(self):
        with pytest.raises(FormatError, match="line"):
            parse_network('{"neurons": [,]}')

    def test_topology_violation_reported(self):
        doc = {
            "neurons": [{"cm": 1, "g_leak": 1, "v_leak": 0}] * 2,
            "chemical_synapses": [
                {"src": 1, "dst": 0, "w": 1, "gamma": 1, "mu": 0, "e_rev": 0}
            ],
            "gap_junctions": [],
            "n_output": 1,
        }
        with pytest.raises(FormatError, match="output"):
            parse_network(json.dumps(doc))

    def test_index_out_of_range_reported(self):
        doc = {
            "neurons": [{"cm": 1, "g_leak": 1, "v_leak": 0}],
            "chemical_synapses": [
                {"src": 0, "dst": 5, "w": 1, "gamma": 1, "mu": 0, "e_rev": 0}
            ],
            "gap_junctions": [],
            "n_output": 1,
        }
        with pytest.raises(FormatError, match="out of range"):
            parse_network(json.dumps(doc))

    def test_first_bad_item_named(self):
        syn = {"src": 0, "dst": 1, "w": 1, "gamma": 1, "mu": 0, "e_rev": 0}
        doc = {"neurons": [{"cm": 1, "g_leak": 1, "v_leak": 0}] * 2,
               "chemical_synapses": [dict(syn) for _ in range(6)], "n_output": 1}
        doc["chemical_synapses"][2]["w"] = -1.0
        doc["chemical_synapses"][4]["w"] = -2.0
        with pytest.raises(FormatError, match=r"chemical_synapses\[2\]: w must be >= 0"):
            parse_network(json.dumps(doc))
        # a value error still wins over a type error further down the list
        doc["chemical_synapses"][4]["w"] = "heavy"
        with pytest.raises(FormatError, match=r"chemical_synapses\[2\]: w"):
            parse_network(json.dumps(doc))
        doc["chemical_synapses"][1]["mu"] = None
        with pytest.raises(FormatError, match=r"chemical_synapses\[1\]\.mu: expected"):
            parse_network(json.dumps(doc))
        doc["chemical_synapses"] = [dict(syn) for _ in range(6)]
        doc["chemical_synapses"][3]["dst"] = 7
        doc["chemical_synapses"][5]["dst"] = 9
        with pytest.raises(FormatError, match=r"chemical_synapses\[3\]: index out of range"):
            parse_network(json.dumps(doc))

    def test_index_beyond_intp_out_of_range(self):
        doc = {"neurons": [{"cm": 1, "g_leak": 1, "v_leak": 0}] * 2,
               "chemical_synapses": [{"src": 0, "dst": 10**30, "w": 1, "gamma": 1,
                                      "mu": 0, "e_rev": 0}],
               "n_output": 1}
        with pytest.raises(FormatError, match=r"chemical_synapses\[0\]: index out of range"):
            parse_network(json.dumps(doc))

    def test_non_numeric_value(self):
        doc = json.loads(MINIMAL)
        doc["neurons"][0]["cm"] = "one"
        with pytest.raises(FormatError, match="number"):
            parse_network(json.dumps(doc))


class TestTrajectoryCsv:
    def test_header_format(self):
        traj = Trajectory(np.array([0.0, 0.1]), np.array([[1.0, 2.0], [3.0, 4.0]]))
        text = trajectory_to_csv(traj)
        assert text.splitlines()[0] == "t,v0,v1"

    def test_bit_exact_roundtrip_random(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            k = int(rng.integers(2, 20))
            n = int(rng.integers(1, 5))
            times = np.concatenate([[0.0], np.sort(rng.uniform(0.01, 10, k - 1))])
            states = rng.normal(scale=10.0 ** rng.integers(-8, 9), size=(k, n))
            traj = Trajectory(times, states)
            back = trajectory_from_csv(trajectory_to_csv(traj))
            assert (back.times == traj.times).all()
            assert (back.states == traj.states).all()

    def test_bit_exact_on_simulated(self):
        net = two_neuron_chain()
        traj = simulate(net, [0.2, 0.3], SolverConfig(Method.RK4, 1e-2, 1.0, 3))
        back = trajectory_from_csv(trajectory_to_csv(traj))
        assert (back.times == traj.times).all()
        assert (back.states == traj.states).all()

    def test_awkward_values_roundtrip(self):
        vals = np.array([[1 / 3, 1e-300, -1e300, 5e-324, 0.1 + 0.2]])
        traj = Trajectory(np.array([0.0]), vals)
        back = trajectory_from_csv(trajectory_to_csv(traj))
        assert (back.states == vals).all()

    def test_bad_header(self):
        with pytest.raises(FormatError, match="header"):
            trajectory_from_csv("time,v0\n0,1\n")

    def test_ragged_row(self):
        with pytest.raises(FormatError, match="line 3"):
            trajectory_from_csv("t,v0\n0,1\n0.1,1,2\n")

    def test_non_numeric_cell(self):
        with pytest.raises(FormatError, match="line 2"):
            trajectory_from_csv("t,v0\n0,abc\n")

    def test_error_after_blank_line_names_its_file_line(self):
        # blank lines are skipped but still counted
        with pytest.raises(FormatError, match="line 3:"):
            trajectory_from_csv("t,v0\n\n0,abc\n")
        with pytest.raises(FormatError, match="line 5: expected 2 columns, got 3"):
            trajectory_from_csv("t,v0\n0,1\n\n\n0.1,1,2\n")

    def test_empty_file(self):
        with pytest.raises(FormatError, match="empty"):
            trajectory_from_csv("")


class TestWriteText:
    """Outputs are written with ``open(path, "w")``: an existing file is
    truncated and rewritten, so it stays the same file.  A regular file that
    already holds the exact bytes is not truncated: it keeps them, with a
    fresh mtime."""

    TRAJ = Trajectory(np.array([0.0, 0.5]), np.array([[1.0, -2.0], [0.25, 3.0]]))
    BIG = "x" * ((1 << 20) + 4096)  # more than one 1 MB compare chunk

    def test_shorter_text_leaves_only_new_bytes(self, tmp_path):
        path = tmp_path / "out.csv"
        path.write_text("9" * 5000)
        write_trajectory(self.TRAJ, path)
        assert path.read_bytes() == trajectory_to_csv(self.TRAJ).encode()

    def test_existing_file_keeps_inode_and_mode(self, tmp_path):
        path = tmp_path / "net.json"
        path.write_text("old contents\n")
        os.chmod(path, 0o604)
        before = os.stat(path)
        write_network(two_neuron_chain(), path)
        after = os.stat(path)
        assert (after.st_ino, after.st_mode) == (before.st_ino, before.st_mode)
        assert path.read_text() == serialize_network(two_neuron_chain())

    def test_symlink_target_rewritten(self, tmp_path):
        target = tmp_path / "target.csv"
        target.write_text("x" * 100)
        link = tmp_path / "link.csv"
        link.symlink_to(target)
        write_trajectory(self.TRAJ, link)
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_text() == trajectory_to_csv(self.TRAJ)

    def test_new_file_mode_as_open_w(self, tmp_path):
        old = os.umask(0o027)
        try:
            with open(tmp_path / "reference", "w"):
                pass
            write_trajectory(self.TRAJ, tmp_path / "new.csv")
        finally:
            os.umask(old)
        assert (os.stat(tmp_path / "new.csv").st_mode
                == os.stat(tmp_path / "reference").st_mode)

    def test_unwritable_path(self, tmp_path):
        with pytest.raises(FormatError, match="cannot write network file"):
            write_network(two_neuron_chain(), tmp_path)
        with pytest.raises(FormatError, match="cannot write trajectory file"):
            write_trajectory(self.TRAJ, tmp_path / "missing" / "out.csv")

    def test_identical_rewrite_keeps_file_and_bumps_mtime(self, tmp_path, opens):
        path = tmp_path / "net.json"
        write_network(two_neuron_chain(), path)
        os.chmod(path, 0o604)
        os.utime(path, (0, 0))
        before = os.stat(path)
        opens[0].clear()
        write_network(two_neuron_chain(), path)
        after = os.stat(path)
        assert path.read_text() == serialize_network(two_neuron_chain())
        assert (after.st_ino, after.st_mode, after.st_nlink) == (
            before.st_ino, before.st_mode, before.st_nlink)
        assert after.st_mtime > 0
        assert "w" not in opens[0]

    @pytest.mark.parametrize("at", [0, 1 << 20, -1])
    def test_same_length_other_bytes_rewritten(self, tmp_path, opens, at):
        path = tmp_path / "big.txt"
        old = bytearray(self.BIG.encode())
        old[at] = ord("y")
        path.write_bytes(old)
        _write_text(path, self.BIG, "report")
        assert path.read_text() == self.BIG
        assert "w" in opens[0]

    @pytest.mark.parametrize("size", [0, 100, 1 << 20, (1 << 20) + 4096])
    def test_old_file_extending_new_bytes_rewritten(self, tmp_path, size):
        # every compare chunk matches when the new length is a whole number
        # of chunks; only the length check sees the old tail
        path = tmp_path / "big.txt"
        path.write_text("x" * size + "tail")
        _write_text(path, "x" * size, "report")
        assert path.read_text() == "x" * size

    def test_refused_read_write_open_falls_back_to_w(self, tmp_path, opens):
        path = tmp_path / "out.csv"
        write_trajectory(self.TRAJ, path)
        modes, refused = opens
        modes.clear()
        refused.add("r+b")
        write_trajectory(self.TRAJ, path)
        assert modes == ["r+b", "w"]
        assert path.read_text() == trajectory_to_csv(self.TRAJ)

    @pytest.mark.parametrize("same", [True, False])
    def test_refused_w_open_is_format_error(self, tmp_path, opens, same):
        path = tmp_path / "out.csv"
        path.write_text(trajectory_to_csv(self.TRAJ) if same else "old\n")
        opens[1].update({"r+b", "w"})
        with pytest.raises(FormatError, match="cannot write trajectory file"):
            write_trajectory(self.TRAJ, path)

    def test_new_file_and_devnull_take_w_path(self, tmp_path, opens):
        write_trajectory(self.TRAJ, tmp_path / "new.csv")
        write_trajectory(self.TRAJ, os.devnull)
        assert opens[0] == ["w", "w"]
        assert (tmp_path / "new.csv").read_text() == trajectory_to_csv(self.TRAJ)
