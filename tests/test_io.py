"""Network document and trajectory CSV formats."""

import json
import os
import re
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ltcsim import (
    FormatError,
    LtcNetwork,
    Method,
    SolverConfig,
    Trajectory,
    assemble_augmented_system,
    fit_feedforward,
    parse_network,
    random_network,
    realize_as_ltc,
    serialize_network,
    simulate,
    trajectory_from_csv,
    trajectory_to_csv,
    write_network,
    write_trajectory,
)
import ltcsim.io
from ltcsim.cli import cli_dispatch
from ltcsim.io import _ITEMS, _network_pieces, _write_text
from helpers import networks, realized_network, rotation_field, two_neuron_chain

def reference_document(net):
    """The item layout as the JSON encoder writes it from the item views."""
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


def columnar_document(net, block=False):
    """The columnar layout from the item views: each column is the JSON
    encoder's compact text of its list, on a line of its own.  With
    ``block``, the synapses are the block layout: each source's w, gamma and
    mu (from its first synapse), then one e_rev row per source, each row on
    a line of its own and the last closing the list."""
    dump = lambda values: json.dumps(values, separators=(",", ":"))  # noqa: E731
    groups = []
    for name, items, fields in (
            ("neurons", net.neurons, ("cm", "g_leak", "v_leak")),
            ("chemical_synapses", net.chem, ("src", "dst", "w", "gamma", "mu", "e_rev")),
            ("gap_junctions", net.gaps, ("a", "b", "w_hat"))):
        cols = [f'    "{f}": ' + dump([getattr(x, f) for x in items]) for f in fields]
        if block and name == "chemical_synapses":
            rows = [items[k:k + net.size] for k in range(0, len(items), net.size)]
            cols = [f'    "{f}": ' + dump([getattr(row[0], f) for row in rows])
                    for f in ("w", "gamma", "mu")]
            cols.append('    "e_rev": [\n' + ",\n".join(
                "      " + dump([s.e_rev for s in row]) for row in rows) + "]")
        groups.append(f'  "{name}": {{\n' + ",\n".join(cols) + "\n  }")
    return "{\n" + ",\n".join(groups + [f'  "n_output": {net.n_output}']) + "\n}\n"


def block_networks():
    """Random block networks, and networks that realize_as_ltc builds."""
    return networks(block=True) | st.builds(realized_network, st.integers(1, 9),
                                            st.integers(0, 5))


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
        # a random network is rarely a block (one source reaching every
        # neuron): then it takes the block layout
        text = serialize_network(net)
        assert text == columnar_document(net, block=net._block)
        again = parse_network(text)
        assert again == net
        assert again.neurons == net.neurons and again.chem == net.chem
        assert again.gaps == net.gaps

    @given(networks())
    def test_both_layouts_parse_to_equal_networks(self, net):
        items = parse_network(reference_document(net))
        columns = parse_network(columnar_document(net))
        assert items == columns == net
        assert items.neurons == columns.neurons == net.neurons
        assert items.chem == columns.chem == net.chem
        assert items.gaps == columns.gaps == net.gaps

    @given(networks(), st.data())
    def test_same_faults_same_message_in_both_layouts(self, net, data):
        # one or two faults, each a wrong type or a broken rule, anywhere in the
        # document: the item and the column layout name the same first one
        doc = json.loads(reference_document(net))
        groups = [name for name, group in doc.items() if name != "n_output" and group]
        if not groups:
            return
        for _ in range(data.draw(st.integers(1, 2))):
            item = data.draw(st.sampled_from(doc[data.draw(st.sampled_from(groups))]))
            field = data.draw(st.sampled_from(sorted(item)))
            wrong = ["x", None, True, [1.0]] + ([1.5, 2.0] if type(item[field]) is int else [])
            broken = {"cm": [0.0, -1.0], "g_leak": [-0.5], "w": [-0.5], "gamma": [0.0, -2.0],
                      "w_hat": [-0.5], "src": [-1, net.size], "dst": [-2, net.size + 3],
                      "a": [-1, item.get("b")], "b": [-3, item.get("a")]}.get(field, [])
            item[field] = data.draw(st.sampled_from(wrong + broken))
        columns = {name: {f: [x[f] for x in group] for f in group[0]} if group else group
                   for name, group in doc.items() if name != "n_output"}
        messages = []
        for text in (json.dumps(doc), json.dumps(dict(columns, n_output=net.n_output))):
            with pytest.raises(FormatError) as exc:
                parse_network(text)
            messages.append(str(exc.value))
        assert messages[0] == messages[1]

    @given(block_networks())
    def test_block_layout_written_and_read(self, net):
        assert net._block
        text = serialize_network(net)
        assert text == columnar_document(net, block=True)
        assert serialize_network(parse_network(text)) == text
        block, columns, items = (parse_network(doc) for doc in (
            text, columnar_document(net), reference_document(net)))
        assert block == columns == items == net
        assert block.neurons == columns.neurons == items.neurons == net.neurons
        assert block.chem == columns.chem == items.chem == net.chem
        assert block.gaps == columns.gaps == items.gaps == net.gaps == ()

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
        # a type error wins over a value error, as in the column layout
        doc["chemical_synapses"][4]["w"] = "heavy"
        with pytest.raises(FormatError, match=r"chemical_synapses\[4\]\.w: expected"):
            parse_network(json.dumps(doc))
        doc["chemical_synapses"][1]["w"] = None
        with pytest.raises(FormatError, match=r"chemical_synapses\[1\]\.w: expected"):
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


COLUMNS = {
    "neurons": {"cm": [1.0, 1.0], "g_leak": [1.0, 0.5], "v_leak": [0.0, -0.1]},
    "chemical_synapses": {"src": [0, 0], "dst": [0, 1], "w": [1.5, 1.5],
                          "gamma": [2.0, 2.0], "mu": [0.1, 0.1], "e_rev": [0.8, -0.8]},
    "gap_junctions": {"a": [], "b": [], "w_hat": []},
    "n_output": 1,
}


class TestColumnarDocument:
    """Errors of the columnar layout: every one is a parse error (exit 2),
    and a bad element is named as the item layout names it."""

    def columns(self, **changes):
        doc = json.loads(json.dumps(COLUMNS))
        for path, value in changes.items():
            group, _, field = path.partition("__")
            if value is KeyError:
                del doc[group][field]
            else:
                doc[group][field] = value
        return doc

    def parse_error(self, capsys, tmp_path, text, match):
        path = tmp_path / "net.json"
        path.write_text(text)
        assert cli_dispatch(["bounds", "--net", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("ERROR parse: ")
        assert re.search(match, err.splitlines()[0]), err

    def test_columns_parse(self):
        net = parse_network(json.dumps(self.columns()))
        assert net.size == 2 and net.n_chem == 2 and net.n_gaps == 0
        assert net.chem[1].e_rev == -0.8

    def test_groups_optional_and_layouts_mix(self):
        doc = self.columns()
        del doc["gap_junctions"]
        doc["neurons"] = [{"cm": 1.0, "g_leak": 1.0, "v_leak": 0.0},
                          {"cm": 1.0, "g_leak": 0.5, "v_leak": -0.1}]
        assert parse_network(json.dumps(doc)) == parse_network(json.dumps(COLUMNS))

    @pytest.mark.parametrize("change, match", [
        (dict(chemical_synapses__w=[1.5]),
         r"chemical_synapses columns must be 1-D and of equal length"),
        (dict(chemical_synapses__src=[0, True]),
         r"chemical_synapses\[1\]\.src: expected an integer, got True"),
        (dict(chemical_synapses__src=[0.0, 0]),
         r"chemical_synapses\[0\]\.src: expected an integer, got 0\.0"),
        (dict(chemical_synapses__w=[1.5, "x"]),
         r"chemical_synapses\[1\]\.w: expected a number, got 'x'"),
        (dict(neurons__cm=[1.0, False]), r"neurons\[1\]\.cm: expected a number, got False"),
        (dict(neurons__v_leak=[None, 0.0]), r"neurons\[0\]\.v_leak: expected a number"),
        (dict(chemical_synapses__mu=KeyError), r"chemical_synapses: missing key 'mu'"),
        (dict(chemical_synapses__weight=[1.0, 1.0]),
         r"chemical_synapses: unknown key 'weight'"),
        (dict(chemical_synapses__gamma=2.0), r"chemical_synapses\.gamma must be a list"),
        (dict(gap_junctions__a={}), r"gap_junctions\.a must be a list"),
        (dict(chemical_synapses__dst=[0, 2]),
         r"chemical_synapses\[1\]: index out of range for 2 neurons"),
        (dict(chemical_synapses__src=[0, -1]), r"chemical_synapses\[1\]: .*>= 0"),
        (dict(chemical_synapses__src=[0, 1]), r"chemical_synapses\[1\]: source 1 is an output"),
        (dict(chemical_synapses__w=[1.5, -1.0]), r"chemical_synapses\[1\]: w must be >= 0"),
    ])
    def test_column_errors(self, capsys, tmp_path, change, match):
        self.parse_error(capsys, tmp_path, json.dumps(self.columns(**change)), match)

    def test_group_not_columns_or_list(self, capsys, tmp_path):
        doc = self.columns()
        doc["chemical_synapses"] = 3
        self.parse_error(capsys, tmp_path, json.dumps(doc),
                         r"chemical_synapses must be a list or an object of columns")

    @pytest.mark.parametrize("literal, match", [
        ("NaN", r"chemical_synapses\[1\]: mu must be finite"),
        ("1e400", r"chemical_synapses\[1\]: mu must be finite"),
        ("1" + "0" * 400, r"chemical_synapses\[1\]\.mu: number out of float range"),
    ])
    def test_non_finite_values(self, capsys, tmp_path, literal, match):
        text = json.dumps(COLUMNS).replace('"mu": [0.1, 0.1]', f'"mu": [0.1, {literal}]')
        assert literal in text
        self.parse_error(capsys, tmp_path, text, match)

    def test_index_beyond_intp_out_of_range(self, capsys, tmp_path):
        text = json.dumps(self.columns(chemical_synapses__dst=[0, 10**30]))
        self.parse_error(capsys, tmp_path, text,
                         r"chemical_synapses\[1\]: index out of range")

    @pytest.mark.parametrize("text, key", [
        ('{"neurons": [{"cm": 1, "g_leak": 1, "v_leak": 0}], "neurons": [], '
         '"n_output": 0}', "neurons"),
        ('{"neurons": {"cm": [1], "g_leak": [1], "v_leak": [0], "cm": []}, '
         '"n_output": 0}', "cm"),
        ('{"neurons": [{"cm": 1, "g_leak": 1, "v_leak": 0, "cm": 2}], "n_output": 1}', "cm"),
    ])
    def test_duplicate_key(self, capsys, tmp_path, text, key):
        with pytest.raises(FormatError, match=f"^duplicate key '{key}'$"):
            parse_network(text)
        self.parse_error(capsys, tmp_path, text, f"duplicate key '{key}'")

    def test_underscore_in_csv_cell(self, capsys, tmp_path):
        net, traj = tmp_path / "net.json", tmp_path / "t.csv"
        net.write_text(json.dumps(COLUMNS))
        traj.write_text("t,v0,v1\n0,0.5,0\n0.1,1_0,0\n")
        assert cli_dispatch(["verify", "--net", str(net), "--traj", str(traj)]) == 2
        assert capsys.readouterr().err.startswith("ERROR parse: line 3: ")


BLOCK = {
    "neurons": {"cm": [1.0, 2.0, 1.0], "g_leak": [1.0, 0.5, 0.1], "v_leak": [0.0, -0.1, 0.2]},
    "chemical_synapses": {"w": [1.5, 0.5], "gamma": [2.0, 1.0], "mu": [0.1, -0.2],
                          "e_rev": [[0.8, -0.8, 0.3], [0.2, 0.4, -0.6]]},
    "gap_junctions": {"a": [], "b": [], "w_hat": []},
    "n_output": 1,
}


class TestBlockDocument:
    """The block layout of ``chemical_synapses``: synapse r * size + j runs
    from source r to neuron j.  Every error is a parse error (exit 2), and a
    synapse is named by that flat index."""

    parse_error = TestColumnarDocument.parse_error

    def block(self, n_output=1, **changes):
        doc = json.loads(json.dumps(BLOCK))
        doc["chemical_synapses"].update(changes)
        doc["n_output"] = n_output
        return json.dumps(doc)

    def test_expands_to_columns(self):
        net = parse_network(self.block())
        cols = dict(BLOCK, chemical_synapses={
            "src": [0, 0, 0, 1, 1, 1], "dst": [0, 1, 2] * 2, "w": [1.5] * 3 + [0.5] * 3,
            "gamma": [2.0] * 3 + [1.0] * 3, "mu": [0.1] * 3 + [-0.2] * 3,
            "e_rev": [0.8, -0.8, 0.3, 0.2, 0.4, -0.6]})
        assert net == parse_network(json.dumps(cols)) and net._block
        assert serialize_network(net) == columnar_document(net, block=True)

    def test_no_sources_and_junctions(self):
        net = parse_network(self.block(w=[], gamma=[], mu=[], e_rev=[]))
        assert net.n_chem == 0 and not net._block
        doc = json.loads(self.block())
        doc["gap_junctions"] = {"a": [0], "b": [1], "w_hat": [0.5]}
        doc["n_output"] = 0
        net = parse_network(json.dumps(doc))
        assert net.n_chem == 6 and net.n_gaps == 1 and not net._block
        assert '"src": [0,0,0,1,1,1]' in serialize_network(net)

    def test_block_keys_elsewhere_unknown(self, capsys, tmp_path):
        doc = json.loads(self.block())
        doc["gap_junctions"] = {"w": [], "gamma": [], "mu": [], "e_rev": []}
        self.parse_error(capsys, tmp_path, json.dumps(doc), r"gap_junctions: missing key 'a'")

    @pytest.mark.parametrize("change, match", [
        (dict(e_rev=[[0.8, -0.8, 0.3], [0.2, 0.4]]),
         r"chemical_synapses\.e_rev\[1\] must be a list of 3 values, one per neuron$"),
        (dict(e_rev=[[0.8, -0.8], [0.2, 0.4]]), r"chemical_synapses\.e_rev\[0\] must be a list"),
        (dict(e_rev=[[0.8, -0.8, 0.3, 0.0], [0.2, 0.4, -0.6, 0.0]]),
         r"chemical_synapses\.e_rev\[0\] must be a list of 3 values"),
        (dict(e_rev=[[0.8, -0.8, 0.3], 0.5]),
         r"chemical_synapses\.e_rev\[1\] must be a list of 3 values"),
        (dict(e_rev=3.0), r"chemical_synapses: w, gamma, mu and e_rev must be lists of "
                          r"one entry per source$"),
        (dict(e_rev={}), r"w, gamma, mu and e_rev must be lists of one entry per source"),
        (dict(w=[1.5]), r"w, gamma, mu and e_rev must be lists of one entry per source"),
        (dict(mu=[0.1, -0.2, 0.0]), r"must be lists of one entry per source"),
        (dict(e_rev=[[0.8, -0.8, 0.3]] * 3), r"must be lists of one entry per source"),
        (dict(e_rev=[[0.8, -0.8, 0.3], [0.2, True, -0.6]]),
         r"chemical_synapses\[4\]\.e_rev: expected a number, got True"),
        (dict(e_rev=[[0.8, "x", 0.3], [0.2, 0.4, -0.6]]),
         r"chemical_synapses\[1\]\.e_rev: expected a number, got 'x'"),
        (dict(e_rev=[[0.8, -0.8, 0.3], [0.2, 0.4, None]]),
         r"chemical_synapses\[5\]\.e_rev: expected a number, got None"),
        (dict(w=[1.5, False]), r"chemical_synapses\[3\]\.w: expected a number, got False"),
        (dict(gamma="2.0"), r"chemical_synapses\.gamma must be a list, got str"),
        (dict(w=[1.5, -1.0]), r"chemical_synapses\[3\]: w must be >= 0"),
        (dict(gamma=[0.0, 1.0]), r"chemical_synapses\[0\]: gamma must be > 0"),
        (dict(src=[0, 0, 0, 1, 1, 1]), r"chemical_synapses: missing key 'dst'"),
    ])
    def test_block_errors(self, capsys, tmp_path, change, match):
        self.parse_error(capsys, tmp_path, self.block(**change), match)

    def test_output_source(self, capsys, tmp_path):
        self.parse_error(capsys, tmp_path, self.block(n_output=2),
                         r"chemical_synapses\[3\]: source 1 is an output neuron")

    @pytest.mark.parametrize("rows", [[[0.8, -0.8], [0.2, 0.4]],
                                      [[0.8, -0.8, 0.3], [0.2, 0.4, -0.6]]])
    def test_ragged_neurons(self, capsys, tmp_path, rows):
        # the neurons' error comes first, whatever length the rows have
        doc = json.loads(self.block(e_rev=rows))
        doc["neurons"]["g_leak"] = [1.0, 0.5]
        self.parse_error(capsys, tmp_path, json.dumps(doc),
                         r"neurons columns must be 1-D and of equal length$")

    def test_sources_without_neurons(self, capsys, tmp_path):
        text = json.dumps({"neurons": {"cm": [], "g_leak": [], "v_leak": []},
                           "chemical_synapses": {"w": [1.0], "gamma": [1.0], "mu": [0.0],
                                                 "e_rev": [[]]}, "n_output": 0})
        self.parse_error(capsys, tmp_path, text,
                         r"chemical_synapses\[0\]: index out of range for 0 neurons")

    @pytest.mark.parametrize("at, literal, match", [
        ("e_rev", "NaN", r"chemical_synapses\[4\]: e_rev must be finite"),
        ("e_rev", "1e400", r"chemical_synapses\[4\]: e_rev must be finite"),
        ("e_rev", "1" + "0" * 400, r"chemical_synapses\[4\]\.e_rev: number out of float range"),
        ("mu", "NaN", r"chemical_synapses\[3\]: mu must be finite"),
        ("mu", "-1e400", r"chemical_synapses\[3\]: mu must be finite"),
        ("mu", "1" + "0" * 400, r"chemical_synapses\[3\]\.mu: number out of float range"),
    ])
    def test_non_finite_values(self, capsys, tmp_path, at, literal, match):
        old = {"e_rev": "[0.2, 0.4, -0.6]", "mu": "[0.1, -0.2]"}[at]
        new = old.replace("0.4" if at == "e_rev" else "-0.2", literal)
        text = self.block().replace(old, new)
        assert literal in text
        self.parse_error(capsys, tmp_path, text, match)


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

    def test_every_value_at_17_digits(self):
        edges = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1e-310,
                 np.finfo(float).max, 1 / 3, 1e16, 0.1 + 0.2, -2.5]
        rows = np.array([edges, edges[::-1]])
        header = [f"c{i}" for i in range(len(edges))]
        lines = [",".join(format(v, ".17g") for v in row) for row in rows.tolist()]
        assert ltcsim.io._csv_text(header, rows) == "\n".join([",".join(header), *lines]) + "\n"

    def test_bad_header(self):
        with pytest.raises(FormatError, match="header"):
            trajectory_from_csv("time,v0\n0,1\n")

    def test_ragged_row(self):
        with pytest.raises(FormatError, match="line 3"):
            trajectory_from_csv("t,v0\n0,1\n0.1,1,2\n")

    def test_non_numeric_cell(self):
        with pytest.raises(FormatError, match="line 2"):
            trajectory_from_csv("t,v0\n0,abc\n")

    @pytest.mark.parametrize("cell", ["1_0", "1_0e-3", "_1", "0x_1"])
    def test_underscore_in_number_refused(self, cell):
        # float() reads "1_0" as 10.0
        with pytest.raises(FormatError, match=f"line 3: .*{cell!r}"):
            trajectory_from_csv(f"t,v0\n0,1\n0.1,{cell}\n")

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
    truncated and rewritten, so it stays the same file."""

    TRAJ = Trajectory(np.array([0.0, 0.5]), np.array([[1.0, -2.0], [0.25, 3.0]]))
    BIG = "x" * ((1 << 20) + 4096)

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
        assert opens[0] == ["w"]

    @pytest.mark.parametrize("at", [0, 1 << 20, -1])
    def test_same_length_other_bytes_rewritten(self, tmp_path, opens, at):
        path = tmp_path / "big.txt"
        old = bytearray(self.BIG.encode())
        old[at] = ord("y")
        path.write_bytes(old)
        _write_text(path, [self.BIG], "report")
        assert path.read_text() == self.BIG
        assert "w" in opens[0]

    @pytest.mark.parametrize("size", [0, 100, 1 << 20, (1 << 20) + 4096])
    def test_old_file_extending_new_bytes_rewritten(self, tmp_path, size):
        # the new bytes are a prefix of the old file: its tail is truncated
        path = tmp_path / "big.txt"
        path.write_text("x" * size + "tail")
        _write_text(path, ["x" * size], "report")
        assert path.read_text() == "x" * size

    @pytest.mark.parametrize("same", [True, False])
    def test_refused_w_open_is_format_error(self, tmp_path, opens, same):
        path = tmp_path / "out.csv"
        path.write_text(trajectory_to_csv(self.TRAJ) if same else "old\n")
        opens[1].add("w")
        with pytest.raises(FormatError, match="cannot write trajectory file"):
            write_trajectory(self.TRAJ, path)

    def test_new_file_and_devnull_take_w_path(self, tmp_path, opens):
        write_trajectory(self.TRAJ, tmp_path / "new.csv")
        write_trajectory(self.TRAJ, os.devnull)
        assert opens[0] == ["w", "w"]
        assert (tmp_path / "new.csv").read_text() == trajectory_to_csv(self.TRAJ)


class TestStreamedNetwork:
    """``write_network`` formats the document in pieces of at most ``_ITEMS``
    list values and writes them one by one."""

    NET = realized_network(n_features=70)  # a block: 70 sources x 72 neurons
    # the same synapses with one w changed: no block, so 5,040 values per
    # column, two pieces each
    COLUMNS = LtcNetwork(NET.neurons, NET.chem[:-1] + (replace(NET.chem[-1], w=0.5),),
                         NET.gaps, NET.n_output)

    @staticmethod
    def is_values(piece):
        """A piece of list values (the others open or close a list)."""
        return re.match(r",?[-\d]", piece) is not None

    def sizes(self, pieces):
        return [p.lstrip(",").count(",") + 1 for p in pieces if self.is_values(p)]

    def test_pieces_join_to_serialized_document(self):
        pieces = list(_network_pieces(self.NET))
        assert "".join(pieces) == serialize_network(self.NET)
        assert "".join(pieces) == columnar_document(self.NET, block=True)
        sizes = self.sizes(pieces)
        assert max(sizes) <= _ITEMS
        assert sizes == [72] * 3 + [70] * 3 + [72] * 70
        pieces = list(_network_pieces(self.COLUMNS))
        assert not self.COLUMNS._block
        assert "".join(pieces) == serialize_network(self.COLUMNS) == columnar_document(
            self.COLUMNS)
        n = self.COLUMNS.n_chem
        assert _ITEMS < n <= 2 * _ITEMS
        sizes = self.sizes(pieces)
        assert max(sizes) == _ITEMS
        assert sizes == [72] * 3 + [_ITEMS, n - _ITEMS] * 6

    def test_rows_longer_than_a_piece_split(self, monkeypatch):
        monkeypatch.setattr(ltcsim.io, "_ITEMS", 50)
        pieces = list(_network_pieces(self.NET))
        assert "".join(pieces) == columnar_document(self.NET, block=True)
        assert self.sizes(pieces) == [50, 22] * 3 + [50, 20] * 3 + [50, 22] * 70

    @pytest.mark.parametrize("where", ["first", "last", "shorter", "longer"])
    def test_differing_file_rewritten(self, tmp_path, opens, where):
        path = tmp_path / "net.json"
        text = serialize_network(self.NET).encode()
        old = bytearray(text)
        if where == "shorter":
            del old[-1]
        elif where == "longer":
            old += b"\n"
        else:
            old[{"first": 0, "last": -1}[where]] = ord("#")
        path.write_bytes(old)
        inode = os.stat(path).st_ino
        write_network(self.NET, path)
        assert path.read_bytes() == text
        assert opens[0] == ["w"] and os.stat(path).st_ino == inode

    def test_devnull_and_fifo_take_w_path(self, tmp_path, opens):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
        reader.start()
        write_network(self.NET, fifo)
        reader.join(30)
        assert not reader.is_alive()
        write_network(self.NET, os.devnull)
        assert opens[0] == ["w", "w"]
        assert got == [serialize_network(self.NET).encode()]

    def test_peak_memory_on_realized_n256(self, tmp_path):
        # the block document is 1.3 MB: as one str, with its piece list and
        # its bytes, it takes 3.6 MiB, under the 4 MiB bound; so the peak is
        # also held below the document's own size, for a new file and a rewrite
        fit = fit_feedforward(rotation_field(), 256, n_samples=64)
        net = realize_as_ltc(assemble_augmented_system(fit, 10.0, 1e-3))
        path = tmp_path / "net.json"
        for case in ("new file", "rewrite"):
            tracemalloc.start()
            try:
                write_network(net, path)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 4 << 20, case
            assert peak < os.path.getsize(path), case
        assert path.read_text() == serialize_network(net)
