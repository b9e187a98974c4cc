import argparse
import gc
import importlib.util
import io
import json
import os
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

import shellab
from shellab import cli
from shellab.cli import build_parser, run
from shellab import poset_to_json
from shellab.corpus import load_named
from shellab.poset import load_poset
from conftest import (
    CYCLIC_ORDER_POSET,
    CYCLIC_ORDER_RFAS,
    _chain_order_dag_literal,
    _named_cycle,
    cyclic_order_case,
    diamond_tower,
    shuffled_boolean_lattice,
    string_root_case,
    tie_case,
)
from test_readme import _command_lines


def test_check_cc_ok(capsys):
    assert run(["check", "--kind", "cc", "corpus:fig2-P", "corpus:fig2-P/bold"]) == 0
    assert "cc: ok" in capsys.readouterr().out


def test_check_el_fig1_left(capsys):
    assert run(["check", "--kind", "el", "corpus:fig1", "corpus:fig1/left"]) == 0


def test_check_failure_exits_one(capsys):
    assert run(["check", "--kind", "el", "corpus:fig1", "corpus:fig1/middle"]) == 1
    out = capsys.readouterr().out
    assert "el: FAIL" in out
    assert "witness" in out


def test_rao_exits_one_with_witnesses(capsys):
    assert run(["rao", "corpus:fig2-P"]) == 1
    out = capsys.readouterr().out
    assert "rao: FAIL" in out
    assert "c4" in out  # an obstruction witness element


def test_chains_output(capsys):
    assert run(["chains", "corpus:fig1"]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("0hat")]
    assert len(lines) == 4
    assert lines[0] == "0hat a c 1hat"


def test_chains_rooted(capsys):
    assert run(["chains", "corpus:fig1", "--rooted", "0hat", "c"]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("0hat")]
    assert len(lines) == 2


def test_plain_chains_holds_no_copy_of_the_chains(tmp_path):
    # B_7, 5,040 chains: the report kept a text line, a list copy and a
    # JSON-decoded copy of each chain, and its traced peak was 5.9 times
    # that of enumerating the chains (Python 3.11.7); it keeps the tuples
    poset, _ = shuffled_boolean_lattice(7, 0)
    path = str(tmp_path / "poset.json")
    with open(path, "w") as fh:
        json.dump(poset_to_json(poset), fh)
    peaks = []
    with open(os.devnull, "w") as null, redirect_stdout(null):
        for call in (lambda: shellab.maximal_chains(load_poset(path)),
                     lambda: run(["chains", path])):
            gc.collect()  # which also empties the free lists, so every new tuple is traced
            tracemalloc.start()
            try:
                call()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0]


@pytest.mark.parametrize("argv, witness", [
    (["check", "--kind", "cl", "corpus:fig3-Q", "corpus:fig3-Q/left"],
     "{'root': ['0hat'], 'x': '0hat', 'y': 'e', 'increasing_chains': []}"),
    (["rao", "corpus:fig5-Q"],
     "[['ap', 'app', 'y'], ['a', 'app', 'y'], ['app', 'ap', 'y'], ['app', 'a', 'y']]"),
    (["shelling-verify", "poset.json", "--order-file", "bad.order"], "{'violation_at': [1, 0]}"),
    (["rfas-check", "corpus:fig5-P", "corpus:fig5-P/C"], None),
], ids=["check", "rao", "shelling-verify", "rfas-check"])
def test_a_failed_witness_prints_in_its_json_shape(tmp_path, monkeypatch, capsys, argv, witness):
    # the engines hand over tuples; plain output prints the JSON-decoded
    # witness, so its repr has lists where the engine had tuples
    monkeypatch.chdir(tmp_path)
    (tmp_path / "poset.json").write_text(json.dumps({
        "elements": ["0", "a", "b", "c", "d", "1"],
        "covers": [["0", "a"], ["0", "b"], ["a", "c"], ["a", "d"], ["b", "d"],
                   ["c", "1"], ["d", "1"]]}))
    (tmp_path / "bad.order").write_text("0 a c 1\n0 b d 1\n0 a d 1\n")
    assert run(argv) == 1
    line = capsys.readouterr().out.splitlines()[-1]
    assert run(argv + ["--json"]) == 1
    (decoded,) = json.loads(capsys.readouterr().out)["witnesses"].values()
    assert line == f"  witness: {decoded}"
    if witness is not None:
        assert line == f"  witness: {witness}"


def test_json_chain_witnesses_are_the_engine_chains(tmp_path, capsys):
    p = load_named("fig2-P").poset
    omega_path = str(tmp_path / "omega.json")
    assert run(["rfas-from-tcl", "corpus:fig2-P", "corpus:fig2-P/bold", "--out", omega_path]) == 0
    omega, P = shellab.rfas.load_first_atom_set(p, omega_path), "corpus:fig2-P"
    for argv, key, chains in [
        (["chains", P], "chains", shellab.maximal_chains(p)),
        (["rfas-shell", P, omega_path], "order", shellab.shelling_from_rfas(p, omega)),
        (["lc-check", P, omega_path], "order", shellab.check_lc(p, omega)),
    ]:
        capsys.readouterr()
        assert run(argv + ["--json"]) == 0
        assert json.loads(capsys.readouterr().out)["witnesses"] == {key: [list(c) for c in chains]}


def test_json_report_is_byte_stable(capsys):
    assert run(["check", "--kind", "tcl", "corpus:fig3-Q", "corpus:fig3-Q/left",
                "--json"]) == 0
    first = capsys.readouterr().out
    assert run(["check", "--kind", "tcl", "corpus:fig3-Q", "corpus:fig3-Q/left",
                "--json"]) == 0
    second = capsys.readouterr().out
    assert first == second
    payload = json.loads(first)
    assert list(payload) == ["command", "inputs", "verdicts", "witnesses", "timings"]


def test_relabel_pipeline(tmp_path, capsys):
    out = tmp_path / "relabeled.json"
    code = run(["relabel", "corpus:fig2-P", "--order-from-labeling",
                "corpus:fig2-P/bold", "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["mode"] == "chain-edge"
    code = run(["check", "--kind", "cc", "corpus:fig2-P", str(out)])
    assert code == 0


def test_rfas_check_and_lc(capsys):
    assert run(["rfas-check", "corpus:fig8", "corpus:fig8/omega"]) == 0
    assert run(["rfas-check", "corpus:fig5-P", "corpus:fig5-P/C"]) == 1
    assert run(["lc-check", "corpus:fig8", "corpus:fig8/omega"]) == 1
    assert "none" in capsys.readouterr().out


_CYCLE = ("chain order has a cycle through 8 of 9 chains; one cycle: "
          "('0hat', 'a0', 'b1', 'c0', '1hat') < ('0hat', 'a0', 'b1', 'c1', '1hat') < "
          "('0hat', 'a0', 'b2', 'c1', '1hat') < ('0hat', 'a0', 'b2', 'c0', '1hat') < "
          "('0hat', 'a1', 'b2', 'c0', '1hat') < ('0hat', 'a1', 'b1', 'c0', '1hat') < "
          "('0hat', 'a0', 'b1', 'c0', '1hat')")


def test_a_cyclic_chain_order_fails_every_rfas_command(tmp_path, capsys):
    # rfas-check used to accept this table, which rfas-shell and lc-check refuse
    (tmp_path / "poset.json").write_text(json.dumps(CYCLIC_ORDER_POSET))
    (tmp_path / "rfas.json").write_text(json.dumps(CYCLIC_ORDER_RFAS))
    files = [str(tmp_path / "poset.json"), str(tmp_path / "rfas.json")]
    assert run(["rfas-check", *files, "--json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["verdicts"] == {"rfas": False}
    assert report["witnesses"]["rfas"] == [{"condition": "order", "direction": None,
                                            "root": ["0hat"], "x": "0hat", "y": "1hat",
                                            "atom": None, "detail": _CYCLE}]
    for command in ("rfas-shell", "lc-check"):
        assert run([command, *files]) == 1
        assert capsys.readouterr() == ("", f"error: {_CYCLE}\n")
    # the named cycle is closed, and each step is an edge of the literal chain order
    named = _named_cycle(_CYCLE)
    assert named[0] == named[-1] and len(set(named)) == len(named) - 1
    dag = _chain_order_dag_literal(*cyclic_order_case())
    for m, m2 in zip(named, named[1:]):
        assert (dag.index(m), dag.index(m2)) in dag.edges


def test_rfas_check_refuses_entries_that_disagree(tmp_path, capsys):
    # a root-less and a rooted entry for the one rooted interval (0hat, 0hat, e)
    path = tmp_path / "rfas.json"
    path.write_text(json.dumps({"first_atoms": [
        {"x": "0hat", "y": "e", "atom": "a"},
        {"root": ["0hat"], "x": "0hat", "y": "e", "atom": "b"}]}))
    assert run(["rfas-check", "corpus:fig8", str(path)]) == 1
    assert capsys.readouterr().err == (
        "error: first atom entries give (('0hat',), '0hat', 'e') two values, 'a' and 'b'\n")


def test_rfas_from_tcl_and_shell(tmp_path, capsys):
    out = tmp_path / "omega.json"
    assert run(["rfas-from-tcl", "corpus:fig2-P", "corpus:fig2-P/bold",
                "--out", str(out)]) == 0
    assert run(["rfas-shell", "corpus:fig2-P", str(out)]) == 0
    assert run(["lc-check", "corpus:fig2-P", str(out)]) == 0


def test_rfas_from_tcl_answers_where_check_accepts_tcl(tmp_path):
    # the chain-order rebuild refused this TCL-labeling (exit 1) although
    # `check --kind tcl` accepted it
    poset, lab = tie_case()
    (tmp_path / "poset.json").write_text(json.dumps(poset_to_json(poset)))
    (tmp_path / "lab.json").write_text(json.dumps(shellab.labeling_to_json(lab)))
    for argv in (["check", "--kind", "tcl", "poset.json", "lab.json"],
                 ["rfas-from-tcl", "poset.json", "lab.json", "--out", "omega.json"],
                 ["rfas-check", "poset.json", "omega.json"]):
        code, out, err = _as_process(argv, tmp_path)
        assert (code, err) == (0, b""), argv
        assert b": ok" in out


def test_shelling_verify_from_labeling(capsys):
    assert run(["shelling-verify", "corpus:fig3-Q", "--from-labeling",
                "corpus:fig3-Q/left"]) == 0


def test_shelling_verify_complex_file(tmp_path, capsys):
    path = tmp_path / "complex.json"
    path.write_text(json.dumps({"facets": [["a", "b"], ["c", "d"]]}))
    order = tmp_path / "order.txt"
    order.write_text("a b\nc d\n")
    assert run(["shelling-verify", str(path), "--order-file", str(order)]) == 1


@pytest.mark.parametrize("facets, order, violation", [
    ([[1, 2], [2, 3]], "1 2\n2 3\n", None),
    ([[1, 2], [2, 3], [3, 4]], "1 2\n3 4\n2 3\n", [1, 0]),
], ids=["shelling", "not-a-shelling"])
def test_shelling_verify_integer_vertices(tmp_path, capsys, facets, order, violation):
    # an order-file token names the vertex whose str() it is
    path = tmp_path / "complex.json"
    path.write_text(json.dumps({"facets": facets}))
    (tmp_path / "order.txt").write_text(order)
    code = run(["shelling-verify", str(path), "--order-file", str(tmp_path / "order.txt"),
                "--json"])
    report = json.loads(capsys.readouterr().out)
    assert code == (violation is not None)
    assert report["witnesses"] == ({} if violation is None
                                   else {"shelling": {"violation_at": violation}})


def test_order_file_cannot_name_vertices_sharing_a_string_form(tmp_path):
    # no complex file gives such vertices (they do not sort), but a complex
    # built in process can; the call raises before any line is read
    (tmp_path / "order.txt").write_text("1\n1\n")
    k = shellab.OrderComplex((1, "1"), (frozenset({1}), frozenset({"1"})))
    with pytest.raises(shellab.InvalidInputError, match="share a string form"):
        cli._read_facet_order(tmp_path / "order.txt", k)


def _tower_lex_order(tmp_path, k):
    """Write poset.json, the diamond tower with 2**k maximal chains, and
    return the tower and its lex order as the text of an order file."""
    poset, lab = diamond_tower(k)
    (tmp_path / "poset.json").write_text(json.dumps(poset_to_json(poset)))
    return poset, "".join(" ".join(c) + "\n" for c in shellab.lex_order_max_chains(lab, poset))


def test_order_file_not_text_past_the_facets_already_placed(tmp_path):
    # the file is read while the kernel places its facets: a bad byte past
    # the first 8 KiB read is met after the valid lines before it were placed
    data = _tower_lex_order(tmp_path, 8)[1].encode()
    assert len(data) > 8192
    (tmp_path / "lex.order").write_bytes(data[:-2] + b"\xff\n")
    code, out, err = _as_process(["shelling-verify", "poset.json", "--order-file", "lex.order"],
                                 tmp_path)
    assert (code, out) == (1, b"")
    assert err.startswith(b"error: lex.order: not text") and b"Traceback" not in err


def test_order_file_is_read_one_line_at_a_time(tmp_path):
    # neither the lines nor their tokens are held: the traced peak of
    # reading T_9's lex order (512 facets) and checking it was 882-992 KiB
    # when the file was read whole, and is 111-115 KiB, on CPython 3.10-3.13
    poset, text = _tower_lex_order(tmp_path, 9)
    (tmp_path / "lex.order").write_text(text)
    k = shellab.order_complex(poset)
    tracemalloc.start()
    try:
        ok = shellab.is_shelling(k, cli._read_facet_order(tmp_path / "lex.order", k)).ok
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ok and peak < 256 * 1024


def test_poset_file_input(tmp_path, capsys):
    path = tmp_path / "poset.json"
    path.write_text(json.dumps(poset_to_json(load_named("fig1").poset)))
    assert run(["chains", str(path)]) == 0


def test_chains_rooted_x_not_below_y_is_an_error(capsys):
    assert run(["chains", "corpus:fig1", "--rooted", "c", "a"]) == 1
    assert capsys.readouterr().err.startswith("error: 'c' is not below 'a'")


def test_chains_rooted_unknown_element_is_an_error(capsys):
    assert run(["chains", "corpus:fig1", "--rooted", "zz", "a"]) == 1
    assert capsys.readouterr().err.startswith("error: 'zz' is not an element")


@pytest.mark.parametrize("data, message", [
    ({"elements": ["0hat", "1hat"]}, '"elements" and "covers"'),
    ({"elements": ["0hat", "1hat"], "covers": [["0hat", "zz"]]}, "unknown element"),
    ({"elements": ["0hat", "1hat"], "covers": [["0hat", "1hat"], ["0hat", "1hat"]]},
     "duplicate cover"),
], ids=["no-covers", "unknown-element", "duplicate-cover"])
def test_malformed_poset_file_is_an_error(tmp_path, capsys, data, message):
    path = tmp_path / "poset.json"
    path.write_text(json.dumps(data))
    assert run(["chains", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


# fig1's complete labelings "middle" (CC) and "left" (EL) plus an entry
# whose root is no chain, or which labels no cover
_MIDDLE_PLUS_NON_ROOT = json.dumps({"mode": "chain-edge", "labels": shellab.labeling_to_json(
    load_named("fig1").labeling("middle"))["labels"] + [
    {"root": ["0hat", "zz"], "from": "zz", "to": "c", "label": 1}]})
_LEFT_PLUS_NON_COVER = json.dumps({"labels": shellab.labeling_to_json(
    load_named("fig1").labeling("left"))["labels"] + [{"from": "0hat", "to": "c", "label": 1}]})



def _fig1_labeling_plus_repeat(name, shift):
    """A fig1 labeling file whose first entry is repeated, its label moved by `shift`."""
    data = shellab.labeling_to_json(load_named("fig1").labeling(name))
    data["labels"].append({**data["labels"][0], "label": data["labels"][0]["label"] + shift})
    return json.dumps(data)


_FIRST_ATOM_ENTRY = {"root": ["0hat"], "x": "0hat", "y": "1hat", "atom": "a"}


@pytest.mark.parametrize("argv, content, message", [
    (["check", "--kind", "el", "corpus:fig1", "{path}"], '{"mode": "edge"}', '"labels"'),
    (["rfas-check", "corpus:fig1", "{path}"], "not json", "not JSON"),
    (["chains", "{path}"], None, "No such file"),
    (["rfas-check", "corpus:fig1", "{path}"], "[1, 2]", "not a JSON object"),
    (["shelling-verify", "corpus:fig1", "--order-file", "{path}"], "0hat a 1hat\n",
     "permutation of the facets"),
    (["rfas-check", "corpus:fig1", "{path}"],
     '{"first_atoms": [{"root": ["0hat", "zz"], "x": "a", "y": "1hat", "atom": "c"}]}',
     "is not a root of 'a'"),
    (["rfas-check", "corpus:fig1", "{path}"],
     '{"first_atoms": [{"root": ["0hat"], "x": "a", "y": "1hat", "atom": "c"}]}',
     "is not a root of 'a'"),
    (["check", "--kind", "cc", "corpus:fig1", "{path}"], _MIDDLE_PLUS_NON_ROOT,
     "is not a root of 'zz'"),
    (["check", "--kind", "el", "corpus:fig1", "{path}"], _LEFT_PLUS_NON_COVER,
     "labels for non-covers {('0hat', 'c')}"),
    (["check", "--kind", "el", "corpus:fig1", "{path}"],
     '{"labels": [{"from": "0hat", "to": "a", "label": "x"}]}', "'x' is not an integer"),
    (["check", "--kind", "cc", "corpus:fig1", "{path}"],
     '{"mode": "chain-edge", "labels": [{"root": ["0hat"], "from": "0hat", "to": "a", '
     '"label": "x"}]}', "'x' is not an integer"),
    (["shelling-verify", "{path}", "--order-file", "{path}"], '{"facets": [[1, "a"], [2]]}',
     "unusable facet vertices"),
    (["relabel", "corpus:fig1", "--order-file", "{path}"], "",
     "permutation of the maximal chains"),
    (["rfas-check", "corpus:fig1", "{path}"],
     json.dumps({"first_atoms": [_FIRST_ATOM_ENTRY, {**_FIRST_ATOM_ENTRY, "atom": "b"}]}),
     "entries give (('0hat',), '0hat', '1hat') two values, 'a' and 'b'"),
    (["check", "--kind", "el", "corpus:fig1", "{path}"], _fig1_labeling_plus_repeat("left", 1),
     "labeling entries give ('0hat', 'a') two values"),
    (["check", "--kind", "cc", "corpus:fig1", "{path}"], _fig1_labeling_plus_repeat("middle", 1),
     "labeling entries give (('0hat',), '0hat', 'a') two values"),
    (["chains", "{path}"], b"\xff\xfe{}", "input.json: not JSON ('utf-8' codec can't decode"),
    (["shelling-verify", "corpus:fig1", "--order-file", "{path}"], b"\xff\xfe0hat a 1hat\n",
     "input.json: not text ('utf-8' codec can't decode"),
    (["relabel", "corpus:fig1", "--order-file", "{path}"], b"\xff\xfe0hat a 1hat\n",
     "input.json: not text ('utf-8' codec can't decode"),
    (["rfas-check", "corpus:fig1", "{path}"], "[" * 100000 + "]" * 100000,
     "input.json: not JSON (arrays or objects nested too deeply)"),
], ids=["labeling-without-labels", "first-atoms-not-json", "missing-file",
        "first-atoms-not-an-object", "order-not-a-permutation", "first-atom-root-not-a-chain",
        "first-atom-root-of-another-element", "chain-edge-root-not-a-chain",
        "edge-label-for-a-non-cover", "edge-label-not-an-integer", "chain-edge-label-not-an-integer",
        "facets-mixing-strings-and-numbers", "chain-order-not-a-permutation",
        "first-atom-contradictory-repeat", "edge-label-contradictory-repeat",
        "chain-edge-label-contradictory-repeat", "poset-not-utf-8", "facet-order-not-utf-8",
        "chain-order-not-utf-8", "first-atoms-nested-too-deeply"])
def test_unusable_input_file_is_an_error(tmp_path, capsys, argv, content, message):
    path = tmp_path / "input.json"
    if isinstance(content, bytes):
        path.write_bytes(content)
    elif content is not None:
        path.write_text(content)
    assert run([a.replace("{path}", str(path)) for a in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("argv, content, message", [
    (["check", "--kind", "cl"], string_root_case()[1], '"root" that is not a list'),
    (["rfas-check"], {"first_atoms": [{"root": "0", "x": "0", "y": "c", "atom": "a"}]},
     '"root" that is not a list'),
    (["rfas-check"], {"first_atoms": [{"x": "c", "y": "a", "atom": "a"}]},
     "'c' is not strictly below 'a'"),
    (["rfas-check"], {"first_atoms": [{"x": "0", "y": "zz", "atom": "a"}]},
     "error: '0' is not strictly below 'zz'"),
], ids=["chain-edge-string-root", "first-atom-string-root", "first-atom-not-below",
        "first-atom-unknown-y"])
def test_misread_entry_is_an_error(tmp_path, capsys, argv, content, message):
    # string roots were split into characters and read as valid roots, and
    # a root-less entry with x not below y failed on the roots of x
    (tmp_path / "poset.json").write_text(json.dumps(poset_to_json(string_root_case()[0])))
    (tmp_path / "input.json").write_text(json.dumps(content))
    assert run(argv + [str(tmp_path / "poset.json"), str(tmp_path / "input.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and "Traceback" not in err


@pytest.mark.parametrize("argv, content", [
    (["check", "--kind", "el", "corpus:fig1", "{path}"], _fig1_labeling_plus_repeat("left", 0)),
    (["check", "--kind", "cc", "corpus:fig1", "{path}"],
     _fig1_labeling_plus_repeat("middle", 0)),
    (["rfas-check", "corpus:fig1", "{path}"],
     json.dumps({"first_atoms": [_FIRST_ATOM_ENTRY, _FIRST_ATOM_ENTRY]})),
], ids=["edge-label", "chain-edge-label", "first-atom"])
def test_identical_repeated_entry_is_accepted(tmp_path, capsys, argv, content):
    path = tmp_path / "input.json"
    path.write_text(content)
    assert run([a.replace("{path}", str(path)) for a in argv]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("argv, content, field", [
    (["check", "--kind", "el", "corpus:fig1", "{path}"],
     '{"labels": [{"from": "0hat"}]}', '"to"'),
    (["rfas-check", "corpus:fig1", "{path}"], '{"first_atoms": [{"x": "0hat"}]}', '"y"'),
    (["shelling-verify", "{path}", "--order-file", "{path}"], '{"x": 1}', '"facets"'),
], ids=["labeling-entry-without-to", "first-atom-entry-without-y", "complex-without-facets"])
def test_missing_field_in_input_file_is_an_error(tmp_path, capsys, argv, content, field):
    path = tmp_path / "input.json"
    path.write_text(content)
    assert run([a.replace("{path}", str(path)) for a in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and field in err


def test_cli_import_loads_no_dataclasses_inspect_or_ast():
    # every CLI op pays for what `import shellab.cli` loads; dataclasses,
    # inspect and ast alone once cost about 13 ms per process, and
    # importlib.resources pulls in inspect and ast on Python 3.12+.  -S skips
    # site-packages, whose .pth hooks may preload any of these modules.
    heavy = ("dataclasses", "inspect", "ast", "importlib.resources", "random",
             "argparse", "gettext", "locale")
    probe = "import sys{}; print(' '.join(m for m in {!r} if m in sys.modules))"
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(shellab.__file__))}

    def loaded(extra):
        out = subprocess.run([sys.executable, "-S", "-c", probe.format(extra, heavy)],
                             env=env, capture_output=True, text=True, check=True).stdout
        return set(out.split())

    assert loaded(", shellab.cli") <= loaded("")


def test_check_run_loads_only_the_modules_it_uses(tmp_path):
    # argv read off the command table leaves argparse unloaded, and a check
    # of files (not corpus: references) needs no search, table or corpus
    example = load_named("fig2-P")
    (tmp_path / "poset.json").write_text(json.dumps(poset_to_json(example.poset)))
    lab = shellab.labeling_to_json(example.labeling("bold"))
    (tmp_path / "lab.json").write_text(json.dumps(lab))
    probe = ("import sys; from shellab.cli import run; "
             "code = run(['check', '--kind', 'cc', 'poset.json', 'lab.json', '--json']); "
             "print(code, *sorted(m for m in sys.modules if m.startswith('shellab') "
             "or m in ('argparse', 'gettext', 'locale')))")
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(shellab.__file__))}
    out = subprocess.run([sys.executable, "-S", "-c", probe], cwd=tmp_path, env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.splitlines()[-1].split() == [
        "0", "shellab", "shellab._record", "shellab.chains", "shellab.cli", "shellab.errors",
        "shellab.labeling", "shellab.poset"]


@pytest.mark.parametrize("argv", [
    ["check", "--kind", "cc", "corpus:fig2-P", "corpus:fig2-P/bold"], ["corpus", "--json"]])
def test_corpus_references_parse_no_first_atom_table(argv):
    # a corpus example parses its first-atom tables only when one is asked for
    probe = ("import sys; from shellab.cli import run; "
             f"code = run({argv!r}); "
             "print(code, *(m for m in ('shellab.rfas', 'shellab.relabel', 'shellab.shelling') "
             "if m in sys.modules))")
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(shellab.__file__))}
    out = subprocess.run([sys.executable, "-S", "-c", probe], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.splitlines()[-1] == "0"


def test_export_dot(tmp_path):
    out = tmp_path / "hasse.dot"
    assert run(["export-dot", "corpus:fig1", "--out", str(out)]) == 0
    assert '"0hat" -> "a"' in out.read_text()


def test_corpus_listing(capsys):
    assert run(["corpus"]) == 0
    out = capsys.readouterr().out
    assert "fig8" in out
    assert run(["corpus", "fig5-Q"]) == 0
    assert "first_atom_sets" in capsys.readouterr().out


def _indented(value):
    return json.dumps(value, indent=2) + "\n"


@pytest.mark.parametrize("argv, as_text", [
    (["relabel", "corpus:fig2-P", "--order-from-labeling", "corpus:fig2-P/bold"], _indented),
    (["rfas-from-tcl", "corpus:fig2-P", "corpus:fig2-P/bold"], _indented),
    (["export-dot", "corpus:fig1"], str),
    (["corpus"], lambda names: "".join(f"{name}\n" for name in names)),
    (["corpus", "fig5-Q"], _indented),
], ids=["relabel", "rfas-from-tcl", "export-dot", "corpus", "corpus-name"])
def test_json_report_carries_the_product(capsys, argv, as_text):
    # the text report prints the product, then its one verdict line; the
    # JSON report carries the same product under "output"
    assert run([*argv, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert list(payload) == ["command", "inputs", "verdicts", "witnesses", "timings", "output"]
    (verdict,) = payload["verdicts"]
    assert run(argv) == 0
    assert capsys.readouterr().out == as_text(payload["output"]) + f"{verdict}: ok\n"


def test_json_report_of_a_product_written_to_a_file_has_no_output(tmp_path, capsys):
    out = tmp_path / "omega.json"
    assert run(["rfas-from-tcl", "corpus:fig2-P", "corpus:fig2-P/bold", "--out", str(out),
                "--json"]) == 0
    assert "output" not in json.loads(capsys.readouterr().out)
    assert "first_atoms" in json.loads(out.read_text())


def _in_process(argv, capsys):
    try:
        code = run(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out.encode(), err.encode()


def _as_process(argv, cwd):
    # stdout block-buffered, as by default, so that a lost flush shows
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(shellab.__file__))
    with open(cwd / "stdout", "wb") as out:
        proc = subprocess.run([sys.executable, "-m", "shellab.cli", *argv], stdout=out,
                              stderr=subprocess.PIPE, cwd=cwd, env=env)
    return proc.returncode, (cwd / "stdout").read_bytes(), proc.stderr


@pytest.mark.parametrize("argv, code", [
    (["check", "--kind", "tcl", "corpus:fig3-Q", "corpus:fig3-Q/left", "--json"], 0),
    (["check", "--kind", "el", "corpus:fig1", "corpus:fig1/middle", "--json"], 1),
    (["relabel", "corpus:fig2-P", "--order-from-labeling", "corpus:fig2-P/bold",
      "--out", "out.json"], 0),
    (["rfas-from-tcl", "corpus:fig2-P", "corpus:fig2-P/bold", "--out", "out.json"], 0),
    (["rao", "corpus:fig1", "--certificate", "out.json"], 0),
    (["corpus"], 0),
    (["rfas-check", "corpus:fig1", "missing.json"], 1),
    (["check", "corpus:fig1"], 2),
], ids=["check-ok", "check-fail", "relabel-out", "rfas-from-tcl-out", "rao-certificate",
        "corpus", "input-error", "usage-error"])
def test_process_output_equals_in_process_run(tmp_path, monkeypatch, capsys, argv, code):
    # main() ends the process with os._exit once the report is flushed:
    # nothing may be lost on the way, including a written --out file
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")  # usage text wraps at the terminal width
    out = tmp_path / "out.json"
    seen = []
    for side in (lambda: _in_process(argv, capsys), lambda: _as_process(argv, tmp_path)):
        seen.append((*side(), out.read_bytes() if out.exists() else None))
        out.unlink(missing_ok=True)
    assert seen[0] == seen[1]
    assert seen[0][0] == code
    assert (seen[0][3] is not None) == ("out.json" in argv)
    if code == 1 and "--json" not in argv:
        assert seen[0][2].startswith(b"error: ")


def _subparsers_made(monkeypatch):
    made = []
    add_parser = argparse._SubParsersAction.add_parser

    def counting(self, name, **kwargs):
        made.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counting)
    return made


def test_run_builds_only_the_named_subparser(monkeypatch, capsys):
    made = _subparsers_made(monkeypatch)
    argv = ["check", "--kind", "cc", "corpus:fig2-P", "corpus:fig2-P/bold"]
    # a canonical argv is read off the command table, without a parser
    assert run(argv) == 0
    assert made == []
    # help and an abbreviated flag are left to the full parser
    with pytest.raises(SystemExit) as exc:
        run(["check", "--help"])
    assert exc.value.code == 0 and made == list(cli._COMMANDS)
    made.clear()
    assert run(["check", "--ki", *argv[2:]]) == 0
    assert len(made) == 11 and made == list(cli._COMMANDS)


# values that argparse refuses or reads as flags, and the empty string
_BAD_WORDS = ("zz", "x", "-3", "--", "-h", "--help", "--json", "")


@st.composite
def _argvs(draw):
    """An argv for one subcommand: mostly a valid one (each argument of its
    table given, with values it accepts, in any order, with one member of
    each required group), but some arguments left out or given twice, some
    values bad, and sometimes extra `--flag=value` forms, abbreviations or
    words."""
    command = draw(st.sampled_from(list(cli._COMMANDS)))
    rarely = st.integers(0, 7).map(lambda n: n == 0)
    pieces, flags = [], []
    for entry in cli._COMMANDS[command][2] + cli._COMMON:
        group = entry if isinstance(entry, list) else [entry]
        chosen = draw(st.permutations(group))[:1 + draw(rarely)]
        flags += [names[0] for names, _ in group if names[0][0] == "-"]
        for (name, *_), options in chosen:
            if draw(rarely):
                continue
            good = (st.sampled_from(options["choices"]) if "choices" in options
                    else st.integers(0, 10 ** 6).map(str) if "type" in options
                    else st.sampled_from(["p.json", "a b", "1hat", "7"]))
            nargs = options.get("nargs")
            values = [draw(st.sampled_from(_BAD_WORDS) if draw(rarely) else good)
                      for _ in range(0 if options.get("action") else
                                     nargs if isinstance(nargs, int) else 1)]
            pieces.append(values if name[0] != "-" else [name, *values])
    word = st.sampled_from(("p.json", "7") + _BAD_WORDS)
    noise = st.one_of(
        st.sampled_from(pieces) if pieces else word.map(lambda w: [w]),
        st.tuples(st.sampled_from(flags), word).map(lambda fw: ["=".join(fw)]),
        st.sampled_from(flags).flatmap(
            lambda f: st.integers(3, len(f) - 1).map(lambda k: [f[:k]])),
        word.map(lambda w: [w]),
    )
    if draw(st.booleans()):
        pieces += draw(st.lists(noise, min_size=1, max_size=2))
    return [command, *(t for piece in draw(st.permutations(pieces)) for t in piece)]


_FULL_PARSER = build_parser()


@settings(max_examples=400, deadline=None)
@given(_argvs())
def test_read_argv_gives_the_argparse_namespace_or_none(argv):
    read = cli._read_argv(argv)
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            parsed = vars(_FULL_PARSER.parse_args(argv))
        except SystemExit:
            parsed = None
    assert read is None or read == parsed


def _benchmark_argvs():
    """Every op argv of perfbench/workloads.py, as perfbench/run.py passes it."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # dataclasses resolves annotations there
    spec.loader.exec_module(workloads)
    for name in workloads.WORKLOADS:
        for op in [*(op for g in workloads.op_groups(name) for op in g),
                   *workloads.KNOWN_FAILURES[name]]:
            yield [f"inputs/{op.family}.{a[1:]}" if a[0] in "@%" else a for a in op.args] + [
                *workloads.BUDGET_FLAGS, "--json"]
    yield ["corpus", "--json"]  # the warm-up and start-up op


def test_benchmark_and_readme_argvs_are_read_without_argparse():
    argvs = [*_benchmark_argvs(), *(argv for _, argv, _ in _command_lines())]
    assert len(argvs) > 100
    for argv in argvs:
        read = cli._read_argv(argv)
        assert read is not None, argv
        assert read == vars(_FULL_PARSER.parse_args(argv))


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as exc:
        run(["check", "corpus:fig1"])  # missing --kind and labeling
    assert exc.value.code == 2


def test_grao_flag(capsys):
    assert run(["rao", "corpus:fig1", "--grao"]) == 0


def test_rao_certificate_roundtrip(tmp_path):
    from shellab import RaoTree, find_grao, verify_grao

    out = tmp_path / "cert.json"
    assert run(["rao", "corpus:fig1", "--grao", "--certificate", str(out)]) == 0
    data = json.loads(out.read_text())
    assert list(data) == ["certificate"]
    assert data["certificate"][0] == {"root": ["0hat"], "atom_order": ["a", "b"]}
    tree = RaoTree.from_json(data)
    assert tree == find_grao(load_named("fig1").poset)
    assert verify_grao(load_named("fig1").poset, tree)


def test_rao_certificate_of_a_long_chain_ends_without_traceback(tmp_path):
    # writing the nested certificate recursed once per chain element
    from shellab import RaoTree, verify_rao

    chain = [f"c{i}" for i in range(600)]
    poset = shellab.build_poset(chain, list(zip(chain, chain[1:])))
    (tmp_path / "poset.json").write_text(json.dumps(poset_to_json(poset)))
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(shellab.__file__))}
    proc = subprocess.run([sys.executable, "-m", "shellab.cli", "rao", "poset.json",
                           "--certificate", "cert.json"],
                          capture_output=True, cwd=tmp_path, env=env, text=True)
    assert proc.returncode == 0
    assert "Traceback" not in proc.stderr
    assert "rao: ok" in proc.stdout
    tree = RaoTree.from_json(json.loads((tmp_path / "cert.json").read_text()))
    assert verify_rao(poset, tree)


def _twelve_diamonds():
    """A tower of 12 diamonds: 4,096 maximal chains and 20,474 rooted
    covers, above the default budget of 10,000."""
    diamond = shellab.build_poset(["0", "a", "b", "1"],
                                  [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")])
    tower = diamond
    for _ in range(11):
        tower = shellab.ordinal_sum(tower, diamond)
    return tower


def test_rao_certificate_is_bounded_by_the_rooted_cover_budget(tmp_path, capsys):
    # the file has one entry per root reached, doubling with every diamond
    (tmp_path / "tower.json").write_text(json.dumps(poset_to_json(_twelve_diamonds())))
    cert = tmp_path / "cert.json"
    assert run(["rao", str(tmp_path / "tower.json"), "--certificate", str(cert)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: poset has ") and "budget is 10000" in err
    assert not cert.exists()


def test_label_orders_are_bounded_by_the_rooted_cover_budget(tmp_path, capsys, monkeypatch):
    # the budget is checked before the lex order of the tower's maximal
    # chains, and so before its RootTrie, is built
    tower = _twelve_diamonds()
    poset = tmp_path / "tower.json"
    poset.write_text(json.dumps(poset_to_json(tower)))
    labels = tmp_path / "labels.json"
    labels.write_text(json.dumps({"labels": [
        {"from": a, "to": b, "label": i} for i, (a, b) in enumerate(tower.covers)]}))
    called = []
    monkeypatch.setattr(cli, "lex_order_max_chains", lambda *a, **k: called.append(a))
    for argv in (["relabel", str(poset), "--order-from-labeling", str(labels)],
                 ["shelling-verify", str(poset), "--from-labeling", str(labels)]):
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: poset has ") and "budget is 10000" in err
    assert called == []


@pytest.mark.parametrize("argv", [
    ["relabel", "corpus:fig2-P", "--order-from-labeling", "corpus:fig2-P/bold"],
    ["rfas-from-tcl", "corpus:fig2-P", "corpus:fig2-P/bold"],
    ["export-dot", "corpus:fig1"],
], ids=["relabel", "rfas-from-tcl", "export-dot"])
def test_unwritable_out_is_an_error(tmp_path, capsys, argv):
    assert run([*argv, "--out", str(tmp_path / "missing" / "out"), "--json"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ")


_LC_CHECK_FIG8 = """\
{
  "command": "lc-check",
  "inputs": {
    "lc_budget": 1000000,
    "max_facets": 9,
    "max_rooted_covers": 10000,
    "poset": "corpus:fig8",
    "rfas": "corpus:fig8/omega",
    "search_budget": 1000000
  },
  "verdicts": {
    "lc-extension": false
  },
  "witnesses": {},
  "timings": {
    "maximal_chains": 26
  }
}
"""


def test_lc_check_json_report_is_pinned(capsys):
    assert run(["lc-check", "corpus:fig8", "corpus:fig8/omega", "--json"]) == 1
    assert capsys.readouterr().out == _LC_CHECK_FIG8


def test_lc_check_reports_the_maximal_chain_count(tmp_path, capsys):
    omega = str(tmp_path / "omega.json")
    assert run(["rfas-from-tcl", "corpus:fig2-P", "corpus:fig2-P/bold", "--out", omega]) == 0
    capsys.readouterr()
    assert run(["lc-check", "corpus:fig2-P", omega, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    count = len(shellab.maximal_chains(load_named("fig2-P").poset))
    assert report["timings"] == {"maximal_chains": count}
    assert len(report["witnesses"]["order"]) == count


def test_closed_stdout_pipe_ends_without_traceback():
    # as in `shellab corpus fig1 | head -0`: the reader is gone before the
    # report is written
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(shellab.__file__))}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "shellab.cli", "corpus", "fig1"],
                              stdout=write_end, stderr=subprocess.PIPE, env=env, text=True)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr


@pytest.mark.parametrize("argv", [
    ["rfas-check", "corpus:fig8", "corpus:fig5-Q/omega"],
    ["lc-check", "corpus:fig8", "corpus:fig5-P/C"],
    ["rfas-check", "corpus:fig5-P", "corpus:fig5-Q/omega"],
    ["rfas-shell", "corpus:fig5-P", "corpus:fig5-Q/omega"],
    ["check", "--kind", "el", "corpus:fig2-P", "corpus:fig1/left"],
], ids=["rfas-check-fig8", "lc-check-fig8", "rfas-check-fig5-P", "rfas-shell-fig5-P",
        "check-fig2-P"])
def test_corpus_table_of_another_example_is_an_error(tmp_path, argv):
    # a table is keyed by the node ids of its own poset's trie: on another
    # poset it can fail anywhere, or give a wrong verdict with no error
    code, out, err = _as_process(argv, tmp_path)
    example = argv[-1].split(":")[1].split("/")[0]
    assert code == 1 and out == b""
    assert err.startswith(b"error: ") and f"corpus example {example!r}".encode() in err
    assert b"Traceback" not in err


def _run_on_1500_atoms(tmp_path, command, *extra):
    """`shellab <command> poset.json <extra>` as a process, on the poset
    0hat < v0..v1499 < 1hat."""
    atoms = [f"v{i}" for i in range(1500)]
    poset = shellab.build_poset(["0hat", *atoms, "1hat"],
                                [("0hat", a) for a in atoms] + [(a, "1hat") for a in atoms])
    (tmp_path / "poset.json").write_text(json.dumps(poset_to_json(poset)))
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(shellab.__file__))}
    return subprocess.run([sys.executable, "-m", "shellab.cli", command,
                           str(tmp_path / "poset.json"), *extra],
                          capture_output=True, env=env, text=True)


def test_lc_check_on_1500_atoms_ends_without_traceback(tmp_path):
    # one stack frame per placed chain ended in RecursionError here
    (tmp_path / "rfas.json").write_text(json.dumps({"first_atoms": []}))
    proc = _run_on_1500_atoms(tmp_path, "lc-check", str(tmp_path / "rfas.json"))
    assert proc.returncode == 0
    assert "Traceback" not in proc.stderr
    assert "lc-extension: ok" in proc.stdout


@pytest.mark.parametrize("flags, verdict", [((), "rao: ok"), (("--grao",), "grao: ok")],
                         ids=["rao", "grao"])
def test_rao_on_1500_atoms_ends_without_traceback(tmp_path, flags, verdict):
    # one stack frame per placed atom ended in RecursionError here
    proc = _run_on_1500_atoms(tmp_path, "rao", *flags)
    assert proc.returncode == 0
    assert "Traceback" not in proc.stderr
    assert verdict in proc.stdout


@pytest.mark.parametrize("flags, kind", [((), "rao"), (("--grao",), "grao")],
                         ids=["rao", "grao"])
def test_rao_failure_without_pair_obstruction_names_the_refuted_interval(
        tmp_path, capsys, flags, kind):
    # no two atoms of 0hat obstruct each other: the failure lies in
    # [v1, 1hat], whose atoms v2 and v4 start two disjoint chains to 1hat
    p = shellab.random_bounded_poset(4, 7, 0.4)
    assert shellab.rao_pair_obstructions(p) == []
    path = tmp_path / "p.json"
    path.write_text(json.dumps(poset_to_json(p)))
    assert run(["rao", *flags, str(path), "--json"]) == 1
    witness = json.loads(capsys.readouterr().out)["witnesses"][kind]
    assert witness == {"no_atom_order": ["v1", "1hat"], "constraint": []}
    upper = shellab.build_poset(p.interval("v1", "1hat"),
                                [c for c in p.covers if p.leq("v1", c[0])])
    assert shellab.find_rao(upper) is None and shellab.find_grao(upper) is None


_CHAIN_POSET = {"elements": ["0hat", "a", "1hat"], "covers": [["0hat", "a"], ["a", "1hat"]]}


@pytest.mark.parametrize("labels, message", [
    ((1.2, 1.7), "error: label 1.2 is not an integer"),
    ((True, 2), "error: label True is not an integer"),
    ((1, float("inf")), "error: label inf is not an integer"),
], ids=["fractional", "bool", "infinite"])
def test_non_integer_label_is_an_error(tmp_path, capsys, labels, message):
    # int() would truncate 1.2 and 1.7 to the tie 1, 1 and report el: FAIL
    (tmp_path / "poset.json").write_text(json.dumps(_CHAIN_POSET))
    (tmp_path / "lab.json").write_text(json.dumps({"labels": [
        {"from": u, "to": v, "label": lbl} for (u, v), lbl in zip(_CHAIN_POSET["covers"], labels)]}))
    argv = ["check", "--kind", "el", str(tmp_path / "poset.json"), str(tmp_path / "lab.json")]
    assert run(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.strip() == message


def test_integral_float_label_is_accepted(tmp_path, capsys):
    (tmp_path / "poset.json").write_text(json.dumps(_CHAIN_POSET))
    (tmp_path / "lab.json").write_text(json.dumps({"labels": [
        {"from": "0hat", "to": "a", "label": 1.0}, {"from": "a", "to": "1hat", "label": 2.0}]}))
    assert run(["check", "--kind", "el", str(tmp_path / "poset.json"),
                str(tmp_path / "lab.json")]) == 0
    assert capsys.readouterr().out == "el: ok\n"


@pytest.mark.parametrize("default", ["leftmst", ["x"], 0])
def test_unknown_first_atom_default_is_an_error(tmp_path, capsys, default):
    path = tmp_path / "omega.json"
    path.write_text(json.dumps({"first_atoms": [], "default": default}))
    assert run(["rfas-check", "corpus:fig1", str(path)]) == 1
    assert capsys.readouterr().err.strip() == (
        f'error: "default" must be "leftmost" or null, not {default!r}')


def test_check_reports_the_rooted_intervals_it_decided(tmp_path, capsys):
    # an edge labeling is decided at one root per element: 3^5 - 2^5 pairs
    # x < y of B_5; the root-dependent relabeling at every rooted interval
    p, lab = shuffled_boolean_lattice(5, 0)
    (tmp_path / "poset.json").write_text(json.dumps(poset_to_json(p)))
    (tmp_path / "el.json").write_text(json.dumps(shellab.labeling_to_json(lab)))
    argv = ["check", "--kind", "cc", str(tmp_path / "poset.json"), "--json"]
    assert run(["relabel", str(tmp_path / "poset.json"), "--order-from-labeling",
                str(tmp_path / "el.json"), "--out", str(tmp_path / "cc.json")]) == 0
    capsys.readouterr()
    counts = {}
    for name in ("el.json", "cc.json"):
        assert run(argv + [str(tmp_path / name)]) == 0
        counts[name] = json.loads(capsys.readouterr().out)["timings"]
    rooted_covers = shellab.rooted_cover_count(p)
    assert counts == {
        "el.json": {"rooted_covers": rooted_covers, "rooted_intervals": 211},
        "cc.json": {"rooted_covers": rooted_covers,
                    "rooted_intervals": shellab.rooted_interval_count(p)},
    }
