import argparse
import json
import os
import subprocess
import sys

import pytest

import shellab
from shellab import cli
from shellab.cli import build_parser, run
from shellab import poset_to_json
from shellab.corpus import load_named
from conftest import shuffled_boolean_lattice, string_root_case, tie_case


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
    # built in process can
    (tmp_path / "order.txt").write_text("1\n1\n")
    k = shellab.OrderComplex((1, "1"), (frozenset({1}), frozenset({"1"})))
    with pytest.raises(shellab.InvalidInputError, match="share a string form"):
        cli._read_facet_order(tmp_path / "order.txt", k)


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
], ids=["labeling-without-labels", "first-atoms-not-json", "missing-file",
        "first-atoms-not-an-object", "order-not-a-permutation", "first-atom-root-not-a-chain",
        "first-atom-root-of-another-element", "chain-edge-root-not-a-chain",
        "edge-label-for-a-non-cover", "edge-label-not-an-integer", "chain-edge-label-not-an-integer",
        "facets-mixing-strings-and-numbers", "chain-order-not-a-permutation",
        "first-atom-contradictory-repeat", "edge-label-contradictory-repeat",
        "chain-edge-label-contradictory-repeat"])
def test_unusable_input_file_is_an_error(tmp_path, capsys, argv, content, message):
    path = tmp_path / "input.json"
    if content is not None:
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
], ids=["chain-edge-string-root", "first-atom-string-root", "first-atom-not-below"])
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
    heavy = ("dataclasses", "inspect", "ast", "importlib.resources", "random")
    probe = "import sys{}; print(' '.join(m for m in {!r} if m in sys.modules))"
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(shellab.__file__))}

    def loaded(extra):
        out = subprocess.run([sys.executable, "-S", "-c", probe.format(extra, heavy)],
                             env=env, capture_output=True, text=True, check=True).stdout
        return set(out.split())

    assert loaded(", shellab.cli") <= loaded("")


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
    assert run(["check", "--kind", "cc", "corpus:fig2-P", "corpus:fig2-P/bold"]) == 0
    assert made == ["check"]
    made.clear()
    build_parser()
    assert len(made) == 11 and made == list(cli._COMMANDS)


def _subparser(parser, name):
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices[name]


# a complete argv for each subcommand; the files are never opened
_VALID = {
    "chains": ["p.json"], "check": ["--kind", "cc", "p.json", "l.json"],
    "relabel": ["p.json", "--order-file", "o.txt"], "rfas-check": ["p.json", "r.json"],
    "rfas-shell": ["p.json", "r.json"], "rfas-from-tcl": ["p.json", "l.json"],
    "lc-check": ["p.json", "r.json"], "rao": ["p.json"],
    "shelling-verify": ["c.json", "--order-file", "o.txt"], "corpus": [],
    "export-dot": ["p.json"],
}


@pytest.mark.parametrize("name", list(_VALID))
def test_subparser_alone_prints_what_the_full_parser_prints(monkeypatch, capsys, name):
    assert set(_VALID) == set(cli._COMMANDS)
    monkeypatch.setenv("COLUMNS", "80")
    alone, full = build_parser(name), build_parser()
    assert _subparser(alone, name).format_help() == _subparser(full, name).format_help()
    # a missing argument, a complete argv, and an unknown flag, which the
    # top-level parser reports with its own usage line
    for argv in ([name], [name, *_VALID[name]], [name, *_VALID[name], "--no-such-flag"]):
        outcomes = []
        for parser in (alone, full):
            try:
                result = parser.parse_args(argv)
            except SystemExit as exc:
                result = exc.code
            outcomes.append((result, capsys.readouterr()))
        assert outcomes[0] == outcomes[1]


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


def test_rao_certificate_is_bounded_by_the_rooted_cover_budget(tmp_path, capsys):
    # the file has one entry per root reached, doubling with every diamond
    diamond = shellab.build_poset(["0", "a", "b", "1"],
                                  [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")])
    tower = diamond
    for _ in range(11):
        tower = shellab.ordinal_sum(tower, diamond)
    (tmp_path / "tower.json").write_text(json.dumps(poset_to_json(tower)))
    cert = tmp_path / "cert.json"
    assert run(["rao", str(tmp_path / "tower.json"), "--certificate", str(cert)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: poset has ") and "budget is 10000" in err
    assert not cert.exists()


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
