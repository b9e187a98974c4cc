"""Command-line front end.

Every subcommand emits a report whose payload is byte-stable across runs for
fixed inputs: the ``timings`` field carries deterministic work counters, not
wall-clock times.  Exit status is 0 when every requested verdict holds, 1
when one fails or an input cannot be used, and 2 on usage errors.
"""

from __future__ import annotations

import json
import os
import sys
from functools import partial
from types import SimpleNamespace

from .chains import (
    DEFAULT_LC_BUDGET,
    DEFAULT_ROOTED_COVER_BUDGET,
    DEFAULT_SEARCH_BUDGET,
    ensure_budget,
    interval_chains,
    maximal_chains,
    rooted_cover_count,
)
from .errors import InvalidInputError, ShellabError
from .labeling import (
    KINDS,
    classify,
    labeling_to_json,
    lex_order_max_chains,
    load_labeling,
)
from .poset import load_json_object, load_poset, poset_from_json, to_dot

# rao, relabel, rfas, shelling and corpus are imported by the subcommands
# that use them: a `check` run loads none of them.


def _resolve_poset(ref):
    if ref.startswith("corpus:"):
        from . import corpus

        name = ref.split(":", 1)[1].split("/", 1)[0]
        return corpus.load_named(name).poset
    return load_poset(ref)


def _resolve_table(kind, load, poset, ref, budget):
    """A labeling or first atom set: ``corpus:NAME/KEY`` or a JSON file."""
    if ref.startswith("corpus:"):
        from . import corpus

        name, _, key = ref.split(":", 1)[1].partition("/")
        example = corpus.load_named(name)
        tables = getattr(example, kind)
        if not key or key not in tables:
            raise ShellabError(
                f"corpus example {name!r} {kind.replace('_', ' ')}: {sorted(tables)}"
            )
        if example.poset != poset:  # node ids of another poset's trie
            raise ShellabError(f"{ref} belongs to corpus example {name!r}, not to the given poset")
        return tables[key]
    return load(poset, ref, budget)


_resolve_labeling = partial(_resolve_table, "labelings", load_labeling)


def _resolve_first_atom_set(poset, ref, budget):
    from .rfas import load_first_atom_set

    return _resolve_table("first_atom_sets", load_first_atom_set, poset, ref, budget)


class Report:
    """Accumulates verdicts, witnesses and counters with a stable field
    order.  A witness is kept as the subcommand built it, tuples and sets
    included, and takes its JSON shape only when it is written out.  `lines`
    is an iterable of text lines that only plain output reads."""

    def __init__(self, command, inputs):
        self.command = command
        self.inputs = inputs
        self.verdicts = {}
        self.witnesses = {}
        self.timings = {}
        self.lines = ()
        self.output = None

    def verdict(self, name, ok):
        self.verdicts[name] = bool(ok)

    def product(self, value, text=None):
        """What the subcommand made, printed after the lines as `text`
        (default: `value` as indented JSON), or under "output" in a JSON
        report; `run` writes the text to --out instead when that is given."""
        self.output = value, text

    def product_text(self):
        value, text = self.output
        return json.dumps(value, indent=2) if text is None else text

    @property
    def ok(self):
        return all(self.verdicts.values())

    def emit(self, as_json):
        if as_json:
            payload = {
                "command": self.command,
                "inputs": self.inputs,
                "verdicts": self.verdicts,
                "witnesses": self.witnesses,
                "timings": self.timings,
            }
            if self.output is not None:
                payload["output"] = self.output[0]
            # tuples and sets become lists; every witness key is a string
            print(json.dumps(payload, indent=2, default=list))
        else:
            for text in self.lines:
                print(text)
            if self.output is not None:
                print(self.product_text())
            for name, ok in self.verdicts.items():
                print(f"{name}: {'ok' if ok else 'FAIL'}")
                if not ok and name in self.witnesses:
                    # in the shape a JSON report gives it: lists, string keys
                    shape = json.loads(json.dumps(self.witnesses[name], default=list))
                    print(f"  witness: {shape}")
        return 0 if self.ok else 1


def _read_tokens(path):
    """The whitespace-separated tokens of each nonblank line of a text file,
    yielded one line at a time."""
    try:
        with open(path, encoding="utf-8") as fh:
            yield from filter(None, map(str.split, fh))
    except UnicodeDecodeError as exc:
        raise InvalidInputError(f"{path}: not text ({exc})") from None


def _cmd_chains(args, report):
    poset = _resolve_poset(args.poset)
    if args.rooted:
        x, y = args.rooted
        chains = interval_chains(poset, x, y)
    else:
        chains = maximal_chains(poset)
    report.lines = map(" ".join, chains)
    report.verdict("enumerated", True)
    report.witnesses["chains"] = chains
    report.timings["chain_count"] = len(chains)


def _cmd_check(args, report):
    poset = _resolve_poset(args.poset)
    lab = _resolve_labeling(poset, args.labeling, args.max_rooted_covers)
    rep = classify(lab, poset, kinds={args.kind}, budget=args.max_rooted_covers)
    ok = rep.flag(args.kind)
    report.verdict(args.kind, ok)
    if not ok:
        report.witnesses[args.kind] = rep.witnesses.get(args.kind, {})
    report.timings["rooted_covers"] = rooted_cover_count(poset)
    report.timings["rooted_intervals"] = rep.rooted_intervals


def _cmd_relabel(args, report):
    from .relabel import relabel_from_order

    poset = _resolve_poset(args.poset)
    if args.order_from_labeling:
        lab = _resolve_labeling(poset, args.order_from_labeling, args.max_rooted_covers)
        ensure_budget(poset, args.max_rooted_covers)
        order = lex_order_max_chains(lab, poset, tie_break=True)
    else:
        order = tuple(map(tuple, _read_tokens(args.order_file)))
    report.product(labeling_to_json(relabel_from_order(poset, order, args.max_rooted_covers)))
    report.verdict("relabeled", True)
    report.timings["maximal_chains"] = len(order)


def _cmd_rfas_check(args, report):
    from .rfas import check_rfas

    poset = _resolve_poset(args.poset)
    omega = _resolve_first_atom_set(poset, args.rfas, args.max_rooted_covers)
    rep = check_rfas(poset, omega, literal_ii=args.rfas_ii_literal,
                     budget=args.max_rooted_covers)
    report.verdict("rfas", rep.ok)
    if not rep.ok:
        report.witnesses["rfas"] = [
            {"condition": v.condition, "direction": v.direction,
             "root": v.root, "x": v.x, "y": v.y, "atom": v.atom,
             **({"detail": v.detail} if v.detail else {})}
            for v in rep.violations
        ]
    report.timings["rooted_covers"] = rooted_cover_count(poset)


def _cmd_rfas_shell(args, report):
    from .rfas import shelling_from_rfas
    from .shelling import is_shelling, order_complex

    poset = _resolve_poset(args.poset)
    omega = _resolve_first_atom_set(poset, args.rfas, args.max_rooted_covers)
    order = shelling_from_rfas(poset, omega, args.max_rooted_covers)
    ok = is_shelling(order_complex(poset), order).ok
    report.lines = map(" ".join, order)
    report.verdict("shelling", ok)
    report.witnesses["order"] = order
    report.timings["facets"] = len(order)


def _cmd_rfas_from_tcl(args, report):
    from .rfas import first_atom_set_to_json, rfas_from_tcl

    poset = _resolve_poset(args.poset)
    lab = _resolve_labeling(poset, args.labeling, args.max_rooted_covers)
    report.product(first_atom_set_to_json(rfas_from_tcl(poset, lab, args.max_rooted_covers)))
    report.verdict("rfas-from-tcl", True)
    report.timings["rooted_covers"] = rooted_cover_count(poset)


def _cmd_lc_check(args, report):
    from .rfas import check_lc

    poset = _resolve_poset(args.poset)
    omega = _resolve_first_atom_set(poset, args.rfas, args.max_rooted_covers)
    gamma = check_lc(poset, omega, args.lc_budget, args.max_rooted_covers)
    if gamma is None:
        report.lines = ("none",)
        report.verdict("lc-extension", False)
    else:
        report.lines = map(" ".join, gamma)
        report.verdict("lc-extension", True)
        report.witnesses["order"] = gamma
    report.timings["maximal_chains"] = poset.path_count(poset.top)


def _cmd_rao(args, report):
    from .rao import _Search, rao_pair_obstructions

    poset = _resolve_poset(args.poset)
    if args.certificate:
        # the file has at most one entry per RootTrie node
        ensure_budget(poset, args.max_rooted_covers)
    search = _Search(poset, args.grao, args.search_budget)
    tree = search.search(poset.bottom, frozenset())
    kind = "grao" if args.grao else "rao"
    report.verdict(kind, tree is not None)
    if tree is None:
        u, constraint = search.refuted()
        report.witnesses[kind] = rao_pair_obstructions(poset) or {
            "no_atom_order": [u, poset.top],
            "constraint": sorted(constraint, key=poset.index.__getitem__),
        }
    elif args.certificate:
        with open(args.certificate, "w") as fh:
            json.dump(tree.to_json(), fh, indent=2)
    report.timings["atoms"] = len(poset.atoms())


def _read_facet_order(path, complex_):
    """The facets of an order file, one a line as whitespace-separated
    vertices, yielded as the file is read: a token names the vertex whose
    str() it is."""
    named = {str(v): v for v in complex_.vertices}
    if len(named) != len(complex_.vertices):
        raise InvalidInputError("an order file cannot name vertices that share a string form")
    return (map(named.get, tokens, tokens) for tokens in _read_tokens(path))


def _cmd_shelling_verify(args, report):
    from .shelling import complex_from_json, is_shelling, order_complex

    ref = args.complex_or_poset
    poset = None
    if ref.startswith("corpus:"):
        poset = _resolve_poset(ref)
        complex_ = order_complex(poset)
    else:
        data = load_json_object(ref)
        if "elements" in data:
            poset = poset_from_json(data)
            complex_ = order_complex(poset)
        else:
            complex_ = complex_from_json(data)
    if args.order_file:
        order = _read_facet_order(args.order_file, complex_)
    else:
        if poset is None:
            raise ShellabError("--from-labeling needs a poset input")
        lab = _resolve_labeling(poset, args.from_labeling, args.max_rooted_covers)
        ensure_budget(poset, args.max_rooted_covers)
        order = lex_order_max_chains(lab, poset, tie_break=True)
    result = is_shelling(complex_, order)
    report.verdict("shelling", result.ok)
    if not result.ok:
        report.witnesses["shelling"] = {"violation_at": result.first_violation}
    report.timings["facets"] = len(complex_._masks)


def _cmd_corpus(args, report):
    from . import corpus

    if args.name:
        ex = corpus.load_named(args.name)
        report.product({
            "name": ex.name,
            "comment": ex.comment,
            "elements": len(ex.poset.elements),
            "covers": len(ex.poset.covers),
            "labelings": sorted(ex.labelings),
            "first_atom_sets": sorted(ex.first_atom_sets),
        })
    else:
        names = corpus.names()
        report.product(names, "\n".join(names))
    report.verdict("corpus", True)


def _cmd_export_dot(args, report):
    poset = _resolve_poset(args.poset)
    dot = to_dot(poset)
    report.product(dot, dot.rstrip("\n"))
    report.verdict("exported", True)


def _arg(*names, **options):
    return names, options


_POSET = _arg("poset")
_OUT = _arg("--out", metavar="FILE")

# name -> (help, function, arguments); a list of arguments is a required
# mutually exclusive group.  Every subcommand also takes the _COMMON flags.
_COMMANDS = {
    "chains": ("print maximal chains", _cmd_chains, [
        _POSET,
        _arg("--rooted", nargs=2, metavar=("X", "Y"), help="restrict to the interval [X, Y]"),
    ]),
    "check": ("verify a labeling kind", _cmd_check, [
        _arg("--kind", required=True, choices=KINDS), _POSET, _arg("labeling"),
    ]),
    "relabel": ("labeling from a maximal chain order", _cmd_relabel, [
        _POSET,
        [_arg("--order-from-labeling", metavar="LABELING"), _arg("--order-file", metavar="FILE")],
        _OUT,
    ]),
    "rfas-check": ("validate a first atom set", _cmd_rfas_check, [
        _POSET, _arg("rfas"),
        _arg("--rfas-ii-literal", action="store_true",
             help="use the one-step reading of the walk-back condition"),
    ]),
    "rfas-shell": ("shelling order from a first atom set", _cmd_rfas_shell, [
        _POSET, _arg("rfas"),
    ]),
    "rfas-from-tcl": ("first atom set from a TCL-labeling", _cmd_rfas_from_tcl, [
        _POSET, _arg("labeling"), _OUT,
    ]),
    "lc-check": ("sandwich-free linear extension search", _cmd_lc_check, [
        _POSET, _arg("rfas"),
    ]),
    "rao": ("recursive atom ordering search", _cmd_rao, [
        _POSET, _arg("--grao", action="store_true"), _arg("--certificate", metavar="FILE"),
    ]),
    "shelling-verify": ("verify a facet order", _cmd_shelling_verify, [
        _arg("complex_or_poset"),
        [_arg("--order-file", metavar="FILE"), _arg("--from-labeling", metavar="LABELING")],
    ]),
    "corpus": ("list or dump built-in examples", _cmd_corpus, [
        _arg("name", nargs="?"),
    ]),
    "export-dot": ("Hasse diagram in DOT form", _cmd_export_dot, [
        _POSET, _OUT,
    ]),
}
_COMMON = [
    _arg("--json", action="store_true", help="emit a JSON report"),
    _arg("--max-rooted-covers", type=int, default=DEFAULT_ROOTED_COVER_BUDGET),
    _arg("--search-budget", type=int, default=DEFAULT_SEARCH_BUDGET),
    _arg("--lc-budget", type=int, default=DEFAULT_LC_BUDGET),
    _arg("--max-facets", type=int, default=9),
]


def build_parser():
    """The parser of every subcommand."""
    import argparse

    top = argparse.ArgumentParser(
        prog="shellab",
        description="Lexicographic shellability toolkit for finite bounded posets.",
    )
    sub = top.add_subparsers(dest="subcommand", required=True)
    for name, (help_, _, arguments) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_)
        for argument in arguments + _COMMON:
            if isinstance(argument, list):
                group = p.add_mutually_exclusive_group(required=True)
                for names, options in argument:
                    group.add_argument(*names, **options)
            else:
                names, options = argument
                p.add_argument(*names, **options)
    return top


def _value(options, token):
    """`token` as argparse stores it for an argument with `options`; a
    ValueError where argparse would refuse it or might read it as a flag."""
    if token.startswith("-"):
        raise ValueError(token)
    value = options.get("type", str)(token)
    if "choices" in options and value not in options["choices"]:
        raise ValueError(token)
    return value


def _read_argv(argv):
    """The namespace of `build_parser().parse_args(argv)` as a dict, read off
    `_COMMANDS` without argparse, when argv names a subcommand and gives its
    known flags once each (`--flag value`) and its positionals; None for any
    other argv (help, a usage error, an abbreviated or repeated flag,
    `--flag=value`, `--`, a token or value that starts with '-'), which is
    left to argparse."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    groups = [a if isinstance(a, list) else [a] for a in _COMMANDS[argv[0]][2] + _COMMON]
    arguments = [(names[0], names[0].lstrip("-").replace("-", "_"), options)
                 for group in groups for names, options in group]
    flags = {name: (dest, options) for name, dest, options in arguments if name[0] == "-"}
    args = {dest: options.get("default", False if options.get("action") == "store_true" else None)
            for _, dest, options in arguments}
    args["subcommand"] = argv[0]
    tokens, given, free = iter(argv[1:]), set(), []
    try:
        for token in tokens:
            if not token.startswith("-"):
                free.append(token)
                continue
            if token not in flags or token in given:
                return None
            given.add(token)
            dest, options = flags[token]
            nargs = options.get("nargs")
            if options.get("action") == "store_true":
                args[dest] = True
            elif nargs:
                args[dest] = [_value(options, next(tokens)) for _ in range(nargs)]
            else:
                args[dest] = _value(options, next(tokens))
        for name, dest, options in arguments:
            if name[0] != "-" and (free or options.get("nargs") != "?"):
                args[dest] = _value(options, free.pop(0))
    except (ValueError, StopIteration, IndexError):
        return None
    for group in groups:
        count = sum(names[0] in given for names, _ in group)
        if count > 1 or not count and (len(group) > 1 or group[0][1].get("required")):
            return None
    return None if free else args


def run(argv) -> int:
    """Read argv (without the program name) and execute; returns exit code.
    An argv that `_read_argv` leaves to argparse is parsed by the full
    parser, which prints the help, the usage or the error."""
    args = _read_argv(argv)
    args = build_parser().parse_args(argv) if args is None else SimpleNamespace(**args)
    inputs = {
        k: v for k, v in sorted(vars(args).items())
        if k not in {"subcommand", "json"} and v is not None
    }
    report = Report(args.subcommand, inputs)
    try:
        _COMMANDS[args.subcommand][1](args, report)
        if getattr(args, "out", None):
            with open(args.out, "w") as fh:
                fh.write(report.product_text() + "\n")
            report.output = None
    except (ShellabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return report.emit(args.json)


def main() -> None:
    """Run the command line, flush the report and end the process at once:
    interpreter teardown would only free what the op built.  Usage errors
    and --help still leave through SystemExit."""
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
        sys.stderr.flush()
    except BrokenPipeError:
        # the reader closed the pipe early; what is still buffered is dropped
        code = 1
    os._exit(code)


if __name__ == "__main__":
    main()
