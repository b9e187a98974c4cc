"""In-process replay of benchmark ops, with a span around each public call.

Each op is replayed by making the public calls its subcommand makes (the
``_cmd_*`` functions of ``shellab.cli``) on freshly loaded inputs, because
``Poset._chain_cache`` and ``_root_cache`` would otherwise carry work from op
to op.  A span records name ``<module>.<function>``, start, end, parent span
and op id; spans stay in memory and are reduced to the per-layer metrics at
the end.  After an op, probes time the chain layer (and the chain order DAG
of first-atom ops) on another fresh load; probes do not count towards the
op's replay time.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import time
from collections import Counter, defaultdict

from harness import DEADLINE_S

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "src"))

from shellab.chains import (  # noqa: E402
    maximal_chains, rooted_cover_count, rooted_interval_count, rooted_intervals)
from shellab.cli import build_parser  # noqa: E402
from shellab.labeling import (  # noqa: E402
    KINDS, classify, labeling_to_json, lex_order_max_chains, load_labeling)
from shellab.poset import load_poset  # noqa: E402
from shellab.rao import find_grao, find_rao, rao_pair_obstructions  # noqa: E402
from shellab.relabel import relabel_from_order  # noqa: E402
from shellab.rfas import (  # noqa: E402
    chain_order_dag, check_lc, check_rfas, first_atom_set_to_json,
    load_first_atom_set, rfas_from_tcl, shelling_from_rfas)
from shellab.shelling import is_shelling, order_complex  # noqa: E402

LAYERS = ("poset", "chains", "labeling", "relabel", "rfas", "shelling", "rao")

# Per-layer metrics: span totals, counts, rates and failures.
SPAN_TOTALS = (
    "poset.load", "poset.closures",
    "chains.maximal_chains", "chains.rooted_intervals",
    "labeling.load", *(f"labeling.classify.{k}" for k in KINDS), "labeling.lex_order",
    "relabel.relabel_from_order",
    "rfas.load", "rfas.check_rfas", "rfas.rfas_from_tcl", "rfas.chain_order_dag",
    "rfas.check_lc", "rfas.shelling_from_rfas",
    "shelling.order_complex", "shelling.is_shelling",
    "rao.find_rao", "rao.find_grao", "rao.pair_obstructions",
)
COUNTS = ("chains.maximal_chains.count", "chains.rooted_intervals.count",
          "rfas.dag_edges.count", "shelling.facets.count", "rao.certificate_nodes.count")

# Subcommands that build the chain order DAG of a first atom set; every
# subcommand but rao goes through the chain engine.
DAG_PROBE = {"rfas-shell", "lc-check"}


class Deadline(Exception):
    """An op ran past the benchmark's per-op deadline."""


class Tracer:
    """Runs calls, and with ``enabled`` records a span for each."""

    def __init__(self, enabled):
        self.enabled = enabled
        self.spans = []  # [name, start, end, parent index, op id, error]
        self.counts = Counter()
        self.op_time = {}
        self._stack = []
        self._op = None
        self._last_error = None

    def call(self, name, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        span = [name, time.perf_counter(), None,
                self._stack[-1] if self._stack else None, self._op, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            return fn(*args, **kwargs)
        except BaseException as exc:
            if exc is not self._last_error:  # innermost span raising it
                span[5] = type(exc).__name__
                self._last_error = exc
            raise
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def count(self, name, n):
        if self.enabled:
            self.counts[name] += n


def _load_poset(t, path):
    poset = t.call("poset.load", load_poset, path)
    t.call("poset.closures", poset.upset, poset.bottom)
    return poset


def _read_order(path):
    with open(path) as fh:
        return [frozenset(line.split()) for line in fh if line.strip()]


def _is_shelling(t, complex_, order):
    result = t.call("shelling.is_shelling", is_shelling, complex_, order)
    n = len(order)
    if result.ok:
        t.count("shelling.facet_pairs", n * (n - 1) // 2)
    else:
        j, i = result.first_violation
        t.count("shelling.facet_pairs", j * (j - 1) // 2 + i + 1)
    return result


def _order_complex(t, poset):
    complex_ = t.call("shelling.order_complex", order_complex, poset)
    t.count("shelling.facets.count", len(complex_.facets))
    return complex_


def _maximal_chains(t, poset):
    chains = t.call("chains.maximal_chains", maximal_chains, poset)
    t.count("chains.maximal_chains.count", len(chains))


def _rao_nodes(tree):
    return 1 + sum(_rao_nodes(c) for c in tree.children.values())


def _replay_command(t, a):
    budget = a.max_rooted_covers
    if a.subcommand == "chains":
        _maximal_chains(t, _load_poset(t, a.poset))
    elif a.subcommand == "check":
        poset = _load_poset(t, a.poset)
        lab = t.call("labeling.load", load_labeling, poset, a.labeling, budget)
        t.call(f"labeling.classify.{a.kind}", classify, lab, poset,
               kinds={a.kind}, budget=budget)
        t.count("labeling.classify.intervals", rooted_interval_count(poset))
        t.call("chains.rooted_cover_count", rooted_cover_count, poset)
    elif a.subcommand == "relabel":
        poset = _load_poset(t, a.poset)
        lab = t.call("labeling.load", load_labeling, poset, a.order_from_labeling, budget)
        order = t.call("labeling.lex_order", lex_order_max_chains, lab, poset, tie_break=True)
        out = t.call("relabel.relabel_from_order", relabel_from_order, poset, order, budget)
        t.call("labeling.to_json", lambda: json.dumps(labeling_to_json(out), indent=2))
    elif a.subcommand == "rfas-check":
        poset = _load_poset(t, a.poset)
        omega = t.call("rfas.load", load_first_atom_set, poset, a.rfas, budget)
        t.call("rfas.check_rfas", check_rfas, poset, omega,
               literal_ii=a.rfas_ii_literal, budget=budget)
        t.call("chains.rooted_cover_count", rooted_cover_count, poset)
    elif a.subcommand == "rfas-shell":
        poset = _load_poset(t, a.poset)
        omega = t.call("rfas.load", load_first_atom_set, poset, a.rfas, budget)
        order = t.call("rfas.shelling_from_rfas", shelling_from_rfas, poset, omega, budget)
        _is_shelling(t, _order_complex(t, poset), [frozenset(c) for c in order])
    elif a.subcommand == "rfas-from-tcl":
        poset = _load_poset(t, a.poset)
        lab = t.call("labeling.load", load_labeling, poset, a.labeling, budget)
        omega = t.call("rfas.rfas_from_tcl", rfas_from_tcl, poset, lab, budget)
        t.call("rfas.to_json", lambda: json.dumps(first_atom_set_to_json(omega), indent=2))
    elif a.subcommand == "lc-check":
        poset = _load_poset(t, a.poset)
        omega = t.call("rfas.load", load_first_atom_set, poset, a.rfas, budget)
        t.call("rfas.check_lc", check_lc, poset, omega, a.lc_budget, budget)
        _maximal_chains(t, poset)
    elif a.subcommand == "rao":
        poset = _load_poset(t, a.poset)
        name, finder = ("rao.find_grao", find_grao) if a.grao else ("rao.find_rao", find_rao)
        tree = t.call(name, finder, poset, a.search_budget)
        if tree is None:
            t.call("rao.pair_obstructions", rao_pair_obstructions, poset)
        else:
            t.count("rao.certificate_nodes.count", _rao_nodes(tree))
    elif a.subcommand == "shelling-verify" and a.order_file:
        complex_ = _order_complex(t, _load_poset(t, a.complex_or_poset))
        _is_shelling(t, complex_, _read_order(a.order_file))
    else:
        raise ValueError(f"no replay for {a.subcommand}")


def _probe(t, a):
    budget = a.max_rooted_covers
    if a.subcommand != "rao":
        poset = load_poset(getattr(a, "poset", None) or a.complex_or_poset)
        poset.upset(poset.bottom)
        _maximal_chains(t, poset)
        n = t.call("chains.rooted_intervals",
                   lambda: sum(1 for _ in rooted_intervals(poset, budget)))
        t.count("chains.rooted_intervals.count", n)
    if a.subcommand in DAG_PROBE:
        poset = load_poset(a.poset)
        omega = load_first_atom_set(poset, a.rfas, budget)
        dag = t.call("rfas.chain_order_dag", chain_order_dag, poset, omega, budget)
        t.count("rfas.dag_edges.count", len(dag.edges))


def _deadline(*_):
    raise Deadline(f"op ran past {DEADLINE_S} s")


def _guarded(t, fn, a):
    """Run fn(t, a) under the per-op deadline; exceptions are the op's
    failure, already attributed to the innermost span."""
    previous = signal.signal(signal.SIGALRM, _deadline)
    signal.setitimer(signal.ITIMER_REAL, DEADLINE_S)
    try:
        fn(t, a)
    except Exception:
        pass
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def replay(t, op_id, argv, cwd):
    """Replay one op (argv as passed to ``shellab``); returns its replay
    time, probes excluded."""
    a = build_parser().parse_args(argv)
    here = os.getcwd()
    os.chdir(cwd)
    try:
        t._op = op_id
        start = time.perf_counter()
        t.call(f"op.{a.subcommand}", _guarded, t, _replay_command, a)
        t.op_time[op_id] = time.perf_counter() - start
        if t.enabled:
            t.call("probe", _guarded, t, _probe, a)
    finally:
        os.chdir(here)
        t._op = None
    return t.op_time[op_id]


def layer_metrics(t, known):
    """Per-layer metrics of a traced replay ``t``, as name -> (value, unit).
    The layer failures also count those of ``known``, the replay of the
    known failures, whose times are left out."""
    totals = defaultdict(float)
    for name, start, end, _, _, _ in t.spans:
        totals[name] += end - start
    failed = Counter(name.split(".")[0] for name, _, _, _, _, error in t.spans + known.spans
                     if error is not None)
    metrics = {f"{name}_s": (totals[name], "s") for name in SPAN_TOTALS}
    metrics.update({name: (t.counts[name], "count") for name in COUNTS})
    classify_s = sum(totals[f"labeling.classify.{k}"] for k in KINDS)
    metrics["labeling.classify.intervals_per_s"] = (
        t.counts["labeling.classify.intervals"] / classify_s if classify_s else 0.0, "1/s")
    shelling_s = totals["shelling.is_shelling"]
    metrics["shelling.facet_pairs_per_s"] = (
        t.counts["shelling.facet_pairs"] / shelling_s if shelling_s else 0.0, "1/s")
    metrics.update({f"{layer}.failed": (failed[layer], "count") for layer in LAYERS})
    return metrics
