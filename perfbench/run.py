"""shellab benchmark: time-to-verdict of CLI ops, and a traced per-layer replay.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each workload is a fixed list of
``python -m shellab.cli`` ops (see ``workloads.py``), run as child processes
in a closed loop: one client, one op at a time.  ``--seed`` picks the input
variants and the op order.  With ``--trace 0`` the list is run in passes
until ``--seconds`` have elapsed (the first pass always whole), and the
end-to-end metrics are printed.  Op times are reported as multiples of the
time of a reference process (``harness.REFERENCE_ARGV``, independent of the
checkout) run just before each op, so that the drift of the host's speed
cancels; the details line gives the same percentiles in seconds.  With ``--trace 1`` one pass is run as
processes and replayed in-process, untraced and traced; the per-layer
metrics are printed and the spans written to
``.perfbench_work/spans-<workload>-<seed>.json``.  The last line of
standard output is the JSON result; the line before it holds details such
as the tail percentile, each op's time and the machine.

Every op passes a correctness gate (``harness.gate``); a run with a failed
op is not correct.  The three known failures of the code the benchmark was
written for (B_7 ``lc-check``, B_7 ``rfas-shell`` and ``rao`` on a chain of
length 400, one per workload) are not timed ops: the traced run runs and
replays each once and reports how many still fail (``known_failures.count``)
and where (``<layer>.failed``).  One that stops failing must agree with
theory.  ``expected.json`` pins every input file and every op's report;
regenerate it with ``record.py`` only when the benchmark itself changes.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
EXPECTED = os.path.join(HERE, "expected.json")
# Set-up is repeated and its median reported: the first set-ups of a run
# are slower, and the host's speed drifts.
SETUP_REPEATS = 11

sys.path.insert(0, HERE)
import harness  # noqa: E402
import workloads  # noqa: E402


class BenchmarkError(Exception):
    """The benchmark cannot run here (no sources, inputs differ from the
    recorded ones, or the warm-up op fails)."""


def machine():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu": cpu}


def load_expected():
    with open(EXPECTED) as fh:
        return json.load(fh)


def input_path(work, family, name):
    return os.path.join(work, "inputs", f"{family}.{name}")


def out_path(work, family, name):
    return os.path.join(work, "out", f"{family}.{name}")


def write_inputs(work, variants, digests=None):
    """Generate every family's files; check each against ``digests`` (or
    return the digests when ``digests`` is None)."""
    seen = {}
    os.makedirs(os.path.join(work, "inputs"))
    os.makedirs(os.path.join(work, "out"))
    for family, variant in sorted(variants.items()):
        for name, content in workloads.generate(family, variant).items():
            path = input_path(work, family, name)
            with open(path, "w") as fh:
                fh.write(content)
            key = f"{family}/{variant}/{name}"
            seen[key] = harness.file_digest(path)
            if digests is not None and digests.get(key) != seen[key]:
                raise BenchmarkError(f"input {key} differs from its recorded digest")
    return seen


def op_args(op):
    """The op's argv, with file paths relative to the run's work directory."""
    dirs = {"@": "inputs", "%": "out"}
    args = [os.path.join(dirs[a[0]], f"{op.family}.{a[1:]}") if a[0] in dirs else a
            for a in op.args]
    return args + list(workloads.BUDGET_FLAGS) + ["--json"]


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def setup(work, variants, expected, spawner):
    """Generate and digest-check the inputs, then run one warm-up op."""
    fresh_dir(work)
    write_inputs(work, variants, expected["inputs"])
    warm = spawner.run(["corpus", "--json"], work, work)
    if warm.exit_code != 0:
        raise BenchmarkError(f"warm-up op failed: {warm.stderr.strip()[-300:]}")


def key(op, variants):
    return f"{op.id}/{variants[op.family]}"


def run_once(op, work, spawner, record):
    """Run one op and gate it against ``record`` (see ``harness.gate``).
    Returns (result, what the gate saw, failure reason or None)."""
    out = out_path(work, op.family, op.out) if op.out else None
    if out and os.path.exists(out):
        os.remove(out)
    result = spawner.run(op_args(op), work, work)
    seen = harness.observe(result, out)
    return result, seen, harness.gate(seen, op.expect, record)


class Tally:
    """Per-op samples over repetitions, with failures as +inf: wall time,
    wall time divided by that of the reference process run just before the
    op, and peak RSS."""

    def __init__(self, ops):
        self.wall = {op.id: [] for op in ops}
        self.rel = {op.id: [] for op in ops}
        self.rss = {op.id: [] for op in ops}
        self.failures = {}
        self.attempted = 0
        self.failed = 0

    def add(self, op, result, reason, reference_s=math.nan):
        self.attempted += 1
        if reason is None:
            self.wall[op.id].append(result.wall_s)
            self.rel[op.id].append(result.wall_s / reference_s)
            self.rss[op.id].append(result.rss_mb)
            return
        self.failed += 1
        self.failures[op.id] = reason
        for table in (self.wall, self.rel, self.rss):
            table[op.id].append(math.inf)

    def values(self, table):
        return [harness.op_value(s) for s in table.values()]


def end_to_end(args, work, expected, spawner, variants, ops):
    setups = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        setup(work, variants, expected, spawner)
        setups.append(time.perf_counter() - start)

    expected_ops = expected["ops"][args.workload]
    tally = Tally(ops)
    # Passes until the time is up: the first one whole, the last one maybe
    # cut short.  An op that failed is not run again: its value is +inf
    # whatever a repetition gives.
    end = time.perf_counter() + args.seconds
    passes = 0
    references = []
    while passes == 0 or time.perf_counter() < end:
        passes += 1
        for op in ops:
            if passes > 1 and time.perf_counter() >= end:
                break
            if op.id not in tally.failures:
                references.append(spawner.reference(work, work))
                result, _, reason = run_once(op, work, spawner,
                                             expected_ops[key(op, variants)])
                tally.add(op, result, reason, references[-1])

    walls, rels = tally.values(tally.wall), tally.values(tally.rel)
    tail_rel, pct = harness.tail(rels)
    rss_tail, _ = harness.tail(tally.values(tally.rss))
    details = {
        "workload": args.workload, "seed": args.seed, "variants": variants,
        "passes": passes, "ops_per_pass": len(ops),
        "tail_percentile": pct, "tail_ops_beyond": harness.TAIL_BEYOND,
        "setup_runs_s": setups, "failures": tally.failures, **machine(),
        "reference_argv": harness.REFERENCE_ARGV[1:],
        "reference_p50_s": statistics.median(references),
        "op_p50_s": harness.p50(walls), "op_tail_s": harness.tail(walls)[0],
        "op_wall_s": {i: None if math.isinf(v) else round(v, 4)  # None: failed
                      for i, v in zip(tally.wall, walls)},
    }
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "op_p50_rel": (harness.p50(rels), "x"),
        "op_tail_rel": (tail_rel, "x"),
        "op_rss_tail_mb": (rss_tail, "MB"),
    }
    return tally, details, metrics


def traced(args, work, expected, spawner, variants, ops, known):
    import replay  # imports shellab from this checkout's src

    setup(work, variants, expected, spawner)
    startups = [spawner.run(["corpus", "--json"], work, work).wall_s
                for _ in range(5)]
    expected_ops = expected["ops"][args.workload]
    tally = Tally(ops)
    plain, tracer = replay.Tracer(enabled=False), replay.Tracer(enabled=True)
    child_s, plain_s = {}, {}
    for op in ops:
        result, _, reason = run_once(op, work, spawner, expected_ops[key(op, variants)])
        tally.add(op, result, reason)
        argv = op_args(op)
        plain_s[op.id] = replay.replay(plain, op.id, argv, work)
        replay.replay(tracer, op.id, argv, work)
        if reason is None:
            child_s[op.id] = result.wall_s

    # A known failure still fails when it crashes; one that stopped failing
    # has no recorded report and is held to theory alone.  Its spans go to a
    # tracer of their own, so that a crash's time stays out of the layer
    # times, and only its layer failures are counted.
    still_failing, known_tracer = {}, replay.Tracer(enabled=True)
    for op in known:
        _, seen, reason = run_once(op, work, spawner, None)
        if "crash" in seen:
            still_failing[op.id] = reason
        else:
            tally.attempted += 1
            if reason is not None:
                tally.failed += 1
                tally.failures[op.id] = reason
        replay.replay(known_tracer, op.id, op_args(op), work)

    metrics = replay.layer_metrics(tracer, known_tracer)
    metrics["known_failures.count"] = (len(still_failing), "count")
    metrics["cli.startup_s"] = (statistics.median(startups), "s")
    metrics["cli.overhead_frac"] = (statistics.median(
        1 - plain_s[i] / child_s[i] for i in child_s), "frac")
    traced_s = sum(tracer.op_time[i] for i in child_s)
    metrics["trace.overhead_frac"] = (traced_s / sum(plain_s[i] for i in child_s) - 1, "frac")
    spans_path = os.path.join(WORK, f"spans-{args.workload}-{args.seed}.json")
    with open(spans_path, "w") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "op", "error"],
                   "spans": tracer.spans, "known_failure_spans": known_tracer.spans}, fh)
    details = {"workload": args.workload, "seed": args.seed, "variants": variants,
               "ops_per_pass": len(ops), "spans": os.path.relpath(spans_path, ROOT),
               "failures": tally.failures, "known_failures": still_failing,
               **machine()}
    return tally, details, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    work = os.path.join(WORK, str(os.getpid()))
    try:
        if not os.path.isfile(os.path.join(SRC, "shellab", "cli.py")):
            raise BenchmarkError(f"no shellab sources under {SRC}")
        expected = load_expected()
        variants, ops, known = workloads.plan(args.workload, args.seed)
        with harness.Spawner(harness.child_env(SRC)) as spawner:
            if args.trace:
                tally, details, metrics = traced(args, work, expected, spawner,
                                                 variants, ops, known)
            else:
                timed = {op.family: variants[op.family] for op in ops}
                tally, details, metrics = end_to_end(args, work, expected, spawner,
                                                     timed, ops)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass

    print(json.dumps(details, sort_keys=True))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
