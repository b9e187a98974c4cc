"""Regenerate ``expected.json``: the digest of every input file variant and
the exit code and report digests of every op on every variant.

    python3 perfbench/record.py

Run it only when the benchmark's inputs or ops change, never to make a
changed ``src/`` pass: the recorded reports are what the gate holds later
code to.  Every timed op must pass the theorem-level checks here, and
every known failure must still crash.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run
from run import harness, workloads


def main():
    inputs, ops_record = {}, {}
    with harness.Spawner(harness.child_env(run.SRC)) as spawner:
        for workload in sorted(workloads.WORKLOADS):
            ops_record[workload] = record_workload(spawner, workload, inputs)
    shutil.rmtree(run.WORK, ignore_errors=True)
    with open(run.EXPECTED, "w") as fh:
        json.dump({"inputs": inputs, "ops": ops_record}, fh, indent=1, sort_keys=True)
        fh.write("\n")


def record_workload(spawner, workload, inputs):
    groups = workloads.op_groups(workload)
    ops = [op for group in groups for op in group]
    known = workloads.KNOWN_FAILURES[workload]
    records = {}
    for variant in range(workloads.VARIANTS):
        variants = {fam: variant for fam in workloads.families(groups + [known])}
        work = run.fresh_dir(os.path.join(run.WORK, "record"))
        inputs.update(run.write_inputs(work, variants))
        for op in ops + known:
            result, seen, reason = run.run_once(op, work, spawner, None)
            print(f"{workload} v{variant} {result.wall_s:6.2f}s {op.id}: "
                  f"{reason or 'ok'}", flush=True)
            if op in known:
                if "crash" not in seen:
                    sys.exit(f"{op.id} is listed as a known failure but did not crash")
                continue
            if reason is not None:
                sys.exit(f"{op.id} failed: {reason}")
            records[run.key(op, variants)] = {
                k: seen[k] for k in ("exit", "digest", "out") if k in seen}
    return records


if __name__ == "__main__":
    main()
