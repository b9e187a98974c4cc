"""Child-process ops, the per-op correctness gate and the percentile rules.

An op is one ``python -m shellab.cli`` process.  Its wall time runs from
spawn to exit, and its memory is the peak RSS of that process alone, read
from ``os.wait4`` in ``spawner.py``: ``RUSAGE_CHILDREN`` would give a
running maximum over every child so far.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass

TRACEBACK = "Traceback (most recent call last)"
TAIL_BEYOND = 10  # the tail percentile keeps at least this many ops above it
# An op that has not exited by this wall-clock deadline is killed and fails.
# It keeps the traced run short, where a known failure (B_7 lc-check) crashes
# only after minutes, and no op that should succeed comes near it.
DEADLINE_S = 4.0
# The reference process: a bare interpreter start, isolated from the
# checkout and its environment; like an op, it spends its time starting up
# and importing.  Each op's time is divided by that of the reference run
# just before it.  On a shared 2-core Xeon host, over ten seeded runs a
# minute apart, percentiles of op time in seconds spread by 6-26% (IQR over
# median) and percentiles of these ratios by 3-8%.
REFERENCE_ARGV = (sys.executable, "-I", "-c", "pass")


@dataclass
class OpResult:
    wall_s: float
    rss_mb: float
    exit_code: int
    stdout: str
    stderr: str


def sha256(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def file_digest(path) -> str:
    with open(path, "rb") as fh:
        return sha256(fh.read())


def child_env(src_dir):
    """Environment of an op: the checkout's ``src`` alone on PYTHONPATH, so
    each checkout measures its own code, and bytecode cached as for an
    installed package whatever the caller's environment says."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath(src_dir)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


class Spawner:
    """Runs ops through ``spawner.py``, a process started before the
    benchmark grows, so each op's peak RSS is its own (see there)."""

    def __init__(self, env):
        self._proc = subprocess.Popen(
            [sys.executable, os.path.join(os.path.dirname(__file__), "spawner.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, text=True)

    def run(self, args, cwd, scratch, deadline_s=DEADLINE_S) -> OpResult:
        """Run ``shellab <args>`` in ``cwd``; output goes through ``scratch``."""
        return self.spawn([sys.executable, "-m", "shellab.cli", *args], cwd, scratch,
                          deadline_s)

    def reference(self, cwd, scratch) -> float:
        """Wall time of one reference process."""
        result = self.spawn(REFERENCE_ARGV, cwd, scratch, DEADLINE_S)
        if result.exit_code != 0:
            raise RuntimeError(f"reference process exited {result.exit_code}")
        return result.wall_s

    def spawn(self, argv, cwd, scratch, deadline_s) -> OpResult:
        out_path = os.path.join(scratch, "op.stdout")
        err_path = os.path.join(scratch, "op.stderr")
        request = {"argv": list(argv),
                   "cwd": os.path.abspath(cwd), "out": os.path.abspath(out_path),
                   "err": os.path.abspath(err_path), "deadline_s": deadline_s}
        self._proc.stdin.write(json.dumps(request) + "\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("spawner exited")
        reply = json.loads(line)
        with open(out_path, encoding="utf-8", errors="replace") as fh:
            stdout = fh.read()
        with open(err_path, encoding="utf-8", errors="replace") as fh:
            stderr = fh.read()
        return OpResult(reply["wall_s"], reply["rss_kb"] / 1024, reply["exit_code"],
                        stdout, stderr)

    def close(self):
        self._proc.stdin.close()
        self._proc.stdout.close()
        self._proc.wait()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def report_digest(report) -> str:
    """Digest of a report's verdicts and witnesses; ``timings`` holds work
    counters that may change, and ``inputs`` holds file paths."""
    payload = {"verdicts": report["verdicts"], "witnesses": report["witnesses"]}
    return sha256(json.dumps(payload, sort_keys=True))


def observe(result: OpResult, out_path=None) -> dict:
    """What the gate compares: exit code, report digest, output file digest.
    Returns a dict with a "crash" entry when there is no usable report."""
    if result.exit_code == -signal.SIGKILL:
        return {"crash": "killed at the deadline"}
    if TRACEBACK in result.stderr:
        last = result.stderr.strip().splitlines()[-1]
        return {"crash": f"traceback: {last}"}
    try:
        report = json.loads(result.stdout)
    except ValueError:
        return {"crash": f"no JSON report (exit {result.exit_code})"}
    if not isinstance(report, dict) or not {"verdicts", "witnesses"} <= report.keys():
        return {"crash": "report lacks verdicts or witnesses"}
    seen = {
        "exit": result.exit_code,
        "digest": report_digest(report),
        "verdicts": report["verdicts"],
    }
    if out_path is not None:
        seen["out"] = file_digest(out_path) if os.path.exists(out_path) else None
    return seen


def gate(seen: dict, expect: dict, record) -> str | None:
    """None when the op passes; otherwise the reason it failed.

    ``expect`` holds verdicts that theory fixes; ``record`` is the pinned
    exit code and digests, or None for a known failure, which then only has
    to agree with theory and exit 0 exactly when every verdict holds.
    """
    if "crash" in seen:
        return seen["crash"]
    for name, value in expect.items():
        if seen["verdicts"].get(name) is not value:
            return f"verdict {name} is {seen['verdicts'].get(name)}, theory says {value}"
    if record is None:
        want_exit = 0 if all(seen["verdicts"].values()) else 1
        if seen["exit"] != want_exit:
            return f"exit {seen['exit']}, verdicts say {want_exit}"
        return None
    for key in ("exit", "digest", "out"):
        if record.get(key) != seen.get(key):
            return f"{key} differs from the recorded one"
    return None


# -- percentiles -------------------------------------------------------

def op_value(samples):
    """One op's value over its repetitions: the median, or +inf when any
    repetition failed."""
    if any(math.isinf(s) for s in samples):
        return math.inf
    return statistics.median(samples)


def p50(values):
    """Median over ops; failed ops count as +inf."""
    return statistics.median(values)


def tail(values):
    """(value, percentile) of the highest percentile that still has at least
    TAIL_BEYOND values beyond it; failed ops count as +inf."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        raise ValueError(f"need more than {TAIL_BEYOND} ops for a tail, got {n}")
    rank = n - TAIL_BEYOND - 1
    return ordered[rank], 100.0 * (rank + 1) / n
