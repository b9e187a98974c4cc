"""Spawns ops on request and reports each one's wall time, peak RSS and exit.

Reads one JSON request per line on stdin, ``{"argv", "cwd", "out", "err",
"deadline_s"}``, and answers each with one JSON line ``{"wall_s", "rss_kb",
"exit_code"}``.  Linux counts the spawning process's peak RSS in a child's
``ru_maxrss``, so ops are spawned from this small process rather than from
the benchmark, whose memory grows with its inputs and in-process replays.
Each child is waited for with ``os.wait4`` and killed (exit code -9) if it
runs past its deadline.
"""

import json
import os
import signal
import subprocess
import sys
import time


def spawn(argv, cwd, out_path, err_path, deadline_s):
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                cwd=cwd)
        # The alarm interrupts wait4 before the child is reaped, so the pid
        # it kills is still this child's.
        signal.signal(signal.SIGALRM, lambda *_: proc.kill())
        signal.setitimer(signal.ITIMER_REAL, deadline_s)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped above
    return {"wall_s": wall, "rss_kb": usage.ru_maxrss, "exit_code": proc.returncode}


def main():
    for line in sys.stdin:
        req = json.loads(line)
        reply = spawn(req["argv"], req["cwd"], req["out"], req["err"], req["deadline_s"])
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
