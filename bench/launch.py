"""Start commands one at a time and report each one's exit code, wall time
and peak RSS.

A child's ru_maxrss starts at the resident size of the process that
started it, so a command started straight from the benchmark worker (whose
heap holds the workload's inputs) would report the worker's size.  The
worker therefore starts its commands through this small process.

Protocol: one JSON request per line on stdin,
{"argv": [...], "cwd": ..., "stdout": path, "stderr": path, "timeout": s},
answered by one JSON line on stdout,
{"code": n, "wall_s": s, "cpu_s": user + system seconds, "rss_kb": n}.
The process exits when stdin closes.
"""

import json
import os
import signal
import subprocess
import sys
import threading
from time import perf_counter


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
            started = perf_counter()
            proc = subprocess.Popen(request["argv"], stdout=out, stderr=err,
                                    cwd=request["cwd"])
            # wait4 gives this child's own peak RSS; RUSAGE_CHILDREN would be
            # a running maximum over every child so far.
            timer = threading.Timer(request["timeout"], os.kill, (proc.pid, signal.SIGKILL))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = perf_counter() - started
            proc.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps({"code": proc.returncode, "wall_s": wall,
                          "cpu_s": usage.ru_utime + usage.ru_stime,
                          "rss_kb": usage.ru_maxrss}), flush=True)


if __name__ == "__main__":
    main()
