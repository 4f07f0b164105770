"""Starts the benchmark's processes one at a time and reports, for each, its
wall time, exit code and peak RSS.

    python3 -S perfbench/spawner.py

Linux counts the memory of the process that spawns a child in the child's
peak RSS.  The benchmark itself imports about as much as a ``jetframes``
process, so its children's peaks would all read as its own.  This process
imports next to nothing, so the peak it reports is the child's.

It reads one JSON request a line on stdin,

    {"argv": [...], "cpus": [...], "stdout": PATH, "stderr": PATH, "timeout": S}

and answers each with one JSON line on stdout,

    {"wall_s": ..., "code": ..., "maxrss_kb": ...}

The child runs on ``cpus``, with stdin from /dev/null and its output in the
two files.  A child still running after ``timeout`` seconds is killed, and
its code is then -9.  The process ends when its stdin is closed.
"""

import json
import os
import signal
import sys
import time


def main() -> None:
    child = 0

    def kill(*_):
        try:
            os.kill(child, signal.SIGKILL)
        except ProcessLookupError:  # it ended as the alarm rang
            pass

    signal.signal(signal.SIGALRM, kill)
    for line in sys.stdin:
        req = json.loads(line)
        os.sched_setaffinity(0, req["cpus"])
        files = [(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0)]
        for fd, key in ((1, "stdout"), (2, "stderr")):
            files.append((os.POSIX_SPAWN_OPEN, fd, req[key],
                          os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o600))
        start = time.perf_counter()
        child = os.posix_spawn(req["argv"][0], req["argv"], os.environ, file_actions=files)
        signal.alarm(req["timeout"])
        _, status, usage = os.wait4(child, 0)
        wall = time.perf_counter() - start
        signal.alarm(0)
        print(json.dumps({"wall_s": wall, "code": os.waitstatus_to_exitcode(status),
                          "maxrss_kb": usage.ru_maxrss}), flush=True)


if __name__ == "__main__":
    main()
