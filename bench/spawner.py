"""The benchmark's client: starts request processes one at a time.

    python -I -S spawner.py

Reads one JSON job per line on stdin, ``{"cmd": [...], "cwd": DIR,
"timeout": SECONDS}``, runs ``cmd`` in DIR (which is also its HOME) with
stdin from /dev/null and stdout/stderr to DIR/stdout and DIR/stderr,
and answers one JSON line ``{"latency": s, "code": n, "timed_out": b,
"maxrss_kib": n}``.  The latency runs from spawn to exit.

A separate small process does the spawning because Linux folds the
resident size of the spawning process into the child's peak RSS at exec:
spawned from ``run.py``, which has imported ugl and holds the results,
every request would report the size of ``run.py``.  This process imports
only what it needs and stays smaller than any request.
"""

import json
import os
import signal
import sys
from time import perf_counter

_child = None
_timed_out = False


def _on_timeout(signum, frame):
    global _timed_out
    if _child is not None:
        _timed_out = True
        os.kill(_child, signal.SIGKILL)


def run(cmd, cwd, timeout):
    global _child, _timed_out
    _timed_out = False
    env = dict(os.environ, HOME=cwd)
    os.chdir(cwd)
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, "stdout", os.O_WRONLY | os.O_CREAT, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, "stderr", os.O_WRONLY | os.O_CREAT, 0o644),
    ]
    start = perf_counter()
    _child = os.posix_spawn(cmd[0], cmd, env, file_actions=actions)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    # wait without reaping, so a late timer can only hit a zombie
    os.waitid(os.P_PID, _child, os.WEXITED | os.WNOWAIT)
    latency = perf_counter() - start
    signal.setitimer(signal.ITIMER_REAL, 0)
    _, status, usage = os.wait4(_child, 0)
    _child = None
    return {"latency": latency, "code": os.waitstatus_to_exitcode(status),
            "timed_out": _timed_out, "maxrss_kib": usage.ru_maxrss}


def main():
    signal.signal(signal.SIGALRM, _on_timeout)
    for line in sys.stdin:
        job = json.loads(line)
        reply = run(job["cmd"], job["cwd"], job["timeout"])
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
