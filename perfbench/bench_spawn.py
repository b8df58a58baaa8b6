"""Small launcher that starts and measures the benchmark's child processes.

A child's peak RSS as ``wait4`` reports it is never below the resident size
of the process it was forked from, so children are not started from the
benchmark process, which holds the generated inputs in memory. The benchmark
starts this launcher first, while it is still small, and sends it one JSON
request per line on stdin:

    {"argv": [...], "cwd": "...", "env": {...}, "timeout": 60.0, "log": "..."}

For each request it runs the command to completion (killing it at the
timeout) and answers with one JSON line:

    {"wall_s": ..., "cpu_s": ..., "peak_rss_mb": ..., "exit_code": ..., "timed_out": ...}

It imports nothing beyond the standard library and exits at end of input.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(request: dict) -> dict:
    killed = threading.Event()
    with open(request["log"], "ab") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(
            request["argv"], cwd=request["cwd"], env=request["env"], stdout=log, stderr=log
        )

        def kill() -> None:
            killed.set()
            proc.kill()

        timer = threading.Timer(request["timeout"], kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "exit_code": proc.returncode,
        "timed_out": killed.is_set(),
    }


def main() -> None:
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
