"""Run one command and print its wall time, CPU time, peak RSS and exit code as JSON.

    python3 launch.py TIMEOUT_S COMMAND [ARG ...]

The benchmark starts each CLI run through this small process rather than
directly. Linux records a vfork()ed child's peak RSS as at least its
parent's, and the benchmark process has held the generated inputs, so a
direct child would report the benchmark's memory instead of its own.
"""
import json
import os
import subprocess
import sys
import threading
import time


def main() -> int:
    timeout, command = float(sys.argv[1]), sys.argv[2:]
    start = time.perf_counter()
    proc = subprocess.Popen(command, stdout=subprocess.DEVNULL)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps({"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
                      "peak_rss_mb": usage.ru_maxrss / 1024.0, "code": proc.returncode}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
