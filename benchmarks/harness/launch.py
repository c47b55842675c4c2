"""Run ``argv`` from a small process and report its wall and rusage.

Linux folds the pre-exec address space into a child's ``ru_maxrss``, so a
child forked from the (large, NumPy-laden) harness would report the
harness's RSS as its own peak.  Forked from this stdlib-only launcher the
floor is a few MiB, below anything it measures.

usage: python -S launch.py LOGFILE ARGV...   ->  one JSON line on stdout
"""

import json
import os
import subprocess
import sys
import time

if __name__ == "__main__":
    with open(sys.argv[1], "w") as log:
        t0 = time.perf_counter()
        child = subprocess.Popen(sys.argv[2:], stdout=log, stderr=subprocess.STDOUT)
        _, status, usage = os.wait4(child.pid, 0)
        wall = time.perf_counter() - t0
    child.returncode = status
    print(json.dumps({
        "wall_s": wall,
        "status": status,
        "rss_mb": usage.ru_maxrss / 1024.0,  # ru_maxrss is KiB on Linux
        "cpu_s": usage.ru_utime + usage.ru_stime,
    }))
