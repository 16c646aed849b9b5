"""Spawns the benchmark's CLI invocations and reports wall time and peak RSS.

On Linux a child's ``ru_maxrss`` starts from the resident size of the
process that spawned it (the spawning mm's high-water mark is carried
across ``exec``). ``run.py`` grows to tens of MB while it generates the
corpora, so it spawns every timed command through this small process.

Protocol: one JSON request per stdin line, ``{"argv": [...], "stdout":
path, "stderr": path}``; one JSON reply per stdout line, ``{"exit": int,
"wall_s": float, "maxrss_kib": int}``. The process exits when stdin closes.
"""

import json
import os
import subprocess
import sys
import threading
import time

CHILD_TIMEOUT_S = 120


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
            started = time.perf_counter()
            proc = subprocess.Popen(request["argv"], stdout=out, stderr=err)
            watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {"exit": proc.returncode, "wall_s": wall, "maxrss_kib": usage.ru_maxrss}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
