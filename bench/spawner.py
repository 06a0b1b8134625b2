"""Start the benchmark's child processes from a small process of its own.

A child's peak resident memory (ru_maxrss) also counts the memory of the
process that started it, up to the exec. The benchmark holds large
reference tables, so it starts its CLI children through this process,
which stays small. Protocol, one JSON line each way per command:

    request  {"argv": [...], "stdout": PATH}
    reply    {"code": int, "started": t0, "seconds": s, "maxrss_kb": kb}

The child's standard output goes to PATH; `started` is the
time.perf_counter() reading just before the child is started, and
`seconds` its wall time until it has been reaped.
"""

import json
import os
import subprocess
import sys
import time


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["stdout"], "wb") as out:
            started = time.perf_counter()
            child = subprocess.Popen(request["argv"], stdout=out)
            _, status, usage = os.wait4(child.pid, 0)
            seconds = time.perf_counter() - started
        child.returncode = code = os.waitstatus_to_exitcode(status)
        reply = {"code": code, "started": started, "seconds": seconds, "maxrss_kb": usage.ru_maxrss}
        print(json.dumps(reply), flush=True)


if __name__ == "__main__":
    main()
