"""Small helper process that starts and reaps the program under test.

On Linux a child's peak resident size (``ru_maxrss``) starts from the peak
of the process that spawned it, because exec keeps the old address space's
high-water mark. The benchmark process grows large (references, logs,
outputs), so it starts the program through this process instead, which stays
small. Protocol: one JSON object per line on stdin, one reply per line on
stdout.

    {"op": "start", "argv": [...], "env": {...}, "cwd": DIR, "stdout": PATH|null, "stderr": PATH,
     "cpu": N}                              -> {"pid": N}, the process bound to CPU "cpu"
    {"op": "poll", "pid": N}                -> {"code": C or null while it runs}
    {"op": "wait", "pid": N, "timeout": S}  -> {"code": C, "peak_rss_mb": X}

End of input kills whatever is still running and exits.
"""

import json
import os
import subprocess
import sys
import time


def main() -> None:
    children = {}
    try:
        for line in sys.stdin:
            request = json.loads(line)
            if request["op"] == "start":
                out = open(request["stdout"], "wb") if request["stdout"] else subprocess.DEVNULL
                with open(request["stderr"], "ab") as err:
                    cpus = {request["cpu"]}
                    proc = subprocess.Popen(request["argv"], env=request["env"], cwd=request["cwd"],
                                            stdout=out, stderr=err,
                                            preexec_fn=lambda: os.sched_setaffinity(0, cpus))
                if out is not subprocess.DEVNULL:
                    out.close()
                children[proc.pid] = proc
                reply = {"pid": proc.pid}
            elif request["op"] == "poll":
                # WNOWAIT leaves the child to be reaped, with its rusage, by "wait"
                info = os.waitid(os.P_PID, request["pid"], os.WEXITED | os.WNOHANG | os.WNOWAIT)
                reply = {"code": None if info is None else info.si_status}
            else:
                proc = children.pop(request["pid"])
                deadline = time.monotonic() + request["timeout"]
                while True:
                    pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                    if pid == proc.pid:
                        break
                    if time.monotonic() > deadline:
                        proc.kill()
                        deadline = time.monotonic() + 10.0
                    time.sleep(0.005)
                proc.returncode = os.waitstatus_to_exitcode(status)
                reply = {"code": proc.returncode, "peak_rss_mb": usage.ru_maxrss / 1024.0}
            sys.stdout.write(json.dumps(reply) + "\n")
            sys.stdout.flush()
    finally:
        for proc in children.values():
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    main()
