"""Run one benchmark workload: ``python3 perfbench/run.py --workload <name>
--seed <n> --seconds <s> --trace <0|1>`` from the repository root.

The workload runs in a fresh interpreter whose environment has no
``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` or ``MKL_NUM_THREADS``, so
the numbers reflect the program's own thread policy rather than the
caller's shell.  The last line of standard output is the result JSON.
Exits non-zero, printing no result, when the program's sources are
missing or the workload fails or overruns its time limit.

The workload gets a session of its own, and this script adopts its
orphans (``PR_SET_CHILD_SUBREAPER``).  Whatever way the workload ends,
nothing it started outlives this script: the workload's process tree
(detector workers, the HTTP server, multiprocessing's resource tracker)
is given a few seconds to exit by itself, then killed, and every
process is waited for.  An overrun or interrupted workload gets SIGINT
first, so it shuts its pools down and unlinks its shared memory.
"""

from __future__ import annotations

import ctypes
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Thread-count variables removed from the workload's environment.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: The whole run, training and set-up included, must end within this.
TIME_LIMIT_S = 165.0

#: After the workload exits, its leftover processes get this long to end
#: on their own before they are killed.
GRACE_S = 5.0

#: ``prctl`` option that makes orphaned descendants this process's children.
PR_SET_CHILD_SUBREAPER = 36


def become_subreaper() -> None:
    """Adopt orphaned descendants, so they can be waited for."""
    ctypes.CDLL(None).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)


def session_members(sid: int) -> list[int]:
    """Live (non-zombie) processes of session ``sid``, read from ``/proc``."""
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                stat = f.read()
        except OSError:  # ended while we looked
            continue
        # After the parenthesised command: state, ppid, pgrp, session, ...
        fields = stat.rsplit(")", 1)[1].split()
        if int(fields[3]) == sid and fields[0] not in "ZX":
            pids.append(int(entry))
    return pids


def reap() -> None:
    """Collect every child that has ended, adopted orphans included."""
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def stop_session(sid: int, interrupt: bool) -> None:
    """Wait up to ``GRACE_S`` for session ``sid`` to end, then kill what
    is left; return once no process of the session is alive.  With
    ``interrupt``, the session's process group gets SIGINT first."""
    if interrupt:
        try:
            os.killpg(sid, signal.SIGINT)
        except ProcessLookupError:
            pass
    deadline = time.monotonic() + GRACE_S
    while True:
        reap()
        left = session_members(sid)
        if not left:
            return
        if time.monotonic() >= deadline:
            for pid in left:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        time.sleep(0.01)


def on_signal(signum: int, _frame) -> None:
    raise SystemExit(128 + signum)


def main(argv: list[str]) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    become_subreaper()
    signal.signal(signal.SIGTERM, on_signal)
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env["PYTHONPATH"] = str(ROOT / "src")
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "workloads.py"), *argv],
        cwd=ROOT, env=env, start_new_session=True)
    interrupt = True
    try:
        code = proc.wait(timeout=TIME_LIMIT_S)
        interrupt = False
    except subprocess.TimeoutExpired:
        print(f"perfbench: workload exceeded {TIME_LIMIT_S:g} s",
              file=sys.stderr)
        code = 3
    finally:
        stop_session(proc.pid, interrupt)
        proc.wait()
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
