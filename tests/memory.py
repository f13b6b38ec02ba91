"""Memory measurements for tests: allocations under ``tracemalloc``, and
the peak resident set size of a ``derhamkit`` child process."""

import subprocess
import sys
import time
import tracemalloc
from typing import Any, Callable, NamedTuple


class Traced(NamedTuple):
    value: Any  # what ``fn`` returned
    held: int  # bytes allocated during the call and still alive after it
    peak: int  # largest number of bytes allocated during the call at one time


def traced_peak(fn: Callable[[], Any]) -> Traced:
    """Run ``fn()`` under tracemalloc, which counts only the allocations
    made while it runs."""
    tracemalloc.start()
    try:
        value = fn()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return Traced(value, held, peak)


class ChildRun(NamedTuple):
    returncode: int
    out: str  # standard output and standard error, interleaved
    elapsed: float  # wall seconds from start to exit
    peak_mb: float  # the child's own peak resident set size


# Forks the command line from a fresh interpreter, waits for it with
# os.wait4 and prints its peak RSS, in kilobytes, as the last line.
_LAUNCHER = """
import os, sys
pid = os.fork()
if not pid:
    os.execv(sys.executable, [sys.executable, "-m", "derhamkit.cli", *sys.argv[1:]])
_, status, usage = os.wait4(pid, 0)
print(f"\\n{usage.ru_maxrss}", flush=True)
sys.exit(os.waitstatus_to_exitcode(status))
"""


def run_cli(*args: str) -> ChildRun:
    """Run ``python -m derhamkit.cli *args`` in a child process and measure
    its peak RSS with ``os.wait4``.

    On Linux, exec carries the peak RSS of the address space it replaces
    into the maxrss of the new program, and a child spawned from this
    process runs in this process's address space until it execs.  So the
    command line is forked from a small launcher instead, whose own peak
    RSS is below that of any command line run.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", _LAUNCHER, *args],
                            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    out, _ = proc.communicate()
    elapsed = time.perf_counter() - t0
    out, _, peak_kb = out.rstrip("\n").rpartition("\n")
    return ChildRun(proc.returncode, out, elapsed, int(peak_kb) / 1024)
