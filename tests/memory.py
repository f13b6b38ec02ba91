"""Memory measurements for tests, under ``tracemalloc``."""

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
