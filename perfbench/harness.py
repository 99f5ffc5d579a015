"""Measurement helpers: repeated timing, the heap walk and cold queries.

Timings are CPU seconds (user + system) of the process that does the
work: this process for in-process calls, the child for a cold query.
The work is single-threaded and CPU-bound, so CPU time is its wall time
less the spells in which a shared host withholds the processor, which
would otherwise be charged to whatever call was running. Reference
tracks the speed of the processor itself, which CPU time does not.
"""

from __future__ import annotations

import gc
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import process_time
from types import BuiltinFunctionType, FunctionType, MethodType, ModuleType


def timed(fn, collect: bool = True):
    """(CPU seconds, result) of one call, with the cyclic collector paused so
    a collection triggered by earlier garbage is not charged to fn. The
    garbage is collected first unless collect is false (short query
    batches, which leave little garbage)."""
    if collect:
        gc.collect()
    gc.disable()
    try:
        t0 = process_time()
        out = fn()
        return process_time() - t0, out
    finally:
        gc.enable()


class Reference:
    """A fixed pure-Python loop that calls nothing of sigraph, timed
    around the benchmark's own samples to track the host's speed.

    On a shared host the CPU-time speed of Python code swings in spells
    of seconds to minutes, and the loop's speed follows it. The scale of
    a sample is REFERENCE_S over the median time of the loop runs just
    before and just after it: a time multiplied by it, or a rate divided
    by it, reads as on a host where the loop takes REFERENCE_S. A change
    to sigraph does not move the loop, so the scale cancels the host and
    keeps the change.
    """

    REFERENCE_S = 0.005     # about the loop's CPU time on the 2-core VM tuned on
    RUNS = 3                # loop runs on each side of a sample

    def __init__(self):
        self.before: list[float] = []

    @staticmethod
    def loop() -> int:
        table = {}
        keys = list(range(256))
        acc = 0
        for i in range(16000):
            k = keys[i & 255]
            acc = (acc + ((k * 3) ^ (acc >> 3))) & 0xFFFFF
            table[k] = table.get(k, 0) + 1
        return acc

    def _runs(self) -> list[float]:
        out = []
        for _ in range(self.RUNS):
            t0 = process_time()
            self.loop()
            out.append(process_time() - t0)
        return out

    def start(self) -> None:
        """Time the loop before a sample."""
        self.before = self._runs()

    def scale(self) -> float:
        """Time the loop after a sample; the sample's scale. The runs
        after one sample serve as the runs before the next."""
        after = self._runs()
        scale = self.REFERENCE_S / statistics.median(self.before + after)
        self.before = after
        return scale


def repeat(fn, min_total_s: float, max_reps: int, on_result):
    """Call fn until min_total_s has been timed, at least once and at
    most max_reps times; on_result checks every result, outside the
    timing. Returns (every time, last result)."""
    times = []
    out = None
    while not times or (len(times) < max_reps and sum(times) < min_total_s):
        dt, out = timed(fn)
        times.append(dt)
        on_result(out)
    return times, out


_NOT_OWNED = (type, ModuleType, FunctionType, BuiltinFunctionType, MethodType)


def deep_bytes(root) -> int:
    """Bytes of every object reachable from root, each counted once.

    A referent walk with sys.getsizeof; classes, modules and functions are
    shared code, not data the structure holds, so the walk stops there.
    """
    seen = set()
    stack = [root]
    total = 0
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, _NOT_OWNED):
            continue
        seen.add(id(obj))
        total += sys.getsizeof(obj)
        stack.extend(gc.get_referents(obj))
    return total


class ColdQuery:
    """Fresh-interpreter timings against the checkout's own ``src``.

    The child gets PYTHONPATH=<root>/src and runs from the checkout root,
    so it imports the same sources the benchmark process measured.
    """

    def __init__(self, root: Path):
        self.root = root
        self.src = root / "src"
        self.env = dict(os.environ, PYTHONPATH=str(self.src))

    def _run(self, argv) -> tuple[float, subprocess.CompletedProcess]:
        """(CPU seconds of the child, finished process); run() waits for
        the child, so its usage is in RUSAGE_CHILDREN on return."""
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        proc = subprocess.run(
            [sys.executable, *argv], cwd=self.root, env=self.env,
            capture_output=True, text=True, timeout=120,
        )
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
        return cpu, proc

    def check_import_path(self) -> tuple[float, float]:
        """CPU seconds for ``python -c pass`` and for importing sigraph.cli;
        raises unless the child imported sigraph.cli from <root>/src."""
        interp, proc = self._run(["-c", "pass"])
        if proc.returncode:
            raise RuntimeError(f"interpreter start failed: {proc.stderr.strip()}")
        imp, proc = self._run(["-c", "import sigraph.cli; print(sigraph.cli.__file__)"])
        if proc.returncode:
            raise RuntimeError(f"child could not import sigraph.cli: {proc.stderr.strip()}")
        where = Path(proc.stdout.strip()).resolve()
        if self.src.resolve() not in where.parents:
            raise RuntimeError(f"child imported sigraph.cli from {where}, not {self.src}")
        return interp, imp

    def query(self, blob_path: Path, argv) -> tuple[float, str | None]:
        """CPU seconds for ``python -m sigraph.cli query <blob> ...`` and its
        stdout, or None when the process failed."""
        dt, proc = self._run(["-m", "sigraph.cli", "query", str(blob_path), *argv])
        return dt, (proc.stdout.strip() if proc.returncode == 0 else None)

