"""Host-speed normalisation of the end-to-end times.

On a shared host the same work takes up to twice as long while the
neighbours on the same cores are busy, for stretches of seconds to
minutes, so raw wall times of one build spread by more than any useful
bound.  Every timed stage is therefore measured together with a fixed
pure-Python probe and reported in *reference seconds*: its raw time,
times a reference probe time over the probe time measured with it.  A
slow stretch of the host slows the stage and the probe alike and
cancels; a change to the program moves the stage, not the probe, and
moves the reported time by the same share as the raw time.

How the probe is measured depends on the stage:

- :func:`timed`, for a stage in this process (under a few seconds):
  the probe runs just before and just after it, all on one vCPU, and
  the probe time is the mean of the two.
- :func:`timed_pool`, for a stage of a worker pool: the pool runs on
  both vCPUs, whose speeds change independently, for up to half a
  minute, which two probes on one vCPU do not follow.  A child process
  runs the probe every :data:`SAMPLE_EVERY_S` for as long as the stage
  lasts, landing on whichever vCPU is free first, and the probe time is
  the mean of those samples without the slowest tenth (a sample the
  scheduler cut off).
"""

from __future__ import annotations

import json
import os
import select
import statistics
import subprocess
import sys
import time

#: The probe's time on the 2-vCPU development host while its neighbours
#: were quiet, measured both ways: a reported time reads as seconds on
#: that host, then.
REFERENCE_S = 3.5e-4
POOL_REFERENCE_S = 4.8e-4
SAMPLE_EVERY_S = 0.05


def _kernel() -> int:
    """Breadth-first search over a small grid with obstacles: dict, set,
    tuple and list work, like the program's own Python."""
    grid = {(i, j): (i * 31 + j * 17) % 11 for i in range(20) for j in range(20)}
    frontier, seen = [(0, 0)], {(0, 0)}
    while frontier:
        following = []
        for i, j in frontier:
            for cell in ((i + 1, j), (i, j + 1), (i - 1, j), (i, j - 1)):
                if cell in grid and cell not in seen and grid[cell] != 3:
                    seen.add(cell)
                    following.append(cell)
        frontier = sorted(following)
    return len(seen)


def _kernel_s() -> float:
    started = time.perf_counter()
    _kernel()
    return time.perf_counter() - started


def probe_s(repeats: int = 10) -> float:
    """The fastest of ``repeats`` runs of the probe (under a millisecond
    each)."""
    return min(_kernel_s() for _ in range(repeats))


def timed(samples: list, fn, /, *args, **kwargs):
    """Call ``fn`` between two probes, append ``(raw seconds, reference
    seconds)`` to ``samples`` and return its result.  The three run on
    one vCPU (as do processes ``fn`` starts): the two vCPUs' speeds
    change independently, so a probe on the other one says nothing."""
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        before = probe_s()
        started = time.perf_counter()
        result = fn(*args, **kwargs)
        raw = time.perf_counter() - started
        after = probe_s()
    finally:
        os.sched_setaffinity(0, allowed)
    samples.append((raw, raw * REFERENCE_S * 2 / (before + after)))
    return result


def timed_pool(samples: list, fn, /, *args, **kwargs):
    """Call ``fn`` (which runs a worker pool) while a child process
    samples the probe, append ``(raw seconds, reference seconds)`` to
    ``samples`` and return its result."""
    sampler = subprocess.Popen(
        [sys.executable, __file__], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
    )
    try:
        sampler.stdout.readline()  # warmed up and sampling
        started = time.perf_counter()
        result = fn(*args, **kwargs)
        raw = time.perf_counter() - started
    finally:
        out, _ = sampler.communicate("")
    times = sorted(json.loads(out))
    probe = statistics.fmean(times[: max(1, len(times) * 9 // 10)])
    samples.append((raw, raw * POOL_REFERENCE_S / probe))
    return result


def _sample_until_stdin_closes() -> None:
    """The child of :func:`timed_pool`: one probe every
    ``SAMPLE_EVERY_S`` and one at the end; prints their times."""
    for _ in range(10):
        _kernel()
    print("sampling", flush=True)
    times = []
    while not select.select([sys.stdin], [], [], SAMPLE_EVERY_S)[0]:
        times.append(_kernel_s())
    times.append(_kernel_s())
    print(json.dumps(times))


def median_raw(samples: list) -> float:
    return statistics.median(raw for raw, _ in samples)


def median_reference(samples: list) -> float:
    return statistics.median(reference for _, reference in samples)


if __name__ == "__main__":
    _sample_until_stdin_closes()
