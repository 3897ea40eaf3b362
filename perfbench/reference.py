"""A fixed reference kernel that measures how fast the host runs right now.

The machine the benchmark runs on is shared, and its speed drifts: the same
CLI operation can take 1.3 s for half a minute and 2 s for the next.  The
kernel below is timed next to every operation, and the end-to-end cycle time
is reported in units of the kernel's time, so that drift common to both
cancels while a change to the program still shows in full (the kernel does
not touch the program).

The kernel mixes the three kinds of work the program does: pure-Python
arithmetic on a small dict, a breadth-first expansion that builds tuples
into a large dict (like ``mdpbuild``), and sparse matrix-vector sweeps (like
value iteration).  Its inputs are fixed, never drawn from the workload seed,
so its work is the same in every run and every commit.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse

_N = 40_000
_rng = np.random.default_rng(20111)
_MATRIX = scipy.sparse.csr_matrix(
    (_rng.random(240_000), (_rng.integers(0, _N, 240_000), _rng.integers(0, _N, 240_000))),
    shape=(_N, _N))
_FLOOR = _rng.random(_N) * 0.1
del _rng


def _arithmetic() -> float:
    table: dict = {}
    for i in range(90_000):
        key = (i % 977, i % 13)
        table[key] = table.get(key, 0.0) + i * 0.5
    return sum(table.values())


def _expansion() -> int:
    index: dict = {}
    edges = []
    frontier = [(0, 0, 0)]
    while frontier and len(index) < 13_000:
        state = frontier.pop()
        if state in index:
            continue
        index[state] = len(index)
        a, b, c = state
        for succ in (((a * 7 + 1) % 10_007, b ^ 1, c), (a, (b + 3) % 29, (c + 1) % 5)):
            edges.append((index[state], succ, 0.5))
            frontier.append(succ)
    return len(edges)


def _sweeps() -> float:
    x = np.ones(_N)
    for _ in range(50):
        x = np.maximum(_MATRIX @ x, _FLOOR)
        x /= x.max()
    return float(x.sum())


#: passes per measurement; the least of them is kept
PASSES = 2


def reference_seconds() -> float:
    """Wall time of one pass of the kernel, the least of ``PASSES`` passes.

    One pass takes about 0.1 s on a 2-core x86-64 host.  The first pass after
    an operation that returned its memory to the system also pays for page
    faults; the least of two passes leaves that out and keeps the host's
    speed.
    """
    times = []
    for _ in range(PASSES):
        start = time.perf_counter()
        _arithmetic()
        _expansion()
        _sweeps()
        times.append(time.perf_counter() - start)
    return min(times)
