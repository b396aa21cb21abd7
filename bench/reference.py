"""Reference kernels: the benchmark's yardstick for the machine's speed.

The virtual CPU the benchmark was tuned on changes speed by up to half over
seconds to minutes (the same fixed computation took 28 ms at one time and
44 ms a few minutes later), and no filtering inside a 30-second run removes
a slow period that lasts the whole run.  So the benchmark times a fixed reference
computation next to every job, and reports each job's time scaled by
``nominal / reference time``: seconds at the speed the machine had when the
reference took its nominal time.

A slow period does not slow every kind of code alike: it slowed pure
interpreter loops more than loops over mid-sized numpy arrays.  So each
workload's reference mimics the kind of work its jobs do, with the
benchmark's own code, which no change to the program touches:

* ``minmax``: rows of the min-max combine of two tables at K = 160, the
  shape of the series-parallel scheme's parallel combine;
* ``scalar``: interpreter loops over a small graph (scalar delays, a
  Dijkstra with a heap, a bisection) with small numpy vectors and a small
  linear solve, the shape of Frank-Wolfe and of the path engine;
* ``batched``: closed-form arithmetic over arrays of some 10^5 rows, the
  shape of the oracle's batched mode.
"""

from __future__ import annotations

import heapq
import time

import numpy as np

_RNG = np.random.default_rng(20260101)
_A = _RNG.random((161, 161))
_B = _RNG.random((161, 161))
_GRAPH = {u: {(u + 1) % 24: 1.0 + u % 3, (u + 5) % 24: 2.5, (u + 11) % 24: 4.0}
          for u in range(24)}
_M = _RNG.random((5, 5)) + 5.0 * np.eye(5)
_GRID = _RNG.random((120_000, 3))


def minmax():
    A, B = _A, _B
    K = A.shape[0] - 1
    out = 0.0
    for k in (K // 4, K // 2, 3 * K // 4, K):  # rows of every size
        a = A[:k + 1]
        b = B[k::-1]
        for l in range(K + 1):
            cand = np.maximum(a[:, :l + 1], b[:, l::-1])
            out += cand.flat[int(np.argmin(cand))]
    return out


def _dijkstra(weights):
    dist = {0: 0.0}
    heap = [(0.0, 0)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist.get(u, np.inf):
            continue
        for w, c in _GRAPH[u].items():
            nd = d + c * weights[w % 6]
            if nd < dist.get(w, np.inf):
                dist[w] = nd
                heapq.heappush(heap, (nd, w))
    return dist[len(_GRAPH) - 1]


def scalar():
    x = np.full(6, 0.5)
    total = 0.0
    for it in range(60):
        grad = np.zeros(6)
        for t in range(6):
            v = float(x[t])
            grad[t] = 2.0 * v / (1.0 + t) + 0.1 * t
            total += (v / (1.0 + t)) ** 2
        weights = [float(g) for g in grad]
        total += _dijkstra(weights)
        lo, hi = 0.0, 1.0
        for _ in range(25):
            mid = 0.5 * (lo + hi)
            if (mid - 0.3) * float(grad @ x) > 0.0:
                hi = mid
            else:
                lo = mid
        step = np.linalg.solve(_M, grad[:5])
        x[:5] = np.abs(x[:5] - 0.01 * step) % 1.0
        x[5] = (lo + it * 0.01) % 1.0
    return total


def batched():
    g = _GRID
    c = 0.2 + g[:, 0]
    b = g[:, 1] * 2.0
    order = np.argsort(b)
    cs = np.cumsum(c[order])
    level = (3.0 + np.cumsum((c * b)[order])) / cs
    return float(np.minimum(level, b[order] + g[order, 2]).sum())


# The kernels each workload's reference runs, with their repetitions.
MIXES = {
    "certify-affine": (("scalar", 4), ("batched", 1)),
    "oracle-general": (("scalar", 4), ("batched", 1)),
    "fptas-sp": (("minmax", 3),),
}
KERNELS = {"minmax": minmax, "scalar": scalar, "batched": batched}

# The references' time in seconds at the nominal speed: a round figure near
# their time on a 2-vCPU Intel Xeon virtual machine (2.0 GHz, Python 3.11,
# numpy 2.4), where each took from 0.02 to 0.045 s as the speed drifted.
NOMINAL = 0.040


def run(workload):
    """Run the workload's reference once; returns its time in seconds."""
    mix = [(KERNELS[name], reps) for name, reps in MIXES[workload]]
    started = time.perf_counter()
    for kernel, reps in mix:
        for _ in range(reps):
            kernel()
    return time.perf_counter() - started
