"""Host speed probe.

The reference host (2 shared vCPUs) runs the same Python code up to ~2x
slower for stretches of seconds to minutes, depending on load outside the
container.  Whole runs land in one state or the other, so raw wall times
of the same code spread by 30-40% between runs, more than any bound the
benchmark may set.  The harness therefore times this probe, a fixed piece
of pure-Python exact arithmetic and dictionary/set graph work that uses no
``ocsg`` code, next to every operation, and scales each operation's wall
time by ``REFERENCE_S / probe time``: the result reads as seconds on the
reference host when it is unloaded.  A slower program still reads slower,
because the probe does not change with the program.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

# Probe time on the reference host (CPython 3.11, unloaded).
REFERENCE_S = 0.00125

_MATRIX = [[Fraction((i * 7 + j * 3) % 11 + 13 * (i == j), (i + j) % 5 + 1) for j in range(8)] for i in range(8)]
_GRAPH = {v: ((v * 7 + 1) % 300, (v * 13 + 5) % 300, (v + 1) % 300) for v in range(300)}


def probe() -> float:
    """Seconds the fixed probe work takes right now."""
    t0 = perf_counter()
    a = [row[:] for row in _MATRIX]
    for k in range(8):
        for i in range(k + 1, 8):
            f = a[i][k] / a[k][k]
            for j in range(k, 8):
                a[i][j] -= f * a[k][j]
    for root in range(0, 300, 30):
        seen, frontier = {root}, [root]
        while frontier:
            nxt = []
            for v in frontier:
                for w in _GRAPH[v]:
                    if w not in seen:
                        seen.add(w)
                        nxt.append(w)
            frontier = nxt
    return perf_counter() - t0


def scale(seconds: float, probes) -> float:
    """``seconds`` of wall time as reference-host seconds, given the probe
    times measured around it (their mean without the highest and lowest,
    since the host can change state within a long operation)."""
    probes = sorted(probes)
    if len(probes) > 2:
        probes = probes[1:-1]
    return seconds * REFERENCE_S * len(probes) / sum(probes)
