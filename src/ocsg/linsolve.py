"""Exact sparse linear solving by Fraction elimination with Markowitz pivots.

A system is given as rows, one ``dict`` per equation mapping a column to
its nonzero coefficient.  ``factor`` eliminates the matrix once: it picks
the live column with the fewest nonzeros and, within it, the row with the
fewest nonzeros, and eliminates that column from the other live rows only.
Singleton columns go first, so a block-triangular system (a transient
chain) needs almost no elimination, and fill-in stays local.
No fraction-free (Bareiss) scaling is used: it multiplies every remaining
row at every step and destroys sparsity.

The returned ``Factorization`` records, for each pivot, its column, its
row (as left after the earlier steps) and the multipliers it applied to
the other live rows.  ``solve(rhs)`` replays those row operations on a
right-hand side and back-substitutes; ``solve_transposed(rhs)`` solves
A^T y = rhs with the same record: a forward pass over the pivot rows in
pivot order, then the multipliers replayed in reverse.  So one elimination
serves any number of right-hand sides, and a system and its transpose.

``solve_linear_system`` is ``factor(rows).solve(rhs)`` plus a certificate:
|det| of the integer matrix obtained by scaling each row, right-hand side
included, by the lcm of its denominators, that is |product of pivots|
times the product of those row lcms.  Every solution denominator divides
it.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from math import lcm, prod


class SingularMatrixError(ValueError):
    pass


@dataclass(frozen=True)
class Factorization:
    """One elimination of an n x n matrix, replayable on right-hand sides.

    Each step is (pivot column c, pivot row index p, pivot row, [(row index,
    multiplier)]); the pivot row is final, with c and later pivot columns
    only.
    """

    n: int
    steps: list[tuple[int, int, dict[int, Fraction], list[tuple[int, Fraction]]]]

    def _rhs(self, rhs) -> list[Fraction]:
        if len(rhs) != self.n:
            raise ValueError("square system expected")
        return [r if type(r) is Fraction else Fraction(r) for r in rhs]

    def solve(self, rhs) -> list[Fraction]:
        """x with A x = rhs."""
        b = self._rhs(rhs)
        for _, p, _, multipliers in self.steps:
            bp = b[p]
            if bp:
                for i, f in multipliers:
                    b[i] -= f * bp
        x: list[Fraction] = [Fraction(0)] * self.n
        for c, p, row, _ in reversed(self.steps):
            s = b[p]
            for j, a in row.items():
                if j != c:
                    s -= a * x[j]
            x[c] = s / row[c]
        return x

    def solve_transposed(self, rhs) -> list[Fraction]:
        """y with A^T y = rhs.

        The elimination is E A = R, where E is the product of the recorded
        row operations and R holds the pivot rows.  A^T y = rhs is R^T z =
        rhs, lower triangular in pivot order, followed by y = E^T z.
        """
        d = self._rhs(rhs)
        z: list[Fraction] = [Fraction(0)] * self.n
        for c, p, row, _ in self.steps:
            zp = z[p] = d[c] / row[c]
            if zp:
                for j, a in row.items():
                    if j != c:
                        d[j] -= a * zp
        for _, p, _, multipliers in reversed(self.steps):
            s = z[p]
            for i, f in multipliers:
                zi = z[i]
                if zi:
                    s -= f * zi
            z[p] = s
        return z


def factor(rows) -> Factorization:
    """Eliminate the square matrix whose ``rows[i]`` maps column j to A[i][j].

    ``rows`` is not modified.  Raises SingularMatrixError when the matrix
    is singular.
    """
    n = len(rows)
    live: list[dict[int, Fraction]] = []
    col_rows: list[set[int]] = [set() for _ in range(n)]
    for i, row in enumerate(rows):
        entries = {j: a if type(a) is Fraction else Fraction(a) for j, a in row.items() if a}
        if any(not 0 <= j < n for j in entries):
            raise ValueError("square system expected")
        live.append(entries)
        for j in entries:
            col_rows[j].add(i)

    heap = [(len(col_rows[j]), j) for j in range(n)]
    heapq.heapify(heap)
    done = [False] * n
    steps = []
    while heap:
        count, c = heapq.heappop(heap)
        if done[c] or count != len(col_rows[c]):
            continue  # stale entry: the column was eliminated or its count changed
        if not count:
            raise SingularMatrixError(f"no pivot in column {c}")
        done[c] = True
        p = min(col_rows[c], key=lambda i: (len(live[i]), i))
        pivot_row = live[p]
        pivot = pivot_row[c]
        for j in pivot_row:
            col_rows[j].discard(p)
        rest = [(j, a) for j, a in pivot_row.items() if j != c]
        multipliers = []
        for i in col_rows[c]:
            row = live[i]
            f = row.pop(c) / pivot
            multipliers.append((i, f))
            for j, a in rest:
                if j in row:
                    v = row[j] - f * a
                    if v:
                        row[j] = v
                    else:
                        del row[j]
                        col_rows[j].discard(i)
                else:
                    row[j] = -f * a
                    col_rows[j].add(i)
        for j, _ in rest:
            heapq.heappush(heap, (len(col_rows[j]), j))
        steps.append((c, p, pivot_row, multipliers))
    return Factorization(n, steps)


def solve_linear_system(rows, rhs) -> tuple[list[Fraction], int]:
    """Solve ``A x = rhs`` exactly, where ``rows[i]`` maps column j to A[i][j].

    Returns ``(x, certificate)`` with the certificate described in the
    module docstring.  Raises SingularMatrixError when the system is not
    uniquely solvable.
    """
    if len(rhs) != len(rows):
        raise ValueError("square system expected")
    factorization = factor(rows)
    x = factorization.solve(rhs)
    scale = prod(
        lcm(Fraction(r).denominator, *(Fraction(a).denominator for a in row.values())) for row, r in zip(rows, rhs)
    )
    pivots = prod((row[c] for c, _, row, _ in factorization.steps), start=Fraction(1))
    certificate = abs(pivots * scale)
    assert certificate.denominator == 1
    return x, certificate.numerator
