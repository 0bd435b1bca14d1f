"""Exact sparse linear solving by integer elimination with Markowitz pivots.

A system is given as rows, one ``dict`` per equation mapping a column to
its nonzero coefficient (an int or a ``Fraction``).  ``factor`` scales each
row to integers by the lcm of its denominators and eliminates the matrix
once: it picks the live column with the fewest nonzeros and, within it, the
row with the fewest nonzeros, and eliminates that column from the other
live rows only.  Singleton columns go first, so a block-triangular system
(a transient chain) needs almost no elimination, and fill-in stays local.

A step is row-local integer arithmetic: with pivot a in row p and entry b
in row i, row i becomes (a' row i - b' row p) / g, where a'/b' is a/b in
lowest terms and g is the content (gcd of the entries) of the result.
Each new row is a nonzero multiple of the row that ``Fraction`` elimination
would give, so the two have the same nonzeros, the same pivot order and
the same singular inputs, and only rows with an entry in the pivot column
change.  Fraction-free (Bareiss) elimination instead multiplies every
remaining row at every step and destroys sparsity; the content division
keeps the entries here about as short as the reduced fractions would be.

The returned ``Factorization`` records the row scales and, for each pivot,
its column, its row (as left after the earlier steps) and the (row, a', b',
g) it applied to the other live rows.  ``solve(rhs)`` replays those row
operations on a right-hand side and back-substitutes;
``solve_transposed(rhs)`` solves A^T y = rhs with the same record: a
forward pass over the pivot rows in pivot order, then the row operations
replayed in reverse.  So one elimination serves any number of right-hand
sides, and a system and its transpose.  Both carry each entry as an
integer numerator and denominator in lowest terms and return
``Fraction``s.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm


class SingularMatrixError(ValueError):
    pass


def _reduced(n: int, d: int) -> tuple[int, int]:
    """n/d in lowest terms with d > 0; d is nonzero."""
    g = gcd(n, d)
    if d < 0:
        g = -g
    return n // g, d // g


@dataclass(frozen=True)
class Factorization:
    """One elimination of an n x n matrix, replayable on right-hand sides.

    ``scales[i]`` is the integer that made row i integral.  Each step is
    (pivot column c, pivot row index p, pivot row, [(row index, a', b',
    g)]): row i was replaced by (a' row i - b' row p) / g.  The pivot row
    is final, with integer entries in c and later pivot columns only.
    """

    n: int
    scales: list[int]
    steps: list[tuple[int, int, dict[int, int], list[tuple[int, int, int, int]]]]

    def _rhs(self, rhs) -> tuple[list[int], list[int]]:
        if len(rhs) != self.n:
            raise ValueError("square system expected")
        ratios = [r.as_integer_ratio() for r in rhs]
        return [n for n, _ in ratios], [d for _, d in ratios]

    def solve(self, rhs) -> list[Fraction]:
        """x with A x = rhs."""
        num, den = self._rhs(rhs)
        for i, s in enumerate(self.scales):
            if s != 1 and num[i]:
                num[i], den[i] = _reduced(num[i] * s, den[i])
        for _, p, _, ops in self.steps:
            n_p, d_p = num[p], den[p]
            for i, a, b, g in ops:
                if n_p:
                    num[i], den[i] = _reduced(a * num[i] * d_p - b * n_p * den[i], g * den[i] * d_p)
                elif a != g and num[i]:
                    num[i], den[i] = _reduced(a * num[i], g * den[i])
        x_num = [0] * self.n
        x_den = [1] * self.n
        for c, p, row, _ in reversed(self.steps):
            n, d = num[p], den[p]
            for j, a in row.items():
                if j != c and x_num[j]:
                    xd = x_den[j]
                    common = lcm(d, xd)
                    n = n * (common // d) - a * x_num[j] * (common // xd)
                    d = common
            x_num[c], x_den[c] = _reduced(n, d * row[c])
        return [Fraction(n, d) for n, d in zip(x_num, x_den)]

    def solve_transposed(self, rhs) -> list[Fraction]:
        """y with A^T y = rhs.

        The elimination is E S A = R, where S scales the rows, E is the
        product of the recorded row operations and R holds the pivot rows.
        A^T y = rhs is R^T z = rhs, lower triangular in pivot order,
        followed by y = S E^T z.
        """
        num, den = self._rhs(rhs)
        z_num = [0] * self.n
        z_den = [1] * self.n
        for c, p, row, _ in self.steps:
            n, d = _reduced(num[c], den[c] * row[c])
            z_num[p], z_den[p] = n, d
            if n:
                for j, a in row.items():
                    if j != c:
                        common = lcm(den[j], d)
                        num[j], den[j] = _reduced(num[j] * (common // den[j]) - a * n * (common // d), common)
        for _, p, _, ops in reversed(self.steps):
            n, d = z_num[p], z_den[p]
            for i, a, b, g in ops:
                n_i, d_i = z_num[i], z_den[i]
                if n_i:
                    # z_p -= (b'/g) z_i, then z_i *= a'/g, both from the old z_i.
                    common = lcm(d, g * d_i)
                    n = n * (common // d) - b * n_i * (common // (g * d_i))
                    d = common
                    if a != g:
                        z_num[i], z_den[i] = _reduced(a * n_i, g * d_i)
            z_num[p], z_den[p] = _reduced(n, d)
        return [Fraction(n * s, d) for n, d, s in zip(z_num, z_den, self.scales)]


def factor(rows) -> Factorization:
    """Eliminate the square matrix whose ``rows[i]`` maps column j to A[i][j].

    ``rows`` is not modified.  Raises SingularMatrixError when the matrix
    is singular.
    """
    n = len(rows)
    live: list[dict[int, int]] = []
    scales: list[int] = []
    col_rows: list[set[int]] = [set() for _ in range(n)]
    for i, row in enumerate(rows):
        ratios = {j: a.as_integer_ratio() for j, a in row.items() if a}
        if ratios and not (min(ratios) >= 0 and max(ratios) < n):
            raise ValueError("square system expected")
        scale = lcm(*(d for _, d in ratios.values()))
        live.append({j: num * (scale // d) for j, (num, d) in ratios.items()})
        scales.append(scale)
        for j in ratios:
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
        ops = []
        for i in col_rows[c]:
            row = live[i]
            b = row.pop(c)
            k = gcd(pivot, b)
            a, b = pivot // k, b // k
            if a < 0:
                a, b = -a, -b
            if a != 1:
                for j in row:
                    row[j] *= a
            for j, e in rest:
                v = row.get(j, 0) - b * e
                if v:
                    if j not in row:
                        col_rows[j].add(i)
                    row[j] = v
                elif j in row:
                    del row[j]
                    col_rows[j].discard(i)
            g = gcd(*row.values()) or 1  # an emptied row leaves the matrix singular
            if g != 1:
                for j in row:
                    row[j] //= g
            ops.append((i, a, b, g))
        for j, _ in rest:
            heapq.heappush(heap, (len(col_rows[j]), j))
        steps.append((c, p, pivot_row, ops))
    return Factorization(n, scales, steps)
