"""Exact sparse linear solving by Fraction elimination with Markowitz pivots.

A system is given as rows, one ``dict`` per equation mapping a column to
its nonzero coefficient, plus a right-hand side.  Elimination picks the
live column with the fewest nonzeros and, within it, the row with the
fewest nonzeros; it eliminates that column from the other live rows only
and finishes with back-substitution.  Singleton columns go first, so a
block-triangular system (a transient chain, a level game) needs almost no
elimination, and fill-in stays local.  No fraction-free (Bareiss) scaling
is used: it multiplies every remaining row at every step and destroys
sparsity.

The certificate returned with the solution is |det| of the integer matrix
obtained by scaling each row, right-hand side included, by the lcm of its
denominators: |product of pivots| times the product of those row lcms.
Every solution denominator divides it.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from math import lcm, prod


class SingularMatrixError(ValueError):
    pass


def solve_linear_system(rows, rhs) -> tuple[list[Fraction], int]:
    """Solve ``A x = rhs`` exactly, where ``rows[i]`` maps column j to A[i][j].

    Returns ``(x, certificate)`` with the certificate described in the
    module docstring.  Raises SingularMatrixError when the system is not
    uniquely solvable.
    """
    n = len(rows)
    if len(rhs) != n:
        raise ValueError("square system expected")
    live: list[dict[int, Fraction]] = []
    b: list[Fraction] = []
    scale = 1
    col_rows: list[set[int]] = [set() for _ in range(n)]
    for i, (row, r) in enumerate(zip(rows, rhs)):
        entries = {j: a if type(a) is Fraction else Fraction(a) for j, a in row.items() if a}
        r = r if type(r) is Fraction else Fraction(r)
        if any(not 0 <= j < n for j in entries):
            raise ValueError("square system expected")
        scale *= lcm(r.denominator, *(a.denominator for a in entries.values()))
        live.append(entries)
        b.append(r)
        for j in entries:
            col_rows[j].add(i)

    heap = [(len(col_rows[j]), j) for j in range(n)]
    heapq.heapify(heap)
    done = [False] * n
    order: list[tuple[int, int]] = []  # (pivot column, pivot row)
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
        bp = b[p]
        for i in col_rows[c]:
            row = live[i]
            factor = row.pop(c) / pivot
            for j, a in rest:
                if j in row:
                    v = row[j] - factor * a
                    if v:
                        row[j] = v
                    else:
                        del row[j]
                        col_rows[j].discard(i)
                else:
                    row[j] = -factor * a
                    col_rows[j].add(i)
            if bp:
                b[i] -= factor * bp
        for j, _ in rest:
            heapq.heappush(heap, (len(col_rows[j]), j))
        order.append((c, p))

    x: list[Fraction] = [Fraction(0)] * n
    for c, p in reversed(order):
        row = live[p]
        s = b[p]
        for j, a in row.items():
            if j != c:
                s -= a * x[j]
        x[c] = s / row[c]
    certificate = abs(prod((live[p][c] for c, p in order), start=Fraction(1)) * scale)
    assert certificate.denominator == 1
    return x, certificate.numerator
