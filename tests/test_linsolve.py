import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from ocsg.linsolve import SingularMatrixError, factor

from grids import fraction_certificate, fraction_factor


def _rows(matrix):
    return [{j: a for j, a in enumerate(row) if a} for row in matrix]


def _dense(rows, n):
    return [[Fraction(row.get(j, 0)) for j in range(n)] for row in rows]


def _certified_solve(rows, rhs):
    """The solution of ``rows`` x = ``rhs`` and its determinant certificate."""
    return factor(rows).solve(rhs), fraction_certificate(rows, rhs)


def _naive_gauss(matrix, rhs):
    # Independent plain Fraction elimination used as the oracle; None when singular.
    n = len(matrix)
    m = [[Fraction(x) for x in row] + [Fraction(r)] for row, r in zip(matrix, rhs)]
    for k in range(n):
        pivot = next((i for i in range(k, n) if m[i][k] != 0), None)
        if pivot is None:
            return None
        m[k], m[pivot] = m[pivot], m[k]
        for i in range(n):
            if i != k and m[i][k] != 0:
                factor = m[i][k] / m[k][k]
                m[i] = [a - factor * b for a, b in zip(m[i], m[k])]
    return [m[i][n] / m[i][i] for i in range(n)]


def _bareiss_pivot(matrix, rhs):
    # Reference dense fraction-free (Bareiss) elimination: |det| of the matrix
    # whose rows, right-hand side included, are scaled by their denominators' lcm.
    n = len(matrix)
    if n == 0:
        return 1
    m = []
    for row, r in zip(matrix, rhs):
        entries = [Fraction(a) for a in row] + [Fraction(r)]
        scale = lcm(*(e.denominator for e in entries))
        m.append([int(e * scale) for e in entries[:-1]])
    prev = 1
    for k in range(n - 1):
        pivot_row = next((i for i in range(k, n) if m[i][k] != 0), None)
        if pivot_row is None:
            return 0
        m[k], m[pivot_row] = m[pivot_row], m[k]
        pivot = m[k][k]
        for i in range(k + 1, n):
            mik = m[i][k]
            row_i, row_k = m[i], m[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pivot - mik * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return abs(m[n - 1][n - 1])


def test_small_system():
    x, pivot = _certified_solve([{0: Fraction(2), 1: Fraction(1)}, {0: Fraction(1), 1: Fraction(3)}], [Fraction(5), Fraction(10)])
    assert x == [Fraction(1), Fraction(3)]
    assert pivot == 5  # |det|


def test_singular_raises():
    with pytest.raises(SingularMatrixError):
        _certified_solve([{0: 1, 1: 1}, {0: 2, 1: 2}], [1, 2])


def test_matches_naive_gauss_on_random_systems():
    rng = random.Random(99)
    for _ in range(40):
        n = rng.randint(1, 5)
        while True:
            matrix = [
                [Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(n)] for _ in range(n)
            ]
            rhs = [Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(n)]
            try:
                x, pivot = _certified_solve(_rows(matrix), rhs)
                break
            except SingularMatrixError:
                continue
        assert x == _naive_gauss(matrix, rhs)
        for value in x:
            assert pivot % value.denominator == 0


def test_pivot_product_is_scaled_determinant():
    rows = [{0: Fraction(1, 2), 1: Fraction(1, 3)}, {0: Fraction(1), 1: Fraction(2)}]
    rhs = [Fraction(1), Fraction(1)]
    # Rows scale by 6 and 1; det of [[3,2],[1,2]] is 4.
    _, pivot = _certified_solve(rows, rhs)
    assert pivot == 4


def test_empty_system():
    assert _certified_solve([], []) == ([], 1)


def test_rows_are_not_modified():
    rows = [{0: Fraction(1), 1: Fraction(-1, 2)}, {0: Fraction(-1, 2), 1: Fraction(1)}]
    copy = [dict(row) for row in rows]
    _certified_solve(rows, [Fraction(0), Fraction(1)])
    assert rows == copy


def test_column_out_of_range_rejected():
    with pytest.raises(ValueError):
        _certified_solve([{0: 1}, {2: 1}], [1, 1])


def _entry(rng):
    return Fraction(rng.choice((-4, -3, -2, -1, 1, 2, 3, 4)), rng.randint(1, 6))


@st.composite
def sparse_systems(draw):
    """Seeded sparse n x n systems, n <= 60, with a nonzero transversal so
    most are nonsingular: random patterns, or block upper-triangular ones
    (hidden by a row permutation), each with up to three dense rows."""
    n = draw(st.integers(1, 60))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    triangular = draw(st.booleans())
    cols = list(range(n))
    rng.shuffle(cols)
    rows = [{cols[i]: _entry(rng)} for i in range(n)]
    if triangular:
        bounds = sorted(rng.sample(range(1, n), min(n - 1, rng.randint(0, 6)))) + [n]
        start = 0
        for end in bounds:
            for i in range(start, end):
                for _ in range(rng.randint(0, 3)):
                    rows[i][cols[rng.randrange(start, n)]] = _entry(rng)
            start = end
        rng.shuffle(rows)
    else:
        for row in rows:
            for _ in range(rng.randint(0, 3)):
                row[rng.randrange(n)] = _entry(rng)
    for i in rng.sample(range(n), min(n, draw(st.integers(0, 3)))):
        rows[i] = {j: _entry(rng) for j in range(n)}
    rhs = [Fraction(rng.randint(-4, 4), rng.randint(1, 6)) for _ in range(n)]
    return rows, rhs, rng


@settings(max_examples=60, deadline=None)
@given(sparse_systems())
def test_sparse_systems_match_dense_references(system):
    rows, rhs, _ = system
    matrix = _dense(rows, len(rows))
    expected = _naive_gauss(matrix, rhs)
    if expected is None:
        with pytest.raises(SingularMatrixError):
            _certified_solve(rows, rhs)
        return
    x, pivot = _certified_solve(rows, rhs)
    assert x == expected
    assert pivot == _bareiss_pivot(matrix, rhs)
    for value in x:
        assert pivot % value.denominator == 0


@settings(max_examples=40, deadline=None)
@given(sparse_systems())
def test_empty_column_is_singular(system):
    rows, rhs, rng = system
    c = rng.randrange(len(rows))
    rows = [{j: a for j, a in row.items() if j != c} for row in rows]
    with pytest.raises(SingularMatrixError):
        _certified_solve(rows, rhs)


@settings(max_examples=40, deadline=None)
@given(sparse_systems())
def test_repeated_row_is_singular(system):
    rows, rhs, rng = system
    if len(rows) < 2:
        return
    i, k = rng.sample(range(len(rows)), 2)
    factor = _entry(rng)
    rows[k] = {j: factor * a for j, a in rows[i].items()}
    with pytest.raises(SingularMatrixError):
        _certified_solve(rows, rhs)


@settings(max_examples=60, deadline=None)
@given(sparse_systems())
def test_factorization_solves_the_system_and_its_transpose(system):
    rows, rhs, rng = system
    n = len(rows)
    matrix = _dense(rows, n)
    if _naive_gauss(matrix, rhs) is None:
        with pytest.raises(SingularMatrixError):
            factor(rows)
        return
    copy = [dict(row) for row in rows]
    factorization = factor(rows)
    assert rows == copy
    transposed = [list(column) for column in zip(*matrix)]
    for _ in range(3):
        b = [Fraction(rng.randint(-4, 4), rng.randint(1, 6)) for _ in range(n)]
        assert factorization.solve(b) == _naive_gauss(matrix, b)
        assert factorization.solve_transposed(b) == _naive_gauss(transposed, b)
    assert rows == copy


def test_singular_matrix_raises_at_factor():
    with pytest.raises(SingularMatrixError):
        factor([{0: 1, 1: 1}, {0: 2, 1: 2}])


@st.composite
def mixed_systems(draw):
    """Sparse n x n systems, n <= 12, with entries of either sign over
    denominators such as 97, sometimes with an all-ones normalisation row
    (as a stationary system has), and about half of them made singular: a
    row replaced by a combination of two others, or a column emptied."""
    n = draw(st.integers(1, 12))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))

    def entry():
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 200), rng.choice((1, 2, 3, 6, 97, 194, 97 * 89)))

    cols = rng.sample(range(n), n)  # a nonzero transversal, so most unmodified systems are regular
    rows = [{cols[i]: entry(), **{j: entry() for j in rng.sample(range(n), rng.randint(0, min(n, 3)))}} for i in range(n)]
    if draw(st.booleans()):
        rows[rng.randrange(n)] = dict.fromkeys(range(n), 1)
    kind = draw(st.sampled_from(("any", "combination", "column")))
    if kind == "combination" and n >= 3:
        i, k, target = rng.sample(range(n), 3)
        a, b = entry(), entry()
        combined = {j: a * v for j, v in rows[i].items()}
        for j, v in rows[k].items():
            combined[j] = combined.get(j, 0) + b * v
        rows[target] = {j: v for j, v in combined.items() if v}
    elif kind == "column":
        c = rng.randrange(n)
        rows = [{j: v for j, v in row.items() if j != c} for row in rows]
    rhs = [[entry() if rng.random() < 0.7 else Fraction(0) for _ in range(n)] for _ in range(3)]
    return rows, rhs


@settings(max_examples=300, deadline=None)
@given(mixed_systems())
def test_integer_elimination_matches_fraction_reference(system):
    rows, rhs_list = system
    try:
        reference = fraction_factor(rows)
    except SingularMatrixError:
        with pytest.raises(SingularMatrixError):
            factor(rows)
        return
    factorization = factor(rows)
    # The same pivots in the same order, and pivot rows with the same nonzeros.
    assert [(c, p, row.keys()) for c, p, row, _ in factorization.steps] == [
        (c, p, row.keys()) for c, p, row, _ in reference.steps
    ]
    for rhs in rhs_list:
        assert factorization.solve(rhs) == reference.solve(rhs)
        assert factorization.solve_transposed(rhs) == reference.solve_transposed(rhs)


def _scaled(rows):
    """Each row times the lcm of its nonzero entries' reduced denominators,
    as ints, and those lcms: the integer rows ``factor`` takes with scales."""
    scales = [lcm(*(Fraction(a).denominator for a in row.values() if a)) for row in rows]
    return [{j: int(a * s) for j, a in row.items() if a} for row, s in zip(rows, scales)], scales


def _factor_or_error(*args):
    try:
        return factor(*args)
    except SingularMatrixError as error:
        return str(error)


@settings(max_examples=200, deadline=None)
@given(st.one_of(sparse_systems().map(lambda system: system[0]), mixed_systems().map(lambda system: system[0])))
def test_integer_rows_with_scales_factor_as_their_fractions(rows):
    # Random sparse systems over mixed denominators, singular ones included:
    # the same Factorization, or the same SingularMatrixError.
    copy = [dict(row) for row in rows]
    assert _factor_or_error(*_scaled(rows)) == _factor_or_error(rows)
    assert rows == copy


def test_integer_rows_whose_entries_cancel_keep_the_reduced_scale():
    # Stationary-style rows: a node with both 1/2 edges into one target
    # (-1/2 - 1/2 = -1), a 1/2 self-loop (1 - 1/2), and a pair of 1/4
    # self-loops (1 - 1/4 - 1/4 = 1/2), whose denominators shrink once the
    # entries are summed.
    half, quarter = Fraction(1, 2), Fraction(1, 4)
    rows = [
        {0: 1, 1: 1, 2: 1},
        {0: -half - half, 1: 1 - half},
        {1: -half, 2: 1 - quarter - quarter},
    ]
    integer_rows, scales = _scaled(rows)
    assert integer_rows == [{0: 1, 1: 1, 2: 1}, {0: -2, 1: 1}, {1: -1, 2: 1}]
    assert scales == [1, 2, 2]
    assert factor(integer_rows, scales) == factor(rows)


def test_singular_integer_rows_raise_the_fraction_error():
    for rows in (
        [{0: 1, 1: 1}, {0: 2, 1: 2}],
        [{0: Fraction(1, 2), 1: Fraction(1, 3)}, {0: Fraction(3, 2), 1: 1}],
        [{0: 1}, {0: Fraction(-1, 2)}],
        [{}, {1: 1}],
    ):
        with pytest.raises(SingularMatrixError) as expected:
            factor(rows)
        with pytest.raises(SingularMatrixError) as raised:
            factor(*_scaled(rows))
        assert str(raised.value) == str(expected.value)
