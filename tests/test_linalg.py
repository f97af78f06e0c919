"""Exact linear algebra: ranks and kernels.

The dense row-reduction engine is cross-checked against the sparse
column-reduction engine on deterministic pseudo-random matrices; the
kernel output of the dense engine is pinned as a golden value since its
pivot rule is part of the contract.
"""

import random
from fractions import Fraction

import pytest

from ihkl.linalg import RationalMatrix, column_pivots, rank_kernel, sparse_rank


def dense_rank_oracle(rows):
    """Textbook Gaussian elimination over Fraction, written independently."""
    mat = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    cols = len(mat[0]) if mat else 0
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c] / mat[r][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        rank += 1
        r += 1
    return rank


def test_rank_simple():
    m = RationalMatrix.from_rows([[1, 2], [2, 4]])
    rank, kernel = rank_kernel(m)
    assert rank == 1
    assert kernel == [(Fraction(-2), Fraction(1))]


def test_kernel_identity_and_zero():
    eye = RationalMatrix.from_rows([[1, 0], [0, 1]])
    assert rank_kernel(eye) == (2, [])
    zero = RationalMatrix(3, 2, {})
    rank, kernel = rank_kernel(zero)
    assert rank == 0
    assert kernel == [(Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))]


def test_kernel_golden_pivot_rule():
    # the first surviving row pivots on its leftmost entry; free columns
    # are reported in ascending order with a 1 at the free coordinate
    m = RationalMatrix.from_rows([
        [1, 1, 1, 0],
        [0, 0, 1, 1],
    ])
    rank, kernel = rank_kernel(m)
    assert rank == 2
    assert kernel == [
        (Fraction(-1), Fraction(1), Fraction(0), Fraction(0)),
        (Fraction(1), Fraction(0), Fraction(-1), Fraction(1)),
    ]


def free_columns(rows):
    """The columns in the span of the columns to their left, ascending."""
    ncols = len(rows[0])
    return [j for j in range(ncols)
            if dense_rank_oracle([r[:j + 1] for r in rows])
            == dense_rank_oracle([r[:j] for r in rows])]


def test_kernel_vectors_are_in_kernel():
    # the contract allowable_complex reads coordinates by: each kernel
    # vector's last non-zero entry is a 1 at its own free column, and the
    # vectors come in ascending free-column order
    rng = random.Random(11)
    for pool in (range(-3, 4), (0, 0, 0, 1, -1, 2)):
        for _ in range(25):
            rows = [[rng.choice(pool) for _ in range(6)] for _ in range(4)]
            m = RationalMatrix.from_rows(rows)
            rank, kernel = rank_kernel(m)
            assert rank + len(kernel) == 6
            lasts = []
            for vec in kernel:
                for row in rows:
                    assert sum(Fraction(a) * b for a, b in zip(row, vec)) == 0
                last = max(j for j, x in enumerate(vec) if x)
                assert vec[last] == 1
                lasts.append(last)
            assert lasts == free_columns(rows)


def test_sparse_rank_matches_dense_oracle():
    rng = random.Random(7)
    for _ in range(40):
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
        rows = [[rng.choice([0, 0, 0, 1, -1, 2]) for _ in range(ncols)]
                for _ in range(nrows)]
        cols = [{i: Fraction(rows[i][j]) for i in range(nrows) if rows[i][j]}
                for j in range(ncols)]
        assert sparse_rank(cols) == dense_rank_oracle(rows)
        assert rank_kernel(RationalMatrix.from_rows(rows))[0] == dense_rank_oracle(rows)


def test_column_pivots_are_largest_rows_after_reduction():
    # the second column reduces to zero, the third to one pivoting in row 0
    assert column_pivots([{0: 1, 2: 1}, {0: 2, 2: 2}, {0: 3, 2: 1}]) == [2, 0]


def test_sparse_rank_refuses_non_integer_entries():
    # integral Fractions and bools are integers; the columns are not changed
    cols = [{0: Fraction(2), 1: -1}, {1: True}]
    assert sparse_rank(cols) == 2
    assert cols == [{0: 2, 1: -1}, {1: 1}]
    for bad in (Fraction(1, 2), 0.5, 1.0, 0.0):
        with pytest.raises(ValueError, match="row 3 is not an integer"):
            sparse_rank([{0: 1}, {3: bad, 0: 2}])


def test_matrix_entry_validation():
    with pytest.raises(ValueError):
        RationalMatrix(1, 1, {(2, 0): Fraction(1)})
    m = RationalMatrix(2, 2, {(0, 0): Fraction(0), (1, 1): Fraction(5)})
    assert m.entries == {(1, 1): Fraction(5)}


@pytest.mark.parametrize("call, message", [
    (lambda: RationalMatrix(-1, 2), "negative matrix dimensions"),
    (lambda: RationalMatrix(2, -1), "negative matrix dimensions"),
    (lambda: RationalMatrix.from_rows([[1, 2], [3]]), "ragged rows"),
], ids=["negative-rows", "negative-cols", "ragged-rows"])
def test_bad_matrix_shapes_are_refused(call, message):
    with pytest.raises(ValueError, match="^%s$" % message):
        call()
