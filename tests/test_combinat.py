import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from algebra_oracle import canonical_permutation, overlap_count, permutation_matrix
from fermishadow.combinat import (
    binom,
    check_sizes,
    falling,
    int_table,
    is_int,
    rank_subset,
    subset_index_array,
    subsets,
    validate_subset,
)
from sign_oracle import apply_string


def test_binom_matches_math_comb():
    for n in range(12):
        for k in range(n + 1):
            assert binom(n, k) == math.comb(n, k)


def test_binom_zero_outside_triangle():
    assert binom(3, 5) == 0
    assert binom(3, -1) == 0
    assert binom(-2, 0) == 0
    assert binom(-2, 1) == 0


def test_falling():
    assert falling(5, 0) == 1
    assert falling(5, 2) == 20
    assert falling(2, 3) == 0
    assert falling(-1, 2) == 2


def test_subsets_colex_order_and_count():
    got = list(subsets(4, 2))
    assert got == [(1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 4)]
    for n in range(7):
        for k in range(n + 2):      # k = n + 1 has no subset
            ss = list(subsets(n, k))
            assert len(ss) == binom(n, k)
            assert ss == sorted(combinations(range(1, n + 1), k), key=lambda z: z[::-1])


def _colex_by_lexsort(n, d):
    """subset_index_array the long way: itertools lists the subsets in lex
    order, and a lexsort keyed by the largest mode, then the next, puts them
    in colex order."""
    idx = np.array(list(combinations(range(n), d)), dtype=np.int64).reshape(math.comb(n, d), d)
    return idx[np.lexsort(idx.T)] if d else idx


def test_subset_index_array_matches_lexsort():
    for n, d in [(n, d) for n in range(13) for d in range(n + 2)] + [(64, 4)]:
        got, want = subset_index_array(n, d), _colex_by_lexsort(n, d)
        assert got.dtype == np.int64 and got.shape == want.shape
        assert np.array_equal(got, want) and not got.flags.writeable


def test_rank_matches_enumeration_order():
    for n in range(1, 8):
        for k in range(n + 1):
            for r, z in enumerate(subsets(n, k)):
                assert rank_subset(z, n) == r


def test_rank_is_embedding_stable():
    assert rank_subset((1, 3), 4) == rank_subset((1, 3), 9)
    assert rank_subset((3, 4)) == 5
    assert rank_subset(()) == 0


def test_validate_subset_rejects():
    with pytest.raises(ValueError):
        validate_subset((2, 1), 4)
    with pytest.raises(ValueError):
        validate_subset((0, 1), 4)
    with pytest.raises(ValueError):
        validate_subset((1, 5), 4)
    with pytest.raises(ValueError):
        validate_subset((2, 2), 4)
    # a mode that is not an integer is refused, not truncated or read as 0/1
    for z in ((1.5, 2), (1.0, 2), (True, 2), (1, False), (np.float64(1), 2)):
        with pytest.raises(ValueError, match="integers"):
            validate_subset(z, 4)
    z = validate_subset((np.int64(1), np.uint8(3)), 4)
    assert z == (1, 3) and all(type(m) is int for m in z)


def test_integer_rule():
    for x in (0, -3, 2**70, np.int64(5), np.uint64(2**64 - 1), np.int8(-1)):
        assert is_int(x)
    for x in (True, False, np.True_, 1.0, np.float64(1), 1 + 0j, "1", None, [1]):
        assert not is_int(x)
    sizes = check_sizes(np.int64(5), np.uint8(3), np.int32(2))
    assert sizes == (5, 3, 2) and all(type(x) is int for x in sizes)
    assert check_sizes(0, 0) == (0, 0, 0)
    for n, eta, k in ((3, 4, 0), (3, 2, 3), (3, 2, -1), (-1, 0, 0), (4, 2, True),
                      (4.0, 2, 1), (4, 2, 1.0), (4, np.float64(2), 1), (4, 2, None)):
        with pytest.raises(ValueError, match="k <= eta <= n"):
            check_sizes(n, eta, k)
    # tables: an ndarray by its dtype, a nested sequence also by its leaves
    for x, want in (([[1, 2], [3, 4]], [[1, 2], [3, 4]]), (np.arange(3, dtype=np.uint8), [0, 1, 2]),
                    ([], []), ((np.int64(2), 3), [2, 3]), ([np.array([1, 2])], [[1, 2]])):
        got = int_table(x)
        assert got.dtype == np.int64 and got.tolist() == want
    for x in ([[True, 2]], [1, np.True_], np.array([True]), [1.0, 2], np.ones(2), [[1, 2], [3]],
              ["1"], [None], 1.5):
        assert int_table(x) is None


def test_apply_string_hand_signs():
    # a_2 on |1 2 3> passes one occupied mode; a^dag_1 a_2 |2 3> = |1 3>
    assert apply_string(0b111, annihilate=(2,)) == (0b101, -1)
    assert apply_string(0b110, (2,), (1,)) == (0b101, 1)
    # a^dag_3 a_1 |1 2> = -|2 3>, a^dag_1 a_1 |1 2> = |1 2>
    assert apply_string(0b011, (1,), (3,)) == (0b110, -1)
    assert apply_string(0b011, (1,), (1,)) == (0b011, 1)
    # creators act in descending order on the vacuum: a^dag_1 a^dag_3 |0> = |1 3>
    assert apply_string(0, create=(1, 3)) == (0b101, 1)
    # annihilators act in ascending order: a_3 a_1 |1 2 3> = -|2>
    assert apply_string(0b111, annihilate=(3, 1)) == (0b010, -1)
    assert apply_string(0b111, annihilate=(1, 3)) == (0b010, -1)
    assert apply_string(1 << 127, (128,), (1,)) == (1, 1)


def test_apply_string_kills():
    assert apply_string(0b011, (3,), (1,)) == (None, 0)     # 3 is empty
    assert apply_string(0b011, (1,), (2,)) == (None, 0)     # 2 is still full
    assert apply_string(0b011, annihilate=(1, 1)) == (None, 0)
    assert apply_string(0, create=(2, 2)) == (None, 0)


def test_overlap_count():
    assert overlap_count((1, 2, 5), (2, 5, 6)) == 2
    assert overlap_count((), (1,)) == 0


def test_canonical_permutation_relabels_subset_to_front():
    for n in range(1, 7):
        for k in range(n + 1):
            for z in subsets(n, k):
                image = canonical_permutation(z, n)
                assert sorted(image) == list(range(1, n + 1))
                assert tuple(image[: len(z)]) == z
                rest = tuple(image[len(z):])
                assert rest == tuple(sorted(rest))


def test_permutation_matrix_action():
    n = 5
    z = (2, 4)
    v = permutation_matrix(canonical_permutation(z, n))
    e = np.zeros(n)
    e[0] = 1.0
    assert np.argmax(v @ e) == z[0] - 1
    assert np.allclose(v @ v.T, np.eye(n))


@given(st.integers(1, 10), st.data())
def test_rank_indexes_the_subset_table(n, data):
    # row rank_subset(z) of the colex table is z itself, 0-based
    k = data.draw(st.integers(0, n))
    z = tuple(sorted(data.draw(
        st.sets(st.integers(1, n), min_size=k, max_size=k))))
    assert tuple(subset_index_array(n, k)[rank_subset(z, n)] + 1) == z
