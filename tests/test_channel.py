from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest

from algebra_oracle import (
    channel_apply_int_batch,
    eigenoperator_diagonal,
    elementary_in_sim,
    kernel_numerators,
    sim_k_expansion,
    symmetrized_difference_bruteforce,
)
from fermishadow.channel import (
    DiagonalOperator,
    _intersection_table,
    a_coeff,
    apply_channel_diagonal,
    channel_kernel,
    eigenvalue,
    nd_class_values,
    overlap_class_array,
    structure_factor,
    symmetrized_difference,
)
from fermishadow.combinat import binom, subsets
from fermishadow.shadows import estimation_entry


def test_structure_factor_frozen_values():
    assert structure_factor(2, 1, 1) == Fraction(1, 3)
    assert structure_factor(2, 1, 0) == Fraction(1, 6)
    assert structure_factor(4, 2, 2) == Fraction(3, (3 - 2)) / (binom(5, 2) * binom(4, 2))


def test_structure_factor_rejects_pole():
    with pytest.raises(ValueError):
        structure_factor(4, 2, 3)


def test_structure_factor_sums_to_channel_kernel():
    # kappa(t) = C(n, eta) * f(t): the Haar moment that the twirl check
    # samples is the channel kernel, up to the sector dimension.  channel_kernel
    # is that product, so both meet the oracle's independent sum over j
    for n in range(1, 13):
        for eta in range(n + 1):
            ks, ell = kernel_numerators(n, eta)
            kappa = channel_kernel(n, eta)
            for t in range(eta + 1):
                assert binom(n, eta) * structure_factor(n, eta, t) == Fraction(ks[t], ell) == kappa[t]


def test_eigenvalue_and_a_coeff_frozen():
    assert eigenvalue(2, 1) == Fraction(1, 3)
    assert eigenvalue(6, 0) == 1
    assert a_coeff(2, 1, 0) == Fraction(1, 2)
    assert a_coeff(2, 1, 1) == Fraction(1, 2)
    for n in range(1, 8):
        for eta in range(n + 1):
            assert a_coeff(n, eta, 0) == Fraction(1, binom(n, eta))


def test_nd_class_values_frozen():
    # n=2, eta=1, d=1: diag(1, -1) over t = |r cap {1}|
    assert nd_class_values(2, 1, 1) == [-1, 1]
    assert nd_class_values(4, 2, 0) == [1, 1, 1]


def test_symmetrized_difference_matches_bruteforce():
    for n in range(1, 7):
        for eta in range(n + 1):
            for d in range(min(eta, n - eta) + 1):
                fast = symmetrized_difference(n, eta, d)
                brute = symmetrized_difference_bruteforce(n, eta, d)
                assert fast == brute


def test_symmetrized_difference_trace_against_reference_ket():
    # value at the reference ket r = [eta] is falling(n - eta, d) * C(eta, d)
    from fermishadow.combinat import falling

    for n in range(1, 8):
        for eta in range(n + 1):
            for d in range(min(eta, n - eta) + 1):
                nd = symmetrized_difference(n, eta, d)
                assert nd.values[0] == falling(n - eta, d) * binom(eta, d)


def test_eigenoperator_diagonal_requires_disjoint():
    with pytest.raises(ValueError):
        eigenoperator_diagonal(4, 2, (1, 2), (2, 3))


def test_eigenoperator_diagonal_sum_builds_brute():
    # subset-x, permutation-y sum reproduces the symmetrized operator
    from itertools import combinations

    n, eta, d = 5, 2, 2
    acc = [0] * binom(n, eta)
    for x in combinations(range(1, eta + 1), d):
        for y in permutations(range(eta + 1, n + 1), d):
            op = eigenoperator_diagonal(n, eta, x, y)
            acc = [a + v for a, v in zip(acc, op.values)]
    assert acc == symmetrized_difference(n, eta, d).values


def test_channel_eigenrelation_exact():
    for n in range(1, 7):
        for eta in range(n + 1):
            for d in range(min(eta, n - eta) + 1):
                nd = symmetrized_difference(n, eta, d)
                img = apply_channel_diagonal(nd)
                lam = eigenvalue(n, d)
                assert all(v == lam * w for v, w in zip(img.values, nd.values))


def test_apply_channel_diagonal_matches_pair_sum():
    # M[D](r') = sum_r D(r) kappa(|r cap r'|) term by term in Fractions;
    # values of 2^70 take the Python-integer route instead of int64
    for n, eta in [(4, 2), (5, 3)]:
        c = binom(n, eta)
        kappa = channel_kernel(n, eta)
        table = _intersection_table(n, eta)
        small = [Fraction(i - 3, i + 1) for i in range(c)]
        for vals in (small, [(-1) ** i * 2**70 * i for i in range(c)]):
            img = apply_channel_diagonal(DiagonalOperator(n, eta, vals))
            assert img.values == [sum(vals[r] * kappa[table[r, rp]] for r in range(c))
                                  for rp in range(c)]


def test_channel_is_trace_preserving():
    for n in range(1, 6):
        for eta in range(n + 1):
            vals = [Fraction(i + 1) for i in range(binom(n, eta))]
            img = apply_channel_diagonal(DiagonalOperator(n, eta, vals))
            assert sum(img.values) == sum(vals)


def test_kernel_numerators_consistent():
    for n in range(1, 8):
        for eta in range(n + 1):
            ks, ell = kernel_numerators(n, eta)
            kappa = channel_kernel(n, eta)
            assert [Fraction(k, ell) for k in ks] == kappa


def test_int_batch_matches_exact_apply():
    n, eta = 5, 2
    rng = np.random.default_rng(0)
    vmat = rng.integers(-4, 5, size=(6, binom(n, eta)))
    nums, ell = channel_apply_int_batch(n, eta, vmat)
    for i in range(vmat.shape[0]):
        img = apply_channel_diagonal(DiagonalOperator(n, eta, [int(v) for v in vmat[i]]))
        assert [Fraction(int(v), ell) for v in nums[i]] == img.values


def test_inverse_channel_frozen_and_inverse_property():
    # the inverse-channel image of the sector projector is the k = eta
    # estimation operator: the channel maps it back onto the projector, exactly
    for n in range(1, 7):
        for eta in range(n + 1):
            t = overlap_class_array(n, eta, eta)
            inv = DiagonalOperator(n, eta, [estimation_entry(n, eta, eta, int(ti)) for ti in t])
            if (n, eta) == (2, 1):
                assert inv.values == [Fraction(2), Fraction(-1)]
            want = [Fraction(0)] * binom(n, eta)
            want[0] = Fraction(1)
            assert apply_channel_diagonal(inv).values == want


def test_overlap_class_array():
    got = overlap_class_array(4, 2, 2)
    assert list(got) == [2, 1, 1, 1, 1, 0]
    for n in range(7):
        for d in range(n + 1):
            for eta in range(n + 1):
                want = [sum(1 for m in z if m <= eta) for z in subsets(n, d)]
                assert overlap_class_array(n, d, eta).tolist() == want


def test_intersection_table_matches_sets():
    for n in range(1, 7):
        for eta in range(n + 1):
            ss = list(subsets(n, eta))
            want = [[len(set(a) & set(b)) for b in ss] for a in ss]
            assert _intersection_table(n, eta).tolist() == want


def test_sim_expansion_is_occupation_indicator():
    # sum_j c_j e_j(bits) = 1 when exactly k of the eta bits are set
    from itertools import product

    for eta in range(5):
        for k in range(eta + 1):
            cs = sim_k_expansion(eta, k)
            for bits in product((0, 1), repeat=eta):
                es = [0] * (eta + 1)
                for j in range(eta + 1):
                    total = 0
                    for combo in subsets(eta, j):
                        term = 1
                        for m in combo:
                            term *= bits[m - 1]
                        total += term
                    es[j] = total
                value = sum(c * e for c, e in zip(cs, es))
                assert value == (1 if sum(bits) == k else 0)


def test_elementary_in_sim_inverts():
    # e_k = sum_j C(j,k) [exactly j occupied] on every bit pattern
    from itertools import product

    eta = 4
    for k in range(eta + 1):
        ws = elementary_in_sim(eta, k)
        for bits in product((0, 1), repeat=eta):
            ek = sum(
                1
                for combo in subsets(eta, k)
                if all(bits[m - 1] for m in combo)
            )
            got = sum(
                w * (1 if sum(bits) == j else 0)
                for j, w in enumerate(ws)
            )
            assert got == ek
