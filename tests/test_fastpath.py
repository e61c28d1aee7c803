from fractions import Fraction
from math import comb

import numpy as np
import pytest

from fermishadow.combinat import binom, falling, rank_subset, subsets
from fermishadow.fastpath import (
    YHAT,
    alpha_coeffs,
    assemble_a_matrix,
    build_m,
    decompose_rdm,
    f_ks,
    fast_estimate_rdm,
    generating_function_value,
    inverse_trace_sequence,
    majorana_rotation,
    pfaffian_derivatives,
    trace_powers,
)
from fermishadow.fock import random_state
from fermishadow.linalg import (
    compound_matrix,
    ginibre,
    minors_batch,
    pfaffian,
    subset_index_array,
    unitary_from_ginibre,
)
from fermishadow.shadows import batch_estimate_matrices, collect_shadow_arrays


def _haar(n, rng):
    return unitary_from_ginibre(ginibre(n, rng))


def test_majorana_rotation_is_orthogonal_homomorphism():
    rng = np.random.default_rng(0)
    u = _haar(4, rng)
    v = _haar(4, rng)
    ut = majorana_rotation(u)
    assert ut.dtype == np.float64
    assert np.allclose(ut.T @ ut, np.eye(8))
    assert abs(np.linalg.det(ut) - 1.0) < 1e-10
    assert np.allclose(majorana_rotation(u @ v), ut @ majorana_rotation(v))


def test_assemble_a_matrix_skew_and_base_point():
    rng = np.random.default_rng(1)
    for n, eta, k in [(3, 1, 1), (4, 2, 2), (5, 3, 1)]:
        u = _haar(n, rng)
        for kappa in (0.0, 0.4, -1.3):
            a = assemble_a_matrix(u, eta, k, kappa)
            assert a.shape == (2 * n, 2 * n)
            assert np.allclose(a + a.T, 0.0)
        a0 = assemble_a_matrix(u, eta, k, 0.0)
        assert abs(pfaffian(a0).real - (-1) ** (n - k)) < 1e-10


def _dense_generating(w, eta, k, kappa):
    # occupation sum of the k-particle state on columns [k], marking modes [eta]
    n = w.shape[0]
    rows = subset_index_array(n, k)
    cols = np.arange(k, dtype=np.int64)[None, :]
    probs = np.abs(minors_batch(w[None], rows, cols)[0][:, 0]) ** 2
    total = 0.0
    for i, r in enumerate(subsets(n, k)):
        s = len(set(r) & set(range(1, eta + 1)))
        total += probs[i] * (1 + kappa) ** s * (1 - kappa) ** (eta - s)
    return total


def test_generating_function_matches_dense_occupation_sum():
    rng = np.random.default_rng(2)
    for n, eta, k in [(4, 2, 1), (4, 2, 2), (5, 3, 2), (6, 2, 1), (6, 4, 2)]:
        w = _haar(n, rng)
        for kappa in (0.0, 0.3, -0.7, 1.0, 2.5):
            got = generating_function_value(w, eta, k, kappa)
            want = _dense_generating(w, eta, k, kappa)
            assert abs(got - want) < 1e-8 * max(1.0, abs(want))


def test_f_ks_values():
    for eta in range(1, 6):
        assert f_ks(eta, 1, 0, 0) == 1 - Fraction(eta, 2)
    assert f_ks(2, 2, 2, 0) == Fraction(1, 4)
    assert f_ks(3, 1, 0, 2) == 0
    assert f_ks(3, 1, 1, 3) == 0


def test_alpha_coeffs_frozen():
    fc = alpha_coeffs(2, 1, 1)
    assert fc.e_prime == (Fraction(-1), Fraction(2))
    assert fc.derivative_weights == (Fraction(1, 2), Fraction(3, 2))
    assert len(alpha_coeffs(6, 4, 2).derivative_weights) == 3


def test_inverse_trace_sequence_matches_dense():
    rng = np.random.default_rng(3)
    for n, eta, k in [(4, 2, 1), (5, 3, 2), (6, 4, 3)]:
        w = _haar(n, rng)
        a0 = assemble_a_matrix(w, eta, k, 0.0)
        ut = majorana_rotation(w)
        j = np.zeros((2 * n, 2 * n))
        for m in range(eta):
            j[2 * m : 2 * m + 2, 2 * m : 2 * m + 2] = YHAT
        x = np.linalg.solve(a0, ut.T @ j @ ut)
        dense = []
        acc = np.eye(2 * n)
        for _ in range(eta):
            acc = acc @ x
            dense.append(np.trace(acc))
        fast = inverse_trace_sequence(trace_powers(build_m(w, k, eta), eta), eta, eta)
        assert np.allclose(dense, fast)


def _dense_derivatives(w, eta, k, x_max):
    # exact kappa-derivatives of the dense occupation polynomial at 0
    n = w.shape[0]
    rows = subset_index_array(n, k)
    cols = np.arange(k, dtype=np.int64)[None, :]
    probs = np.abs(minors_batch(w[None], rows, cols)[0][:, 0]) ** 2
    out = []
    for x in range(x_max + 1):
        total = 0.0
        for i, r in enumerate(subsets(n, k)):
            s = len(set(r) & set(range(1, eta + 1)))
            total += probs[i] * sum(
                comb(x, j) * falling(s, j) * falling(eta - s, x - j) * (-1) ** (x - j)
                for j in range(x + 1)
            )
        out.append(total)
    return out


def test_pfaffian_derivatives_match_dense_polynomial():
    rng = np.random.default_rng(4)
    for n, eta, k in [(4, 2, 1), (4, 2, 2), (5, 3, 2), (6, 4, 2)]:
        w = _haar(n, rng)
        derivs = pfaffian_derivatives(w, eta, k)
        assert len(derivs) == eta + 1
        assert abs(derivs[0] - (-1) ** (n - k)) < 1e-10
        dense = _dense_derivatives(w, eta, k, eta)
        sign = (-1) ** (n - k)
        for x in range(eta + 1):
            assert abs(sign * derivs[x] - dense[x]) < 1e-8 * max(1.0, abs(dense[x]))


def test_pfaffian_derivatives_match_finite_differences():
    rng = np.random.default_rng(5)
    n, eta, k = 5, 3, 2
    w = _haar(n, rng)
    derivs = pfaffian_derivatives(w, eta, k, x_max=2)
    h = 1e-4

    def pf(kappa):
        return pfaffian(assemble_a_matrix(w, eta, k, kappa)).real

    d1 = (pf(h) - pf(-h)) / (2 * h)
    d2 = (pf(h) - 2 * pf(0.0) + pf(-h)) / h**2
    assert abs(derivs[1] - d1) < 1e-5 * max(1.0, abs(d1))
    assert abs(derivs[2] - d2) < 1e-4 * max(1.0, abs(d2))


def test_decomposition_structure():
    cases = [((1,), (2,), 3), ((1, 2), (1, 3), 4), ((1, 2), (3, 4), 5), ((2, 4), (2, 4), 5)]
    for p, q, n in cases:
        dec = decompose_rdm(p, q, n)
        kp = len(dec.p_only)
        assert len(dec.terms) == (kp + 1) * 2**kp
        assert dec.sign in (-1, 1)
        for term in dec.terms:
            v = dec.term_rotation_matrix(term)
            assert np.allclose(v.conj().T @ v, np.eye(n))
            # sparse column map agrees with the dense rotation
            dense_cols = v[:, : dec.k]
            for col in range(dec.k):
                rebuilt = np.zeros(n, dtype=np.complex128)
                for rowv, val in zip(term.col_rows[col], term.col_vals[col]):
                    if rowv > 0:
                        rebuilt[rowv - 1] += val
                assert np.allclose(rebuilt, dense_cols[:, col])


def test_decomposition_resolves_transition_operator():
    # sign * sum_t coeff_t C(V_t)|[k]><[k]|C(V_t)^dag == |p><q| on the k sector
    cases = [((1,), (2,), 3), ((1, 2), (1, 3), 4), ((1, 2), (3, 4), 4), ((1, 3), (2, 4), 5)]
    for p, q, n in cases:
        dec = decompose_rdm(p, q, n)
        k = dec.k
        dim = binom(n, k)
        ref = np.zeros((dim, dim), dtype=np.complex128)
        ref[rank_subset(p), rank_subset(q)] = 1.0
        acc = np.zeros((dim, dim), dtype=np.complex128)
        col_rank = rank_subset(tuple(range(1, k + 1)))
        for term in dec.terms:
            cv = compound_matrix(dec.term_rotation_matrix(term), k)[:, col_rank]
            acc += term.coeff * np.outer(cv, cv.conj())
        assert np.max(np.abs(dec.sign * acc - ref)) < 1e-12


def test_fast_matches_dense_estimator():
    rng = np.random.default_rng(6)
    cases = [(3, 1, 1), (4, 2, 1), (4, 2, 2), (5, 3, 2), (6, 3, 3)]
    for n, eta, k in cases:
        state = random_state(n, eta, rng)
        us, zs = collect_shadow_arrays(state, 1, seed=int(rng.integers(1 << 30)), start_index=0)
        ests = batch_estimate_matrices(us, zs, eta, k)[0]
        ranks = list(subsets(n, k))
        for _ in range(12):
            p = ranks[rng.integers(len(ranks))]
            q = ranks[rng.integers(len(ranks))]
            dense = ests[rank_subset(p), rank_subset(q)]
            fast = fast_estimate_rdm(us[0], zs[0], eta, k, p, q)
            assert abs(dense - fast) < 1e-8 * max(1.0, abs(dense))


def test_fast_estimator_diagonal_norm():
    # diagonal fast estimates alone must reproduce the diagonal of the dense map
    rng = np.random.default_rng(7)
    n, eta, k = 5, 2, 2
    state = random_state(n, eta, rng)
    us, zs = collect_shadow_arrays(state, 1, seed=99, start_index=1)
    ests = batch_estimate_matrices(us, zs, eta, k)[0]
    for p in subsets(n, k):
        dense = ests[rank_subset(p), rank_subset(p)]
        fast = fast_estimate_rdm(us[0], zs[0], eta, k, p, p)
        assert abs(fast.imag) < 1e-9
        assert abs(dense - fast) < 1e-8


def test_fast_estimate_rejects_wrong_readout_length():
    u = unitary_from_ginibre(ginibre(4, np.random.default_rng(3)))
    with pytest.raises(ValueError, match="eta=2"):
        fast_estimate_rdm(u, (1, 2, 3), 2, 1, (1,), (2,))


def test_derivative_recursion_on_identity_frame():
    # all probability on one pattern: w = identity
    n, eta, k = 4, 2, 2
    w = np.eye(n, dtype=np.complex128)
    derivs = pfaffian_derivatives(w, eta, k)
    # C(kappa) = (1+kappa)^eta exactly, so d^x C = falling(eta, x)
    sign = (-1) ** (n - k)
    for x in range(eta + 1):
        assert abs(sign * derivs[x] - falling(eta, x)) < 1e-10
