from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dense_oracle import batch_estimate_matrices, estimation_diagonal, minors_batch, readout_rows
from fermishadow import channel, shadows
from fermishadow.combinat import binom, falling, rank_subset, subsets, validate_subset
from fermishadow.fock import random_state
from fermishadow.linalg import subset_index_array
from fermishadow.shadows import collect_shadow_arrays, fast_estimate_rdm
from haar_oracle import haar
from pfaffian_oracle import (
    YHAT,
    _loop_estimate,
    alpha_coeffs,
    assemble_a_matrix,
    build_m,
    decompose_rdm,
    f_ks,
    generating_function_value,
    inverse_trace_sequence,
    majorana_rotation,
    pfaffian,
    pfaffian_derivatives,
    trace_powers,
)


def test_majorana_rotation_is_orthogonal_homomorphism():
    rng = np.random.default_rng(0)
    u = haar(4, rng)
    v = haar(4, rng)
    ut = majorana_rotation(u)
    assert ut.dtype == np.float64
    assert np.allclose(ut.T @ ut, np.eye(8))
    assert abs(np.linalg.det(ut) - 1.0) < 1e-10
    assert np.allclose(majorana_rotation(u @ v), ut @ majorana_rotation(v))


def test_assemble_a_matrix_skew_and_base_point():
    rng = np.random.default_rng(1)
    for n, eta, k in [(3, 1, 1), (4, 2, 2), (5, 3, 1)]:
        u = haar(n, rng)
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
        w = haar(n, rng)
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
    assert alpha_coeffs(2, 1, 1) == (Fraction(1, 2), Fraction(3, 2))
    assert len(alpha_coeffs(6, 4, 2)) == 3


def test_inverse_trace_sequence_matches_dense():
    rng = np.random.default_rng(3)
    for n, eta, k in [(4, 2, 1), (5, 3, 2), (6, 4, 3)]:
        w = haar(n, rng)
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
        w = haar(n, rng)
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
    w = haar(n, rng)
    derivs = pfaffian_derivatives(w, eta, k, x_max=2)
    h = 1e-4

    def pf(kappa):
        return pfaffian(assemble_a_matrix(w, eta, k, kappa)).real

    d1 = (pf(h) - pf(-h)) / (2 * h)
    d2 = (pf(h) - 2 * pf(0.0) + pf(-h)) / h**2
    assert abs(derivs[1] - d1) < 1e-5 * max(1.0, abs(d1))
    assert abs(derivs[2] - d2) < 1e-4 * max(1.0, abs(d2))


def _term_blocks(rows, vals, n):
    """Each term's dense n x k column block W_t, rebuilt from the tables."""
    blocks = np.zeros((len(rows), n, rows.shape[1]), dtype=np.complex128)
    for t, col, j in np.ndindex(rows.shape):
        if rows[t, col, j] >= 0:
            blocks[t, rows[t, col, j], col] += vals[t, col, j]
        else:
            assert vals[t, col, j] == 0
    return blocks


def test_decomposition_structure():
    cases = [((1,), (2,), 3), ((1, 2), (1, 3), 4), ((1, 2), (3, 4), 5), ((2, 4), (2, 4), 5)]
    for p, q, n in cases:
        rows, vals, coeffs = decompose_rdm(p, q, n)
        k, kp = len(p), len(set(p) - set(q))
        assert rows.shape == vals.shape == ((kp + 1) * 2**kp, k, 2)
        assert coeffs.shape == (len(rows),)
        for w in _term_blocks(rows, vals, n):
            assert np.allclose(w.conj().T @ w, np.eye(k))


def test_decomposition_tables_are_read_only():
    rows, vals, coeffs = decompose_rdm((1, 2), (3, 4), 5)
    for table in (rows, vals, coeffs):
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 0
    assert decompose_rdm((1, 2), (3, 4), 5)[0] is rows


def test_decomposition_resolves_transition_operator():
    # sum_t coeff_t c_t c_t^dag == |p><q| on the k sector, c_t the k x k minors of W_t;
    # (1, 2), (2, 3) has a global sign of -1
    cases = [((1,), (2,), 3), ((1, 2), (1, 3), 4), ((1, 2), (3, 4), 4), ((1, 3), (2, 4), 5),
             ((1, 2), (2, 3), 4)]
    for p, q, n in cases:
        rows, vals, coeffs = decompose_rdm(p, q, n)
        k = len(p)
        dim = binom(n, k)
        ref = np.zeros((dim, dim), dtype=np.complex128)
        ref[rank_subset(p), rank_subset(q)] = 1.0
        cols = np.arange(k, dtype=np.int64)[None, :]
        c = minors_batch(_term_blocks(rows, vals, n), subset_index_array(n, k), cols)[:, :, 0]
        acc = np.einsum("t,tr,ts->rs", coeffs, c, c.conj())
        assert np.max(np.abs(acc - ref)) < 1e-12


def test_fast_matches_dense_estimator():
    rng = np.random.default_rng(6)
    cases = [(3, 1, 1), (4, 2, 1), (4, 2, 2), (5, 3, 2), (6, 3, 3)]
    for n, eta, k in cases:
        state = random_state(n, eta, rng)
        ws, _ = collect_shadow_arrays(state, 1, seed=int(rng.integers(1 << 30)), start_index=0)
        ests = batch_estimate_matrices(ws, k)[0]
        ranks = list(subsets(n, k))
        for _ in range(12):
            p = ranks[rng.integers(len(ranks))]
            q = ranks[rng.integers(len(ranks))]
            dense = ests[rank_subset(p), rank_subset(q)]
            fast = fast_estimate_rdm(ws, k, p, q)[0]
            assert abs(dense - fast) < 1e-8 * max(1.0, abs(dense))


def test_fast_estimator_diagonal_norm():
    # diagonal fast estimates alone must reproduce the diagonal of the dense map
    rng = np.random.default_rng(7)
    n, eta, k = 5, 2, 2
    state = random_state(n, eta, rng)
    ws, _ = collect_shadow_arrays(state, 1, seed=99, start_index=1)
    ests = batch_estimate_matrices(ws, k)[0]
    for p in subsets(n, k):
        dense = ests[rank_subset(p), rank_subset(p)]
        fast = fast_estimate_rdm(ws, k, p, p)[0]
        assert abs(fast.imag) < 1e-9
        assert abs(dense - fast) < 1e-8


def test_fast_disjoint_pair_is_one_determinant():
    # p, q disjoint: I[q, p] = 0, so each root x adds (x - 1)^k det Pi[q, p]
    # and the DFT sum collapses to C(n+1, k) det Pi[q, p], the inverse channel
    rng = np.random.default_rng(8)
    count = 5
    for n, eta, k in [(2, 1, 1), (4, 2, 2), (5, 3, 1), (6, 3, 3), (7, 3, 2), (8, 4, 4)]:
        us = np.stack([haar(n, rng) for _ in range(count)])
        zs = np.sort(np.stack([rng.permutation(n)[:eta] + 1 for _ in range(count)]), axis=1)
        uz = readout_rows(us, zs)                                   # (N, eta, n)
        for _ in range(3):
            modes = [int(m) for m in rng.permutation(n)[:2 * k] + 1]
            p, q = tuple(sorted(modes[:k])), tuple(sorted(modes[k:]))
            block = uz[:, :, np.array(q) - 1].conj().transpose(0, 2, 1) @ uz[:, :, np.array(p) - 1]
            want = np.linalg.det(block) / float(channel.eigenvalue(n, k))
            got = fast_estimate_rdm(uz, k, p, q)
            assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))


def test_fast_estimate_rejects_bad_input():
    # eta and n come from the shape of the readout rows w (N, eta, n)
    w = haar(4, np.random.default_rng(3))[None, :2]
    cases = [
        ((w, 2, (1,), (2,)), "k=2"),                        # |p| = |q| != k
        ((w, 1, (1,), (2, 3)), "k=1"),                      # |p| != |q|
        ((w, 3, (1, 2, 3), (2, 3, 4)), "k <= eta"),         # k > eta
        ((w[0], 1, (1,), (2,)), "stack"),                   # one unstacked shot
        ((np.ones((1, 3, 2)), 1, (1,), (2,)), "eta <= n"),  # more rows than modes
        ((w, 2, (3, 1), (1, 2)), "not increasing"),         # p not a subset
        ((w, 2, (1, 2), (2, 2)), "not increasing"),         # q not a subset
        ((w, 2, (1, 2), (0, 1)), "out of range"),
        ((w, 1, (5,), (1,)), "out of range"),
    ]
    for args, match in cases:
        with pytest.raises(ValueError, match=match):
            fast_estimate_rdm(*args)


def test_decompose_rdm_rejects_bad_pairs():
    for p, q in [((1, 2), (3,)), ((), ()), ((1,), ())]:
        with pytest.raises(ValueError, match="equal length"):
            decompose_rdm(p, q, 4)
    with pytest.raises(ValueError):
        decompose_rdm((1, 5), (2, 3), 4)


def _random_shadows(n, eta, count, rng):
    us = np.stack([haar(n, rng) for _ in range(count)])
    zs = np.sort(np.stack([rng.permutation(n)[:eta] + 1 for _ in range(count)]), axis=1)
    return us, zs


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_batched_fast_path_matches_oracles(data):
    n = data.draw(st.integers(1, 6), label="n")
    eta = data.draw(st.integers(1, n), label="eta")
    k = data.draw(st.integers(1, eta), label="k")
    count = data.draw(st.sampled_from([1, 2, 5]), label="N")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    ws = readout_rows(*_random_shadows(n, eta, count, rng))
    ss = list(subsets(n, k))
    p, q = ss[rng.integers(len(ss))], ss[rng.integers(len(ss))]

    got = fast_estimate_rdm(ws, k, p, q)
    assert got.shape == (count,)
    loop = np.array([_loop_estimate(w, k, p, q) for w in ws])
    assert np.all(np.abs(got - loop) <= 1e-12 * np.maximum(1.0, np.abs(loop)))
    dense = batch_estimate_matrices(ws, k)[:, rank_subset(p), rank_subset(q)]
    assert np.all(np.abs(got - dense) <= 1e-8 * np.maximum(1.0, np.abs(dense)))

    # a shot's value does not depend on the batch around it
    alone = np.array([fast_estimate_rdm(ws[i : i + 1], k, p, q)[0] for i in range(count)])
    extra = readout_rows(*_random_shadows(n, eta, 3, rng))
    inside = fast_estimate_rdm(np.concatenate([extra[:1], ws, extra[1:]]), k, p, q)[1 : count + 1]
    for other in (alone, inside):
        assert np.all(np.abs(other - got) <= 1e-13 * np.maximum(1.0, np.abs(got)))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_stacked_fast_call_matches_per_pair_calls(data):
    # the (T, k) tables ps, qs in one call against one call per pair: each
    # column within 1e-13 of its pair's (N,) estimates, whatever the tile
    n = data.draw(st.integers(1, 7), label="n")
    eta = data.draw(st.integers(1, n), label="eta")
    k = data.draw(st.integers(1, eta), label="k")
    count = data.draw(st.sampled_from([0, 1, 3, 7]), label="N")
    width = data.draw(st.integers(1, 9), label="T")
    tile = data.draw(st.sampled_from([1, 50, shadows._TILE]), label="tile")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    ws = readout_rows(*_random_shadows(n, eta, max(count, 1), rng))[:count]
    ss = subset_index_array(n, k) + 1
    ps, qs = ss[rng.integers(len(ss), size=width)], ss[rng.integers(len(ss), size=width)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(shadows, "_TILE", tile)
        got = fast_estimate_rdm(ws, k, ps, qs)
    assert got.shape == (count, width)
    want = np.stack([fast_estimate_rdm(ws, k, tuple(p), tuple(q))
                     for p, q in zip(ps.tolist(), qs.tolist())], axis=1)
    assert np.all(np.abs(got - want) <= 1e-13 * np.maximum(1.0, np.abs(want)))

    # a bad row: the error of validate_subset on the first bad row of ps, then of qs
    bad = data.draw(st.sampled_from(["order", "low", "high"]), label="bad")
    row = data.draw(st.integers(0, width - 1), label="row")
    which = data.draw(st.sampled_from(["p", "q"]), label="which")
    table = (ps if which == "p" else qs).copy()
    if bad == "order":
        if k == 1:
            return
        table[row, :2] = table[row, 1::-1]
    else:
        table[row, 0 if bad == "low" else -1] = 0 if bad == "low" else n + 1
    args = (table, qs) if which == "p" else (ps, table)
    with pytest.raises(ValueError) as exc:
        fast_estimate_rdm(ws, k, *args)
    for t in args:
        for r in t.tolist():
            try:
                validate_subset(r, n)
            except ValueError as first:
                assert str(exc.value) == str(first)
                return
    raise AssertionError("no bad row")


def test_fast_tables_reject_shape_and_dtype():
    w = haar(4, np.random.default_rng(3))[None, :2]
    for p, q in [([[1, 2]], [(1, 2), (2, 3)]),      # row counts differ
                 ([[1, 2]], (1, 2)),                # a table against one pair
                 ([[[1, 2]]], [[[1, 2]]]),           # three axes
                 ([[1.0, 2.0]], [[1, 2]]),          # float modes
                 ([[True, False]], [[1, 2]]),       # bool modes
                 ([[True, 2]], [[1, 2]])]:          # a bool among integer modes
        with pytest.raises(ValueError, match="one shape"):
            fast_estimate_rdm(w, 2, p, q)


def _pair_with_difference(n, k, kp, rng):
    # k-subsets p, q of 1..n that differ in exactly kp modes
    perm = [int(m) + 1 for m in rng.permutation(n)]
    shared = perm[: k - kp]
    return (tuple(sorted(shared + perm[k - kp : k])),
            tuple(sorted(shared + perm[k : k + kp])))


@pytest.mark.parametrize("n, eta", [(12, 6), (16, 8)])
def test_fast_path_precision_envelope(n, eta):
    # one-column dense oracle: minors of u_eff^T on rows p and q against every
    # k-subset r give the compound columns b[:, p], b[:, q]; the estimate is
    # sum_r conj(b[r, q]) e_r b[r, p]
    rng = np.random.default_rng(n)
    us, zs = _random_shadows(n, eta, 3, rng)
    mask = np.zeros((len(us), n), dtype=bool)
    mask[np.arange(len(us))[:, None], zs - 1] = True
    ueffs = us[np.arange(len(us))[:, None], np.argsort(~mask, axis=1, kind="stable")]
    ws = readout_rows(us, zs)
    worst = {}
    for k in range(1, 7):
        e = estimation_diagonal(n, eta, k)
        cols = subset_index_array(n, k)
        worst[k] = 0.0
        for kp in sorted({0, 1, k // 2, k}):
            p, q = _pair_with_difference(n, k, kp, rng)
            fast = fast_estimate_rdm(ws, k, p, q)
            rows = np.array([p, q], dtype=np.int64) - 1
            b = minors_batch(ueffs.transpose(0, 2, 1), rows, cols)       # (N, 2, C)
            dense = (b[:, 1].conj() * e * b[:, 0]).sum(axis=1)
            gap = np.abs(fast - dense) / np.maximum(1.0, np.abs(dense))
            worst[k] = max(worst[k], float(gap.max()))
    print(f"({n},{eta}) fast/dense gap by k:",
          ", ".join(f"k={k}: {g:.1e}" for k, g in worst.items()))
    assert max(worst.values()) < 1e-10


def test_derivative_recursion_on_identity_frame():
    # all probability on one pattern: w = identity
    n, eta, k = 4, 2, 2
    w = np.eye(n, dtype=np.complex128)
    derivs = pfaffian_derivatives(w, eta, k)
    # C(kappa) = (1+kappa)^eta exactly, so d^x C = falling(eta, x)
    sign = (-1) ** (n - k)
    for x in range(eta + 1):
        assert abs(sign * derivs[x] - falling(eta, x)) < 1e-10
