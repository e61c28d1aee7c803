import json
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dense_oracle import compound_batch
from fermishadow.combinat import subsets
from fermishadow.fock import (
    FermionState,
    apply_rdm_operator,
    basis_state,
    expectation_rdm,
    random_state,
    rdm_matrix,
    slater_superposition,
    state_from_json,
    state_to_json,
)
from haar_oracle import apply_rotation, haar


def test_basis_state_ranks():
    assert np.argmax(np.abs(basis_state((1, 2), 4).amps)) == 0
    assert np.argmax(np.abs(basis_state((3, 4), 4).amps)) == 5
    assert np.argmax(np.abs(basis_state((2,), 3).amps)) == 1
    assert abs(basis_state((1, 3), 4).norm() - 1.0) < 1e-14


def test_fermion_state_rejects_bad_sizes():
    with pytest.raises(ValueError, match="amplitudes"):
        FermionState(4, 2, np.ones(5))
    for eta in (-1, 4):
        with pytest.raises(ValueError, match="eta"):
            FermionState(3, eta, np.ones(1))


def test_random_state_normalized():
    st = random_state(5, 2, np.random.default_rng(0))
    assert st.n == 5 and st.eta == 2
    assert abs(st.norm() - 1.0) < 1e-12


def test_rdm_operator_hand_signs():
    out = apply_rdm_operator(basis_state((2, 3), 3), (1,), (2,))
    assert np.allclose(out.amps, basis_state((1, 3), 3).amps)
    out = apply_rdm_operator(basis_state((1, 2), 3), (3,), (1,))
    assert np.allclose(out.amps, -basis_state((2, 3), 3).amps)
    out = apply_rdm_operator(basis_state((1, 2), 3), (1,), (1,))
    assert np.allclose(out.amps, basis_state((1, 2), 3).amps)


def test_rdm_operator_vanishing_cases():
    out = apply_rdm_operator(basis_state((1, 2), 3), (1,), (3,))
    assert np.allclose(out.amps, 0.0)
    out = apply_rdm_operator(basis_state((1, 2), 3), (2,), (1,))
    assert np.allclose(out.amps, 0.0)


def test_expectation_hand_values():
    st = basis_state((1, 2), 4)
    assert expectation_rdm(st, (1,), (1,)) == 1
    assert expectation_rdm(st, (3,), (3,)) == 0
    plus = FermionState(2, 1, np.array([1.0, 1.0]) / np.sqrt(2.0))
    assert abs(expectation_rdm(plus, (1,), (2,)) - 0.5) < 1e-14


def test_expectation_hermiticity():
    rng = np.random.default_rng(1)
    st = random_state(5, 3, rng)
    for k in (1, 2):
        for p in subsets(5, k):
            for q in subsets(5, k):
                a = expectation_rdm(st, p, q)
                b = expectation_rdm(st, q, p)
                assert abs(np.conj(a) - b) < 1e-12


@lru_cache(maxsize=None)
def _jordan_wigner(n):
    """Dense a_m on 2^n, basis index = occupation bitmask (bit m-1 for mode m)."""
    lower = np.array([[0.0, 1.0], [0.0, 0.0]])       # |1> -> |0> on one mode
    ops = []
    for m in range(1, n + 1):
        # kron puts its first factor on the highest bit: modes n..m+1, m, m-1..1
        a = np.kron(np.eye(2 ** (n - m)), lower)
        for _ in range(m - 1):
            a = np.kron(a, np.diag([1.0, -1.0]))
        ops.append(a)
    return ops


def _sector_transition(n, eta, p, q):
    """a^dag_p1 .. a^dag_pk a_qk .. a_q1 restricted to the colex eta-sector basis."""
    a = _jordan_wigner(n)
    op = np.eye(2 ** n)
    for m in q:
        op = a[m - 1] @ op
    for m in reversed(p):
        op = a[m - 1].T @ op
    basis = [sum(2 ** (m - 1) for m in z) for z in subsets(n, eta)]
    return op[np.ix_(basis, basis)]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.data())
def test_transitions_match_jordan_wigner(n, data):
    eta = data.draw(st.integers(0, n))
    k = data.draw(st.integers(0, eta))
    ks = list(subsets(n, k))
    p = ks[data.draw(st.integers(0, len(ks) - 1))]
    q = ks[data.draw(st.integers(0, len(ks) - 1))]
    state = random_state(n, eta, np.random.default_rng(data.draw(st.integers(0, 2**32))))
    dense = _sector_transition(n, eta, p, q)
    assert np.allclose(apply_rdm_operator(state, p, q).amps, dense @ state.amps, atol=1e-13)
    want = np.array([[np.vdot(state.amps, _sector_transition(n, eta, a, b) @ state.amps)
                      for b in ks] for a in ks])
    assert np.allclose(rdm_matrix(state, k), want, atol=1e-12)


def test_rdm_matrix_matches_expectations():
    rng = np.random.default_rng(2)
    st = random_state(5, 2, rng)
    for k in (1, 2):
        x = rdm_matrix(st, k)
        ss = list(subsets(5, k))
        for a, p in enumerate(ss):
            for b, q in enumerate(ss):
                assert abs(x[a, b] - expectation_rdm(st, p, q)) < 1e-12


def test_particle_number_is_conserved():
    st = random_state(6, 3, np.random.default_rng(3))
    total = sum(expectation_rdm(st, (m,), (m,)) for m in range(1, 7))
    assert abs(total - 3.0) < 1e-12


def test_apply_rotation_hand_minor():
    u = np.eye(3)
    u[[0, 1]] = u[[1, 0]]
    out = apply_rotation(basis_state((1, 3), 3), u)
    assert np.allclose(out.amps, basis_state((2, 3), 3).amps)


def test_apply_rotation_composition_and_inverse():
    rng = np.random.default_rng(4)
    st = random_state(4, 2, rng)
    u = haar(4, rng)
    v = haar(4, rng)
    a = apply_rotation(apply_rotation(st, u), v)
    b = apply_rotation(st, v @ u)
    assert np.allclose(a.amps, b.amps, atol=1e-10)
    back = apply_rotation(apply_rotation(st, u), u.conj().T)
    assert np.allclose(back.amps, st.amps, atol=1e-10)
    assert abs(apply_rotation(st, u).norm() - 1.0) < 1e-9


def test_rotated_rdm_transforms_by_compound():
    rng = np.random.default_rng(5)
    n, eta, k = 5, 2, 2
    st = random_state(n, eta, rng)
    u = haar(n, rng)
    b = compound_batch(u[None], k)[0]
    rotated = rdm_matrix(apply_rotation(st, u), k)
    assert np.allclose(rotated, b.conj() @ rdm_matrix(st, k) @ b.T, atol=1e-10)


def test_slater_superposition_layout():
    out = slater_superposition(basis_state((1,), 2))
    assert (out.n, out.eta) == (3, 1)
    r = 1.0 / np.sqrt(2.0)
    assert np.allclose(out.amps, [r, 0.0, r])
    assert abs(out.norm() - 1.0) < 1e-14


def test_slater_superposition_overlap_readout():
    rng = np.random.default_rng(10)
    for n, eta in [(3, 1), (4, 2)]:
        psi = random_state(n, eta, rng)
        big = slater_superposition(psi)
        ref = tuple(range(n + 1, n + eta + 1))
        for q in subsets(n, eta):
            got = expectation_rdm(big, ref, q)
            assert abs(got - psi.amplitude(q) / 2.0) < 1e-12


def test_state_json_roundtrip():
    st = random_state(4, 2, np.random.default_rng(11))
    text = state_to_json(st)
    back = state_from_json(text)
    assert (back.n, back.eta) == (4, 2)
    assert np.allclose(back.amps, st.amps)
    body = json.loads(text)
    assert set(body) == {"n", "eta", "amplitudes"}
    with pytest.raises(ValueError, match="norm 2"):
        state_from_json(state_to_json(FermionState(4, 2, 2 * st.amps)))
