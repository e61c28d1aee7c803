import json
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dense_oracle import compound_batch
from fermishadow.combinat import rank_subset, subset_index_array, subsets
from fermishadow.fock import (
    FermionState,
    basis_state,
    random_state,
    rdm_matrix,
    slater_superposition,
    state_from_json,
    state_to_json,
)
from haar_oracle import apply_rotation, haar
from sign_oracle import rdm_matrix_reference


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
    # a bool or a float is no size, though Python and numpy read them as numbers
    for n, eta in ((4, True), (4.0, 1), (np.float64(4), 1), (True, 1)):
        with pytest.raises(ValueError, match="integers"):
            FermionState(n, eta, np.ones(4) / 2)


def test_random_state_normalized():
    st = random_state(5, 2, np.random.default_rng(0))
    assert st.n == 5 and st.eta == 2
    assert abs(st.norm() - 1.0) < 1e-12


def test_amplitude_needs_eta_modes():
    st = random_state(4, 2, np.random.default_rng(12))
    assert st.amplitude((1, 2)) == st.amps[0]
    assert st.amplitude([3, 4]) == st.amps[5]
    for z in [(1,), (1, 2, 3), ()]:
        with pytest.raises(ValueError, match="need 2 modes"):
            st.amplitude(z)
    for z in [(2, 1), (0, 1), (1, 5)]:
        with pytest.raises(ValueError):
            st.amplitude(z)


def _ket_sum(n, *kets):
    """|a> + |b> + ..., unnormalized, so that rdm_matrix entries are exact integers."""
    return FermionState(n, len(kets[0]), sum(basis_state(z, n).amps for z in kets))


def _entry(state, p, q):
    """<state| transition(p, q) |state>, read off rdm_matrix."""
    return rdm_matrix(state, len(p))[rank_subset(p), rank_subset(q)]


def test_rdm_operator_hand_signs():
    # on |a> + |b>, the entry of an operator that maps |b> to +-|a> (and
    # kills |a>) is +-1, so the entry pins the sign
    # a^dag_1 a_2 |2 3> = |1 3>
    assert _entry(_ket_sum(3, (1, 3), (2, 3)), (1,), (2,)) == 1
    # a^dag_3 a_1 |1 2> = -|2 3>
    assert _entry(_ket_sum(3, (2, 3), (1, 2)), (3,), (1,)) == -1
    # a^dag_1 a_1 |1 2> = |1 2>
    assert _entry(basis_state((1, 2), 3), (1,), (1,)) == 1
    # a^dag_1 a^dag_5 a_4 a_3 |2 3 4> = -|1 2 5>: a_3 and a_4 each pass mode 2,
    # a^dag_5 passes 2, a^dag_1 passes nothing
    assert _entry(_ket_sum(5, (1, 2, 5), (2, 3, 4)), (1, 5), (3, 4)) == -1
    # the whole 1-RDM of |1 2> + |1 3> + |2 3>: a^dag_1 a_2 |2 3> = |1 3>,
    # a^dag_1 a_3 |2 3> = -|1 2>, a^dag_2 a_3 |1 3> = |1 2>
    got = rdm_matrix(_ket_sum(3, (1, 2), (1, 3), (2, 3)), 1)
    assert got.tolist() == [[2, 1, -1], [1, 2, 1], [-1, 1, 2]]


def test_rdm_operator_vanishing_cases():
    # on |1 2>: a^dag_1 a_3 (3 is empty), a^dag_2 a_1 (2 is still full) and
    # a^dag_3 a_3 give 0; the whole 1-RDM is the occupation diagonal
    assert rdm_matrix(basis_state((1, 2), 3), 1).tolist() == np.diag([1, 1, 0]).tolist()
    # and the 2-RDM of |1 3> on 4 modes has the one entry (13, 13)
    x = rdm_matrix(basis_state((1, 3), 4), 2)
    want = np.zeros((6, 6))
    want[1, 1] = 1
    assert x.tolist() == want.tolist()


def test_expectation_hand_values():
    st = basis_state((1, 2), 4)
    assert _entry(st, (1,), (1,)) == 1
    assert _entry(st, (3,), (3,)) == 0
    plus = FermionState(2, 1, np.array([1.0, 1.0]) / np.sqrt(2.0))
    assert abs(_entry(plus, (1,), (2,)) - 0.5) < 1e-14


def test_expectation_hermiticity():
    rng = np.random.default_rng(1)
    st = random_state(5, 3, rng)
    for k in (1, 2):
        x = rdm_matrix(st, k)
        assert np.abs(x.conj().T - x).max() < 1e-12


def _reference_states(n, eta, rng):
    """A random state, three basis kets and a sparse state with signed zeros."""
    c = len(subset_index_array(n, eta))
    states = [random_state(n, eta, rng)]
    for r in sorted({0, c // 2, c - 1}):
        states.append(basis_state(tuple(subset_index_array(n, eta)[r] + 1), n))
    amps = rng.standard_normal(c) + 1j * rng.standard_normal(c)
    amps[rng.random(c) < 0.5] = 0
    amps.real[rng.random(c) < 0.3] = -0.0
    amps.imag[rng.random(c) < 0.3] = -0.0
    states.append(FermionState(n, eta, amps))
    return states


def test_rdm_matrix_matches_loop_reference():
    # the colex-table construction writes the bitmask loop's A entry for entry,
    # so A^dag A has the same bits, signed zeros included
    rng = np.random.default_rng(2)
    for n in range(9):
        for eta in range(n + 1):
            for st in _reference_states(n, eta, rng):
                for k in range(eta + 1):
                    got, want = rdm_matrix(st, k), rdm_matrix_reference(st, k)
                    assert got.shape == want.shape and got.tobytes() == want.tobytes(), \
                        (n, eta, k)


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
    want = np.array([[np.vdot(state.amps, _sector_transition(n, eta, a, b) @ state.amps)
                      for b in ks] for a in ks])
    assert np.allclose(rdm_matrix(state, k), want, atol=1e-12)


def test_particle_number_is_conserved():
    st = random_state(6, 3, np.random.default_rng(3))
    assert abs(np.trace(rdm_matrix(st, 1)) - 3.0) < 1e-12


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
        ref = rank_subset(range(n + 1, n + eta + 1))
        x = rdm_matrix(big, eta)
        for q in subsets(n, eta):
            assert abs(x[ref, rank_subset(q)] - psi.amplitude(q) / 2.0) < 1e-12


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
    # numpy sizes are stored as Python ints, which JSON can hold
    st = FermionState(np.int64(4), np.int64(2), st.amps)
    assert type(st.n) is int and type(st.eta) is int
    back = state_from_json(state_to_json(st))
    assert (back.n, back.eta) == (4, 2) and np.array_equal(back.amps, st.amps)
