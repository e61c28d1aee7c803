import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dense_oracle import compound_batch, minor_det, minors_batch
from fermishadow.combinat import binom, subsets
from fermishadow.linalg import (
    _GS_MAX_N,
    _gram_schmidt,
    ginibre,
    givens_rotate,
    subset_index_array,
    unitary_from_ginibre,
)
from pfaffian_oracle import pfaffian

RNG = np.random.default_rng(20240816)


def _haar(n, rng):
    return unitary_from_ginibre(ginibre(n, rng))


def _compound(u, k):
    return compound_batch(u[None], k)[0]


def test_haar_unitary_is_unitary():
    for n in (1, 2, 5, 9):
        u = _haar(n, np.random.default_rng(n))
        assert np.allclose(u @ u.conj().T, np.eye(n), atol=1e-12)


def test_haar_first_moment():
    n, m = 3, 40000
    rng = np.random.default_rng(0)
    g = np.stack([ginibre(n, rng) for _ in range(m)])
    us = unitary_from_ginibre(g)
    second = np.mean(np.abs(us) ** 2, axis=0)
    assert np.allclose(second, 1.0 / n, atol=5e-3)
    first = np.abs(np.mean(us, axis=0)).max()
    assert first < 5e-3


def test_haar_phase_sensitive_moment():
    # E[u11 u22 conj(u12) conj(u21)] = -1/(n(n^2-1)); pins the QR phase gauge
    n, m = 2, 200000
    rng = np.random.default_rng(1)
    g = np.stack([ginibre(n, rng) for _ in range(m)])
    us = unitary_from_ginibre(g)
    got = np.mean(us[:, 0, 0] * us[:, 1, 1] * np.conj(us[:, 0, 1] * us[:, 1, 0]))
    want = -1.0 / (n * (n**2 - 1))
    assert abs(got - want) < 4e-3


def _ginibre_stack(n, m, rng):
    return (rng.standard_normal((m, n, n)) + 1j * rng.standard_normal((m, n, n))) / np.sqrt(2)


def _lapack_haar(g):
    # independent oracle: LAPACK's QR, then each column times the phase of R's diagonal
    q, r = np.linalg.qr(g)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


@pytest.mark.parametrize("n", range(1, 8))
def test_gram_schmidt_matches_lapack_oracle(n):
    # the Gram-Schmidt kernel, unitary_from_ginibre's for n <= 5, here up to
    # n = 7: it must equal the gauge-fixed LAPACK Q to 16 kappa_2(G) eps
    # entrywise, be unitary to 1e-14, and give each matrix the same bits in
    # any stack, as must unitary_from_ginibre on either side of the split
    g = _ginibre_stack(n, 10_000, np.random.default_rng(100 + n))
    got = _gram_schmidt(g)
    bound = 16 * np.linalg.cond(g) * np.finfo(float).eps
    assert (np.abs(got - _lapack_haar(g)).max(axis=(1, 2)) <= bound).all()
    eye = np.eye(n)
    assert np.abs(got @ got.conj().transpose(0, 2, 1) - eye).max() <= 1e-14
    for kernel in (_gram_schmidt, unitary_from_ginibre):
        head = kernel(g[:42])
        for size in (1, 2, 3, 7):
            parts = [kernel(g[lo:lo + size]) for lo in range(0, 42, size)]
            assert np.concatenate(parts).tobytes() == head.tobytes()
        assert kernel(g[5]).tobytes() == head[5].tobytes()
    want = got if n <= _GS_MAX_N else _lapack_haar(g)
    assert unitary_from_ginibre(g[:42]).tobytes() == want[:42].tobytes()


@pytest.mark.parametrize("n", range(1, 10))
def test_haar_gauge_on_both_kernels(n):
    # R = U^H G is upper triangular with real positive diagonal, up to
    # rounding scaled by kappa_2(G) eps ||G||_2: Gram-Schmidt for n <= 5,
    # LAPACK's QR and its phase fix from n = 6 on
    g = _ginibre_stack(n, 2000, np.random.default_rng(200 + n))
    r = unitary_from_ginibre(g).conj().transpose(0, 2, 1) @ g
    sv = np.linalg.svd(g, compute_uv=False)
    tol = 16 * (sv[:, 0] / sv[:, -1]) * np.finfo(float).eps * sv[:, 0]
    lower = np.abs(np.tril(r, -1)).max(axis=(1, 2), initial=0.0)
    diag = np.diagonal(r, axis1=1, axis2=2)
    assert (lower <= tol).all()
    assert (np.abs(diag.imag).max(axis=1) <= tol).all()
    assert (diag.real > 0).all()


def test_degenerate_matrices_still_give_unitaries():
    # a column with (nearly) nothing left after projection goes to LAPACK's
    # QR, matrix by matrix, instead of dividing by a vanishing norm
    rng = np.random.default_rng(3)
    for n in (3, 8):
        g = _ginibre_stack(n, 4, rng)
        g[1] = 0.0
        g[2][:, 1] = 2j * g[2][:, 0]
        got = unitary_from_ginibre(g)
        assert np.abs(got @ got.conj().transpose(0, 2, 1) - np.eye(n)).max() <= 1e-14
        for i in range(4):
            assert unitary_from_ginibre(g[i:i + 1]).tobytes() == got[i:i + 1].tobytes()


def test_minor_det_hand_values():
    u = np.arange(16, dtype=float).reshape(4, 4) + 1
    assert minor_det(u, (1,), (2,)) == 2.0
    want = u[0, 0] * u[1, 1] - u[0, 1] * u[1, 0]
    assert abs(minor_det(u, (1, 2), (1, 2)) - want) < 1e-12
    assert minor_det(u, (), ()) == 1.0


def test_minors_batch_matches_minor_det():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((3, 5, 5)) + 1j * rng.standard_normal((3, 5, 5))
    rows = subset_index_array(5, 2)
    cols = subset_index_array(5, 2)
    out = minors_batch(x, rows, cols)
    for i in range(3):
        for a, p in enumerate(subsets(5, 2)):
            for b, q in enumerate(subsets(5, 2)):
                assert abs(out[i, a, b] - minor_det(x[i], p, q)) < 1e-10


def test_compound_is_multiplicative():
    rng = np.random.default_rng(4)
    u = _haar(5, rng)
    v = _haar(5, rng)
    for k in (1, 2, 3):
        left = _compound(u @ v, k)
        right = _compound(u, k) @ _compound(v, k)
        assert np.allclose(left, right, atol=1e-10)


def test_compound_of_unitary_is_unitary():
    u = _haar(6, np.random.default_rng(5))
    for k in (1, 2, 3):
        b = _compound(u, k)
        dim = binom(6, k)
        assert b.shape == (dim, dim)
        assert np.allclose(b @ b.conj().T, np.eye(dim), atol=1e-10)


def test_compound_entries_are_minors():
    u = _haar(5, np.random.default_rng(6))
    k = 2
    b = _compound(u, k)
    ss = list(subsets(5, k))
    for a, p in enumerate(ss):
        for c, q in enumerate(ss):
            assert abs(b[a, c] - minor_det(u, p, q)) < 1e-12


def test_compound_batch_matches_single():
    rng = np.random.default_rng(7)
    us = np.stack([_haar(5, rng) for _ in range(4)])
    got = compound_batch(us, 3)
    for i in range(4):
        assert np.allclose(got[i], _compound(us[i], 3), atol=1e-12)


def _unitary_of_kind(kind: str, n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar, or a phased permutation / diagonal, whose zero entries hit r = 0."""
    if kind == "haar":
        return _haar(n, rng)
    phases = np.exp(2j * np.pi * rng.random(n))
    if kind == "diagonal":
        return np.diag(phases)
    return np.eye(n)[rng.permutation(n)] * phases


KINDS = ["haar", "permutation", "diagonal"]


@settings(max_examples=80, deadline=None)
@given(
    size=st.integers(1, 8).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n))),
    kinds=st.lists(st.sampled_from(KINDS), min_size=1, max_size=4),
    seed=st.integers(0, 2**32 - 1),
)
@example(size=(8, 0), kinds=KINDS, seed=0)
@example(size=(8, 8), kinds=KINDS, seed=1)
@example(size=(8, 4), kinds=KINDS, seed=2)
@example(size=(1, 1), kinds=KINDS, seed=3)
def test_givens_rotate_matches_compound(size, kinds, seed):
    n, eta = size
    rng = np.random.default_rng(seed)
    u = np.stack([_unitary_of_kind(kind, n, rng) for kind in kinds])
    dim = binom(n, eta)
    amps = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    amps /= np.linalg.norm(amps)
    got = givens_rotate(u, amps, eta)
    assert got.shape == (len(kinds), dim)
    assert np.max(np.abs(got - compound_batch(u, eta) @ amps)) <= 1e-12


def test_givens_rotate_rejects_mismatched_amplitudes():
    with pytest.raises(ValueError):
        givens_rotate(np.eye(4)[None], np.ones(5), 2)


def test_pfaffian_canonical_blocks():
    yhat = np.array([[0.0, 1.0], [-1.0, 0.0]])
    assert abs(pfaffian(yhat) - 1.0) < 1e-14
    two = np.block([
        [yhat, np.zeros((2, 2))],
        [np.zeros((2, 2)), 3.0 * yhat],
    ])
    assert abs(pfaffian(two) - 3.0) < 1e-13
    assert pfaffian(np.zeros((0, 0))) == 1.0


def test_pfaffian_squares_to_determinant():
    rng = np.random.default_rng(8)
    for m in (2, 4, 6, 10):
        a = rng.standard_normal((m, m))
        a = a - a.T
        pf = pfaffian(a)
        assert abs(pf**2 - np.linalg.det(a)) < 1e-8 * max(1.0, abs(np.linalg.det(a)))


def test_pfaffian_congruence_covariance():
    rng = np.random.default_rng(9)
    m = 6
    a = rng.standard_normal((m, m))
    a = a - a.T
    b = rng.standard_normal((m, m))
    assert abs(pfaffian(b @ a @ b.T) - np.linalg.det(b) * pfaffian(a)) < 1e-8


def test_pfaffian_rejects_bad_input():
    with pytest.raises(ValueError, match="even dimension"):
        pfaffian(np.zeros((3, 3)))
    with pytest.raises(ValueError, match="skew-symmetric"):
        pfaffian(np.ones((2, 2)))
    with pytest.raises(ValueError, match="square"):
        pfaffian(np.zeros((2, 4)))

