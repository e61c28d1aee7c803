import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dense_oracle import compound_batch, minor_det, minors_batch
from fermishadow.combinat import binom, subsets
from fermishadow.linalg import (
    _adjacent_pairs,
    givens_rotate,
    haar_network,
    network_rows,
    subset_index_array,
)
from haar_oracle import givens_network, haar, network_rows_reference, network_unitary, qr_haar, whole
from pfaffian_oracle import pfaffian

RNG = np.random.default_rng(20240816)


def _compound(u, k):
    return compound_batch(u[None], k)[0]


def _sampled(n, m, rng):
    """m whole Haar unitaries (m, n, n) from the shipped sampler, and their networks."""
    network = haar_network(rng.random((m, n * n)))
    return whole(network), network


def test_haar_unitary_is_unitary():
    for n in (1, 2, 5, 9):
        us, _ = _sampled(n, 500, np.random.default_rng(n))
        assert np.abs(us @ us.conj().transpose(0, 2, 1) - np.eye(n)).max() <= 1e-14
        u = haar(n, np.random.default_rng(n))
        assert np.allclose(u @ u.conj().T, np.eye(n), atol=1e-12)


def test_haar_first_moment():
    # 170k draws put the 5e-3 bound on |E u_ij| at 5 standard errors
    # sqrt(1 / (2 n m)) per real part; 40k draws made it 2.4
    n, m = 3, 170_000
    us, _ = _sampled(n, m, np.random.default_rng(0))
    second = np.mean(np.abs(us) ** 2, axis=0)
    assert np.allclose(second, 1.0 / n, atol=5e-3)
    first = np.abs(np.mean(us, axis=0)).max()
    assert first < 5e-3


def test_haar_phase_sensitive_moment():
    # E[u11 u22 conj(u12) conj(u21)] = -1/(n(n^2-1))
    n, m = 2, 200000
    us, _ = _sampled(n, m, np.random.default_rng(1))
    got = np.mean(us[:, 0, 0] * us[:, 1, 1] * np.conj(us[:, 0, 1] * us[:, 1, 0]))
    want = -1.0 / (n * (n**2 - 1))
    assert abs(got - want) < 4e-3


@pytest.mark.parametrize("n", range(2, 6))
def test_haar_diagonal_phases(n):
    # u and e^{i phi} u are equally likely, so E[u_ij^2] = 0 for every entry
    # and E[det u] = 0: moments that see the phases of s at each column's
    # bottom step and of D, which the twirl moments, |.|-only, cannot
    m = 50_000
    us, _ = _sampled(n, m, np.random.default_rng(300 + n))
    stats = np.concatenate([(us ** 2).reshape(m, -1), np.linalg.det(us)[:, None]], axis=1)
    for part in (stats.real, stats.imag):
        z = np.abs(part.mean(axis=0)) / (part.std(axis=0, ddof=1) / np.sqrt(m))
        assert z.max() < 5.0


@pytest.mark.parametrize("n", range(1, 9))
def test_network_matches_dense_product(n):
    # rows and rotated amplitudes of sampled networks against u built as the
    # dense product of its embedded 2 x 2 blocks, and the Givens reduction
    # of that u gives the sampled parameters back
    rng = np.random.default_rng(400 + n)
    us, network = _sampled(n, 64, rng)
    dense = network_unitary(network)
    assert np.abs(us - dense).max() <= 1e-14
    zs = np.sort(np.stack([rng.permutation(n)[:max(1, n // 2)] for _ in range(64)]), axis=1)
    rows = network_rows(network, zs)
    assert rows.tobytes() == us[np.arange(64)[:, None], zs].tobytes()
    for eta in range(n + 1):
        dim = binom(n, eta)
        amps = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        amps /= np.linalg.norm(amps)
        got = givens_rotate(network, amps, eta)
        assert np.abs(got - compound_batch(dense, eta) @ amps).max() <= 1e-14
    for got, want in zip(givens_network(dense), network):
        assert np.abs(got - want).max(initial=0.0) <= 1e-13


@pytest.mark.parametrize("n", range(1, 10))
def test_haar_gauge_on_both_kernels(n):
    # the two Haar routes each fix a gauge.  The QR oracle: R = U^H G is
    # upper triangular with real positive diagonal, up to rounding scaled by
    # kappa_2(G) eps ||G||_2.  The shipped sampler: the Givens reduction of
    # its u finds s real and >= 0 off each column's bottom step and D = 1 on
    # modes 0..n-2, so all of u's phase freedom sits in the uniforms it drew
    rng = np.random.default_rng(200 + n)
    g = (rng.standard_normal((2000, n, n)) + 1j * rng.standard_normal((2000, n, n))) / np.sqrt(2)
    r = qr_haar(g).conj().transpose(0, 2, 1) @ g
    sv = np.linalg.svd(g, compute_uv=False)
    tol = 16 * (sv[:, 0] / sv[:, -1]) * np.finfo(float).eps * sv[:, 0]
    lower = np.abs(np.tril(r, -1)).max(axis=(1, 2), initial=0.0)
    diag = np.diagonal(r, axis1=1, axis2=2)
    assert (lower <= tol).all()
    assert (np.abs(diag.imag).max(axis=1) <= tol).all()
    assert (diag.real > 0).all()
    us, _ = _sampled(n, 2000, rng)
    _, s, d = givens_network(us)
    # a column's bottom step rotates modes (n-2, n-1)
    above = np.array([i < n - 1 for j in range(n - 1) for i in range(n - 1, j, -1)], dtype=bool)
    assert np.abs(s[above].imag).max(initial=0.0) <= 1e-14 and (s[above].real >= 0).all()
    assert np.abs(d[:-1] - 1).max(initial=0.0) <= 1e-14
    assert np.abs(np.abs(d[-1]) - 1).max() <= 1e-14


def test_degenerate_matrices_still_give_unitaries():
    # random() draws from [0, 1), so a uniform can be exactly 0 (log 0 = -inf:
    # |s| = 0, the identity block) or 1 - 2^-53 (|c| ~ 1e-8, nearly a swap);
    # the networks of such draws still give finite unitaries, stack-independent
    rng = np.random.default_rng(3)
    for n in (3, 8):
        x = rng.random((4, n * n))
        x[1] = 0.0
        x[2, :n] = 1 - 2.0**-53
        x[3, ::2] = 0.0
        network = haar_network(x)
        got = whole(network)
        assert np.isfinite(got).all()
        assert np.abs(got @ got.conj().transpose(0, 2, 1) - np.eye(n)).max() <= 1e-14
        for i in range(4):
            one = network_rows(tuple(a[:, i:i + 1] for a in network), np.arange(n)[None])
            assert one.tobytes() == got[i:i + 1].tobytes()


def test_network_rows_do_not_depend_on_the_stack():
    for n, eta in [(2, 1), (3, 1), (5, 3), (8, 4)]:
        rng = np.random.default_rng(n)
        network = haar_network(rng.random((9, n * n)))
        zs = np.sort(np.stack([rng.permutation(n)[:eta] for _ in range(9)]), axis=1)
        stacked = network_rows(network, zs)
        for size in (1, 2, 7):
            parts = [network_rows(tuple(a[:, lo:lo + size] for a in network), zs[lo:lo + size])
                     for lo in range(0, 9, size)]
            assert np.concatenate(parts).tobytes() == stacked.tobytes()


@pytest.mark.parametrize("n", range(1, 11))
def test_network_rows_match_slab_reference(n):
    # the stacked update against the slab-by-slab kernel it replaced, bit for
    # bit: every eta from 0 (zero-width rows) to n, sorted and repeated modes,
    # all n modes, stacks of 1 to 40 shots, n = 1 (no steps at all), and the
    # degenerate draws of test_degenerate_matrices_still_give_unitaries,
    # whose zeros carry signs
    rng = np.random.default_rng(500 + n)
    for count in (1, 4, 13, 40):
        x = rng.random((count, n * n))
        x[1::4] = 0.0
        x[2::4, :n] = 1 - 2.0**-53
        x[3::4, ::2] = 0.0
        network = haar_network(x)
        tables = [np.broadcast_to(np.arange(n), (count, n))]
        for eta in range(n + 1):
            tables.append(np.sort(np.stack([rng.permutation(n)[:eta] for _ in range(count)]), axis=1))
            tables.append(rng.integers(n, size=(count, eta)))
        for zs in tables:
            got = network_rows(network, zs)
            assert got.shape == (count, zs.shape[1], n)
            assert got.tobytes() == network_rows_reference(network, zs).tobytes()


def test_haar_network_rejects_bad_widths():
    for x in (np.zeros((3, 0)), np.zeros((3, 5)), np.zeros(4)):
        with pytest.raises(ValueError, match="n >= 1"):
            haar_network(x)
    with pytest.raises(ValueError, match="rows"):
        network_rows(haar_network(np.zeros((2, 4))), np.zeros((3, 1), dtype=int))
    # a mode outside 0..n-1 or a float is no row of u, not an all-zero one
    network = haar_network(np.zeros((1, 16)))
    for rows in ([[4]], [[-1]], [[0, 5]]):
        with pytest.raises(ValueError, match="in 0..3"):
            network_rows(network, rows)
    for rows in ([[1.7]], [[1.0]], [[True]], np.zeros((1, 0))):
        with pytest.raises(ValueError, match="integer modes"):
            network_rows(network, rows)


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
    u = haar(5, rng)
    v = haar(5, rng)
    for k in (1, 2, 3):
        left = _compound(u @ v, k)
        right = _compound(u, k) @ _compound(v, k)
        assert np.allclose(left, right, atol=1e-10)


def test_compound_of_unitary_is_unitary():
    u = haar(6, np.random.default_rng(5))
    for k in (1, 2, 3):
        b = _compound(u, k)
        dim = binom(6, k)
        assert b.shape == (dim, dim)
        assert np.allclose(b @ b.conj().T, np.eye(dim), atol=1e-10)


def test_compound_entries_are_minors():
    u = haar(5, np.random.default_rng(6))
    k = 2
    b = _compound(u, k)
    ss = list(subsets(5, k))
    for a, p in enumerate(ss):
        for c, q in enumerate(ss):
            assert abs(b[a, c] - minor_det(u, p, q)) < 1e-12


def test_compound_batch_matches_single():
    rng = np.random.default_rng(7)
    us = np.stack([haar(5, rng) for _ in range(4)])
    got = compound_batch(us, 3)
    for i in range(4):
        assert np.allclose(got[i], _compound(us[i], 3), atol=1e-12)


def _unitary_of_kind(kind: str, n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar, or a phased permutation / diagonal, whose zero entries hit r = 0."""
    if kind == "haar":
        return haar(n, rng)
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
    network = givens_network(u)
    got = givens_rotate(network, amps, eta)
    assert got.shape == (len(kinds), dim)
    assert np.max(np.abs(got - compound_batch(u, eta) @ amps)) <= 1e-12
    assert np.max(np.abs(whole(network) - u)) <= 1e-12


def _adjacent_pairs_from_masks(n, k):
    """_adjacent_pairs from int64 bitmasks, bit m-1 for mode m: colex order is
    ascending mask order, so a mask's rank is its place in the sorted list."""
    masks = np.array([sum(1 << (m - 1) for m in z) for z in subsets(n, k)], dtype=np.int64)
    out = []
    for m in range(n - 1):
        lo = np.flatnonzero(((masks >> m) & 3) == 1)
        out.append((lo, np.searchsorted(masks, masks[lo] ^ (3 << m))))
    return out


def test_adjacent_pairs_match_bitmask_oracle():
    for n in range(1, 15):
        for k in range(n + 1):
            got, want = _adjacent_pairs(n, k), _adjacent_pairs_from_masks(n, k)
            assert len(got) == len(want) == n - 1
            for (lo, hi), (want_lo, want_hi) in zip(got, want):
                assert lo.tolist() == want_lo.tolist() and hi.tolist() == want_hi.tolist()
                assert not (lo.flags.writeable or hi.flags.writeable)


@pytest.mark.parametrize("n, k", [(64, 2), (64, 4), (100, 99)])
def test_adjacent_pairs_past_63_modes(n, k):
    # no int64 bitmask, and no binomial table entry above C(n, k): C(99, 49)
    # would overflow at (100, 99), whose sector has 100 amplitudes
    idx = subset_index_array(n, k)
    pairs = _adjacent_pairs(n, k)
    assert len(pairs) == n - 1
    for m, (lo, hi) in enumerate(pairs):
        assert len(lo) == binom(n - 2, k - 1)
        moved = np.where(idx[lo] == m, m + 1, idx[lo])
        assert (idx[lo] == m).any(axis=1).all() and np.array_equal(idx[hi], moved)


def test_givens_rotate_rejects_mismatched_amplitudes():
    network = givens_network(np.eye(4)[None])
    with pytest.raises(ValueError, match="amplitudes"):
        givens_rotate(network, np.ones(5), 2)
    with pytest.raises(ValueError, match="network"):
        givens_rotate(network[:2] + (np.ones((3, 1)),), np.ones(3), 1)


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

