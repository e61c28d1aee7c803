from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aggregate_oracle import two_pass_aggregate
from algebra_oracle import q_slater
from dense_oracle import (
    compound_batch,
    compound_estimate_matrices,
    estimation_diagonal,
    readout_rows,
)
from haar_oracle import haar, network_unitary
from fermishadow import shadows
from fermishadow.combinat import binom, rank_rows
from fermishadow.fock import FermionState, basis_state, random_state, rdm_matrix
from fermishadow.linalg import givens_rotate, haar_network, network_rows, subset_index_array
from fermishadow.shadows import (
    Reducer,
    all_pairs,
    avg_shadow_norm_sq,
    collect_shadow_arrays,
    estimation_entry,
    estimation_matrix,
    fast_estimate_rdm,
    q_value,
    trace_e_squared,
    variance_bound,
)


def _matrices(ws, k):
    """The kernel's all-pairs estimates as (N, C, C) matrices [shot, rank p, rank q]."""
    c = binom(ws.shape[-1], k)
    return fast_estimate_rdm(ws, k, *all_pairs(ws.shape[-1], k)).reshape(len(ws), c, c)


def test_estimation_entry_frozen():
    assert estimation_entry(2, 1, 1, 1) == 2
    assert estimation_entry(2, 1, 1, 0) == -1
    assert estimation_entry(3, 3, 1, 1) == 1
    assert estimation_entry(4, 2, 2, 3) == 0


def test_estimation_trace_is_eta_at_k1():
    for n in range(1, 9):
        for eta in range(1, n + 1):
            vals = estimation_matrix(n, eta, 1)
            assert sum(binom(eta, s) * binom(n - eta, 1 - s) * v for s, v in enumerate(vals)) == eta


def test_estimation_matrix_expand_frozen():
    e = estimation_diagonal(4, 1, 1)
    assert np.array_equal(e, np.array([4.0, -1.0, -1.0, -1.0]))
    assert trace_e_squared(4, 1, 1) == 19
    assert trace_e_squared(2, 1, 1) == 5


def test_trace_e_squared_matches_expand():
    for n in range(1, 8):
        for eta in range(1, n + 1):
            for k in range(1, eta + 1):
                e = estimation_diagonal(n, eta, k)
                assert abs(float(trace_e_squared(n, eta, k)) - np.sum(e * e)) < 1e-8


def test_per_shadow_norm_identity():
    rng = np.random.default_rng(11)
    for n, eta, k in [(2, 1, 1), (4, 2, 1), (4, 2, 2), (5, 3, 2)]:
        state = random_state(n, eta, rng)
        ws, _ = collect_shadow_arrays(state, 1, seed=7, start_index=3)
        est = _matrices(ws, k)[0]
        want = float(trace_e_squared(n, eta, k))
        assert abs(np.sum(np.abs(est) ** 2) - want) < 1e-8 * want


def test_per_shadow_hermiticity():
    state = random_state(5, 2, np.random.default_rng(3))
    ws, _ = collect_shadow_arrays(state, 1, seed=1, start_index=0)
    for k in (1, 2):
        est = _matrices(ws, k)[0]
        assert np.array_equal(est.conj().T, est)


def test_pair_and_its_reverse_are_exact_conjugates():
    # a table that is not all pairs but holds (p, q) and (q, p) comes out
    # exactly hermitian from either block source
    rng = np.random.default_rng(12)
    for n, eta, k in [(5, 2, 1), (6, 3, 2), (7, 4, 3), (8, 4, 4), (9, 5, 5)]:
        state = random_state(n, eta, rng)
        ws, _ = collect_shadow_arrays(state, 5, seed=n)
        ss = subset_index_array(n, k) + 1
        ps, qs = ss[rng.integers(len(ss), size=6)], ss[rng.integers(len(ss), size=6)]
        ps, qs = np.concatenate([ps, qs, ps[:1]]), np.concatenate([qs, ps, ps[:1]])
        for gather in (True, False):
            got = shadows._block_estimates(ws, k, ps, qs, gather)
            assert np.array_equal(got[:, 6:12], got[:, :6].conj())
            assert np.all(got[:, 12].imag == 0)


def test_batch_matches_single():
    n, eta, k = 4, 2, 2
    state = random_state(n, eta, np.random.default_rng(5))
    ws, _ = collect_shadow_arrays(state, 6, seed=13)
    batch = _matrices(ws, k)
    for i in range(6):
        assert np.allclose(batch[i], _matrices(ws[i:i + 1], k)[0])


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_projector_form_matches_compound_oracle(data):
    n = data.draw(st.integers(1, 6), label="n")
    eta = data.draw(st.integers(0, n), label="eta")
    k = data.draw(st.integers(0, eta), label="k")
    count = data.draw(st.sampled_from([1, 2, 5]), label="N")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    us = np.stack([haar(n, rng) for _ in range(count)])
    zs = np.sort(np.stack([rng.permutation(n)[:eta] + 1 for _ in range(count)]), axis=1)
    want = compound_estimate_matrices(us, zs, eta, k)
    got = _matrices(readout_rows(us, zs), k)
    assert np.array_equal(got, got.conj().transpose(0, 2, 1))
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))


def test_dense_estimate_rejects_bad_input():
    # the snapshot checks are check_shadows': a stack (N, eta, n) with eta <= n
    w = haar(4, np.random.default_rng(3))[None, :2]
    for ws in (w[0], w[None], np.ones((1, 5, 4))):
        with pytest.raises(ValueError, match="stack"):
            fast_estimate_rdm(ws, 1, *all_pairs(4, 1))
    with pytest.raises(ValueError, match="k <= eta"):
        fast_estimate_rdm(w, 3, *all_pairs(4, 3))


def test_collection_is_index_deterministic():
    state = random_state(4, 2, np.random.default_rng(2))
    ws, zs = collect_shadow_arrays(state, 7, seed=40)
    tail_ws, tail_zs = collect_shadow_arrays(state, 5, seed=40, start_index=2)
    assert np.array_equal(ws[2:], tail_ws) and np.array_equal(zs[2:], tail_zs)
    for i in range(7):
        one_w, one_z = collect_shadow_arrays(state, 1, seed=40, start_index=i)
        assert np.array_equal(ws[i], one_w[0]) and np.array_equal(zs[i], one_z[0])


def test_chunking_is_bit_identical(monkeypatch):
    state = random_state(5, 3, np.random.default_rng(2))
    ws, zs = collect_shadow_arrays(state, 7, seed=40)
    for chunk in (2, 3):
        monkeypatch.setattr(shadows, "_CHUNK", chunk)
        cws, czs = collect_shadow_arrays(state, 7, seed=40)
        assert cws.tobytes() == ws.tobytes() and np.array_equal(czs, zs)
        # the kernel on slices of chunk shots, from either block source
        for k in (1, 2, 3):
            ps, qs = all_pairs(5, k)
            for gather in (True, False):
                want = shadows._block_estimates(ws, k, ps, qs, gather)
                got = np.concatenate([
                    shadows._block_estimates(ws[lo:lo + chunk], k, ps, qs, gather)
                    for lo in range(0, 7, chunk)])
                assert got.tobytes() == want.tobytes()


# (start_index, count) ranges: inside the first block; straddling the edge
# at 64 (from 63) and just past it; over several blocks, so that 100-shot
# chunks end inside blocks; and the top range, ending at 2^64-2
_RANGES = [(0, 7), (5, 7), (63, 7), (64, 7), (65, 7), (30, 230), (2**64 - 8, 7)]


@pytest.mark.parametrize("n,eta", [(2, 1), (3, 1), (4, 2), (5, 3), (7, 3), (8, 4)])
def test_chunk_size_moves_rotated_amplitudes_by_rounding_only(monkeypatch, n, eta):
    # network_rows computes each row in real arithmetic, elementwise, so the
    # readout rows are bit for bit rows of the same rotations, drawn again
    # from the streams, for every chunk size, eta = 1 included.
    # The Givens network's broadcast complex products may take other numpy
    # loops for other stack sizes, so the rotated amplitudes agree to rounding
    # only, and a readout may move only where its uniform lies within rounding
    # of a cumulative Born probability.
    state = random_state(n, eta, np.random.default_rng(n))
    seed, default = 5, shadows._CHUNK
    for start, count in _RANGES:
        network, u01 = _reference_draws(n, count, seed, start)
        monkeypatch.setattr(shadows, "_CHUNK", default)
        _, zs = collect_shadow_arrays(state, count, seed, start)
        stacked = givens_rotate(network, state.amps, eta)
        probs = np.abs(stacked) ** 2
        cum = np.cumsum(probs / probs.sum(axis=1)[:, None], axis=1)
        for chunk in (1, 3, 100, default):
            monkeypatch.setattr(shadows, "_CHUNK", chunk)
            cws, czs = collect_shadow_arrays(state, count, seed, start)
            assert cws.tobytes() == network_rows(network, czs - 1).tobytes()
            parts = np.concatenate([givens_rotate(_shots(network, lo, lo + chunk), state.amps, eta)
                                    for lo in range(0, count, chunk)])
            assert np.abs(parts - stacked).max() <= 1e-14
            for i in np.flatnonzero((czs != zs).any(axis=1)):
                assert np.abs(cum[i] - u01[i]).min() <= 1e-12


def _shots(network, lo, hi):
    """The networks of shots lo..hi-1 of a stack."""
    return tuple(a[:, lo:hi] for a in network)


def _reference_draws(n, count, seed, start_index):
    # per shot j a fresh shadow_rng keyed by its 64-shot block, (seed, j // 64):
    # the block's (64, n^2 + 1) uniforms in one call, of which shot j takes
    # row j % 64, its network's n^2 then its Born uniform; then one batched
    # network: (networks, Born uniforms)
    x = np.empty((count, n * n + 1))
    for i in range(count):
        block, pos = divmod(start_index + i, 64)
        x[i] = shadows.shadow_rng(seed, block).random((64, n * n + 1))[pos]
    return haar_network(x[:, :-1]), x[:, -1]


def _per_shot_reference(state, count, seed, start_index):
    # the reference draws, then one batched rotation and Born draw
    n, eta = state.n, state.eta
    network, u01 = _reference_draws(n, count, seed, start_index)
    probs = np.abs(givens_rotate(network, state.amps, eta)) ** 2
    probs /= probs.sum(axis=1)[:, None]
    zs = (subset_index_array(n, eta) + 1)[shadows._draw_ranks(probs, u01)]
    return network, zs


@pytest.mark.parametrize("chunk", [1, 3, 100, None])
@pytest.mark.parametrize("n,eta", [(1, 1), (2, 1), (3, 1), (4, 2), (5, 3), (7, 3), (8, 4)])
def test_rekeyed_collection_matches_fresh_generators(monkeypatch, n, eta, chunk):
    # the collector re-keys one Philox per block; its bits must equal a fresh
    # shadow_rng(seed, block) per shot, or a numpy change to the state layout
    # shows here; the snapshots are those networks' readout rows, bit for bit
    if chunk is not None:
        monkeypatch.setattr(shadows, "_CHUNK", chunk)
    state = random_state(n, eta, np.random.default_rng(n + eta))
    for seed in (0, 2**64 - 1):
        for start, count in _RANGES:
            ws, zs = collect_shadow_arrays(state, count, seed, start_index=start)
            ref_network, ref_zs = _per_shot_reference(state, count, seed, start)
            assert np.array_equal(zs, ref_zs)
            assert ws.tobytes() == network_rows(ref_network, ref_zs - 1).tobytes()


def test_rekeyed_state_equals_fresh_philox():
    # the collector assigns shadows._fresh_state's plain-int template; it must
    # leave exactly the state, and the draws, of a fresh Philox keyed (seed, index)
    for seed, index in [(0, 0), (12345, 7), (0, 2**64 - 1), (2**64 - 1, 2**64 - 1)]:
        gen = shadows.shadow_rng(seed, 0)
        bitgen = gen.bit_generator
        # leave counter, buffer and the cached 32-bit half all in use
        gen.standard_normal(9)
        gen.integers(0, 2**32, dtype=np.uint32)
        bitgen.state = shadows._fresh_state(seed, index)
        got = bitgen.state
        fresh = np.random.Philox(key=np.array([seed, index], dtype=np.uint64))
        want = fresh.state
        assert set(got) == set(want) and set(got["state"]) == set(want["state"])
        assert got["bit_generator"] == want["bit_generator"]
        for field in ("counter", "key"):
            assert np.array_equal(got["state"][field], want["state"][field])
        assert np.array_equal(got["buffer"], want["buffer"])
        for field in ("buffer_pos", "has_uint32", "uinteger"):
            assert got[field] == want[field]
        ref = np.random.Generator(fresh)
        assert gen.standard_normal(9).tobytes() == ref.standard_normal(9).tobytes()
        assert gen.random() == ref.random()


def test_collection_checks_stream_range_before_drawing(monkeypatch):
    state = random_state(4, 2, np.random.default_rng(2))

    def no_draw(*args):
        raise AssertionError("drew before checking the stream range")

    monkeypatch.setattr(shadows, "shadow_rng", no_draw)
    for seed, count, start in [(-1, 1, 0), (2**64, 1, 0), (0, 5, 2**64 - 2), (0, 1, -1),
                               (0, -1, 0), (0, 1, 2**64 - 1)]:
        with pytest.raises(ValueError, match="2\\^64"):
            collect_shadow_arrays(state, count, seed, start_index=start)
    with pytest.raises(ValueError, match="n >= 1"):
        collect_shadow_arrays(FermionState(0, 0, np.ones(1)), 1, 0)


def test_collection_born_statistics():
    # readout counts against each shot's own Born rule, with compound_batch
    # (not the Givens kernel the collector uses) rotating the state by the
    # shot's whole rotation, drawn again from its stream and multiplied out
    # from its network's 2 x 2 blocks
    n, eta, draws = 4, 2, 40000
    state = random_state(n, eta, np.random.default_rng(7))
    _, zs = collect_shadow_arrays(state, draws, seed=9)
    network, _ = _reference_draws(n, draws, 9, 0)
    probs = np.abs(compound_batch(network_unitary(network), eta) @ state.amps) ** 2        # (draws, C)
    ranks = rank_rows(zs, n)
    counts = np.bincount(ranks, minlength=binom(n, eta))
    expected = probs.sum(axis=0)
    sigma = np.sqrt((probs * (1 - probs)).sum(axis=0))
    assert np.all(np.abs(counts - expected) < 5 * np.maximum(sigma, 1e-4 * draws))


def test_collection_memory_grows_by_readout_rows():
    # each shot adds its eta x n readout rows and its readout, not its n x n
    # rotation: at (12, 2) that is 400 bytes, not 2320; and a chunk's
    # temporaries are freed before the next chunk's, so at (16, 2) a second
    # chunk adds about its 2048 snapshots (1.1 MB), not a chunk's rotations
    import tracemalloc

    def peak(state, count):
        tracemalloc.start()
        ws, zs = collect_shadow_arrays(state, count, seed=1)
        out = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert ws.shape == (count, state.eta, state.n) and zs.shape == (count, state.eta)
        return out

    state = random_state(12, 2, np.random.default_rng(12))
    per_shot = (peak(state, 6144) - peak(state, 4096)) / 2048
    assert per_shot < 2 * (2 * 12 * 16 + 2 * 8)
    state = random_state(16, 2, np.random.default_rng(16))
    assert peak(state, 4096) - peak(state, 2048) <= 3 * 2**20


def test_block_positions_are_distinct_shots():
    # a slice that repeated a position within its block would repeat a snapshot
    state = random_state(4, 2, np.random.default_rng(4))
    ws, _ = collect_shadow_arrays(state, 200, seed=0)
    assert len({w.tobytes() for w in ws}) == 200


def test_collection_rejects_unnormalized_state():
    state = random_state(4, 2, np.random.default_rng(2))
    doubled = FermionState(4, 2, 2 * state.amps)
    with pytest.raises(RuntimeError, match="probability defect"):
        collect_shadow_arrays(doubled, 3, seed=40)


def test_effective_frame_invariance():
    # the estimates read the readout rows W only through Pi = W^H W, so W and
    # V W, V any eta x eta unitary, give the same estimates
    rng = np.random.default_rng(31)
    n, eta, k = 6, 3, 2
    state = random_state(n, eta, rng)
    ws, _ = collect_shadow_arrays(state, 1, seed=3, start_index=1)
    ref = _matrices(ws, k)[0]
    for _ in range(3):
        v = haar(eta, rng)
        alt = _matrices(v @ ws, k)[0]
        assert np.max(np.abs(alt - ref)) < 1e-10


def test_particle_number_estimate_is_exact():
    # sum_p D^p_p has a state-independent per-shadow estimate: the trace eta
    n, eta = 5, 3
    state = random_state(n, eta, np.random.default_rng(17))
    ws, _ = collect_shadow_arrays(state, 4, seed=9)
    got = np.trace(_matrices(ws, 1), axis1=1, axis2=2)
    assert got.shape == (4,)
    assert np.all(np.abs(got - eta) < 1e-9)


def test_unbiased_against_dense_oracle():
    n, eta, k = 3, 1, 1
    state = random_state(n, eta, np.random.default_rng(23))
    truth = rdm_matrix(state, k)
    ws, _ = collect_shadow_arrays(state, 6000, seed=77)
    reducer = Reducer(len(ws), binom(n, k) ** 2)
    reducer.add(fast_estimate_rdm(ws, k, *all_pairs(n, k)))
    vals, errs = (a.reshape(binom(n, k), -1) for a in reducer.result())
    for r in range(binom(n, k)):
        for c in range(binom(n, k)):
            val, err = vals[r, c], errs[r, c]
            sig = max(abs(err.real), abs(err.imag), 1e-12)
            assert abs(val - truth[r, c]) < 5 * np.sqrt(2) * sig


def _reduce(table, mode="mean", batches=None):
    """(value, error) of one Reducer pass over a whole (N, T) table."""
    reducer = Reducer(len(table), np.shape(table)[1], mode, batches)
    reducer.add(table)
    return reducer.result()


def test_aggregate_mean():
    val, err = _reduce(np.array([[1.0], [2.0], [3.0], [4.0]]))
    assert val[0] == 2.5
    assert abs(err[0].real - np.std([1, 2, 3, 4], ddof=1) / 2) < 1e-15
    assert err[0].imag == 0
    val, err = _reduce(np.array([[2.0 + 2.0j]]))
    assert val[0] == 2.0 + 2.0j and err[0] == 0


def test_aggregate_median_of_means():
    data = np.array([[1.0], [2.0], [30.0], [4.0], [5.0], [6.0]])
    val, _ = _reduce(data, mode="median_of_means", batches=3)
    assert val[0] == np.median([1.5, 17.0, 5.5])
    with pytest.raises(ValueError):
        _reduce(data, mode="median_of_means", batches=4)
    with pytest.raises(ValueError):
        _reduce(data, mode="median_of_means")
    with pytest.raises(ValueError):
        _reduce(data, mode="trimmed")
    # the batches are checked against N, not against the element count
    with pytest.raises(ValueError, match="divide"):
        _reduce(np.ones((6, 2)), mode="median_of_means", batches=4)
    with pytest.raises(ValueError):
        _reduce(np.ones((0, 3)))
    with pytest.raises(ValueError):
        _reduce(np.ones((2, 2, 2)))


@pytest.mark.parametrize("nsamp,width", [(1, 1), (1, 5), (12, 1), (12, 7), (600, 36)])
def test_aggregate_columns_match_lone_columns(nsamp, width):
    # a Reducer over an (N, T) table must give each column the bits of a
    # Reducer over that column alone, whatever the memory layout of the table
    rng = np.random.default_rng(nsamp * width)
    table = 10.0 ** rng.uniform(-3, 3, width) * (
        rng.standard_normal((nsamp, width)) + 1j * rng.standard_normal((nsamp, width)))
    modes = [("mean", None)] + [("median_of_means", b) for b in (1, 3, 4) if nsamp % b == 0]
    for mode, batches in modes:
        for layout in (table, np.asfortranarray(table), table[:, ::-1][:, ::-1]):
            val, err = _reduce(layout, mode, batches)
            assert val.shape == err.shape == (width,)
            for t in range(width):
                v, e = _reduce(table[:, t:t + 1].copy(), mode, batches)
                assert val[t].tobytes() == v.tobytes()
                assert err[t].tobytes() == e.tobytes()


@pytest.mark.parametrize("chunk", [1, 2, 3, 7])
def test_reducer_chunks_match_two_pass_oracle(chunk):
    # shots fed chunk by chunk must agree with the whole-table two-pass
    # oracle, also where a median-of-means batch straddles chunks
    for nsamp, batch_counts in [(1, [1]), (12, [1, 3, 4, 12]), (21, [3, 7]), (60, [4, 6, 60])]:
        rng = np.random.default_rng(nsamp + chunk)
        width = 5
        table = 10.0 ** rng.uniform(-3, 3, width) * (
            rng.standard_normal((nsamp, width)) + 1j * rng.standard_normal((nsamp, width)))
        scale = np.abs(table).max(axis=0)
        for mode, batches in [("mean", None)] + [("median_of_means", b) for b in batch_counts]:
            reducer = Reducer(nsamp, width, mode, batches)
            for lo in range(0, nsamp, chunk):
                reducer.add(table[lo:lo + chunk])
            val, err = reducer.result()
            want_val, want_err = two_pass_aggregate(table, mode, batches)
            assert np.all(np.abs(val - want_val) <= 1e-12 * scale), (nsamp, mode, batches)
            assert np.all(np.abs(err - want_err) <= 1e-12 * scale), (nsamp, mode, batches)
            mean = table.mean(axis=0)
            want_var = (np.abs(table - mean) ** 2).mean(axis=0)
            assert np.all(np.abs(reducer.variance() - want_var) <= 1e-12 * scale ** 2)


def test_reducer_rejects_misuse():
    reducer = Reducer(4, 2)
    with pytest.raises(ValueError, match="chunk"):
        reducer.add(np.ones((2, 3)))
    reducer.add(np.ones((3, 2)))
    with pytest.raises(ValueError, match="3 of 4"):
        reducer.result()
    with pytest.raises(ValueError, match="chunk"):
        reducer.add(np.ones((2, 2)))
    with pytest.raises(ValueError, match="divide"):
        Reducer(6, 1, "median_of_means", 4)
    with pytest.raises(ValueError, match="mode"):
        Reducer(6, 1, "trimmed")
    with pytest.raises(ValueError, match="count"):
        Reducer(0, 1)


def test_q_value_is_average_second_moment():
    for n in range(1, 8):
        for eta in range(1, n + 1):
            for k in range(1, eta + 1):
                assert q_value(n, eta, k) == trace_e_squared(n, eta, k) / binom(n, k) ** 2


def test_q_slater_matches_and_stays_bounded():
    for eta in range(1, 21):
        n = 2 * eta
        q = q_slater(n, eta)
        assert q == q_value(n, eta, eta)
        assert q <= Fraction(4, 3)
    assert q_slater(4, 2) > q_slater(6, 2)


def test_variance_bound_dominates_q():
    for n in range(1, 9):
        for eta in range(1, n + 1):
            for k in range(1, eta + 1):
                assert q_value(n, eta, k) <= variance_bound(n, eta, k)


def test_frozen_variance_quantities():
    assert q_value(2, 1, 1) == Fraction(5, 4)
    assert avg_shadow_norm_sq(2, 1, 1) == Fraction(9, 8)
    assert variance_bound(2, 1, 1) == Fraction(3, 2)

