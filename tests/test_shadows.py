import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

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
from fermishadow.channel import overlap_class_array
from fermishadow.combinat import binom, rank_rows, subsets
from fermishadow.fock import _NORM_SQ_TOL, FermionState, basis_state, random_state, rdm_matrix
from fermishadow.cli import run_validation
from fermishadow.identities import (
    check_shadow_norms,
    check_shadow_one_body,
    check_shadow_swap,
    check_shadow_trace,
)
from fermishadow.linalg import givens_rotate, haar_network, network_rows, subset_index_array
from fermishadow.shadows import (
    Reducer,
    all_pairs,
    avg_shadow_norm_sq,
    check_fast_vs_dense,
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


def test_estimation_entry_needs_an_integer_class():
    # s' outside 0..k gives 0, but a non-integer s' names no class at all
    for s_prime in (1.5, 1.0, True):
        with pytest.raises(ValueError, match="integer s'"):
            estimation_entry(4, 2, 2, s_prime)


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
        estimate = shadows._block_plan(n, eta, k, ps, qs)
        for gather in (True, False):
            got = estimate(ws, gather)
            assert np.array_equal(got[:, 6:12], got[:, :6].conj())
            assert np.all(got[:, 12].imag == 0)


@pytest.mark.parametrize("n,eta,k", [(7, 3, 1), (7, 3, 2), (7, 3, 3), (24, 4, 2), (16, 8, 4),
                                     (12, 6, 6)])
def test_per_shot_trace_is_binom_eta_k(n, eta, k):
    # sum_p of the k-body transitions (p, p) is C(eta, k) on the eta-particle
    # sector, and the inverted channel keeps the trace, so every single shot's
    # diagonal estimates sum to C(eta, k): an oracle-free check of the kernel
    # on tables of up to 1820 targets, past any dense route, and the check
    # validate runs.  A diagonal entry is w_0 plus terms D + conj(D), so its
    # imaginary part is exactly 0
    state = random_state(n, eta, np.random.default_rng(100 * n + k))
    ws, _ = collect_shadow_arrays(state, 3, seed=k)
    ok, gap, traces = check_shadow_trace(ws, k)
    assert ok, gap
    assert traces.shape == (3,) and np.all(traces.imag == 0)


@pytest.mark.parametrize("n,eta", [(1, 1), (4, 2), (5, 3), (6, 6), (8, 3), (12, 1), (16, 8)])
def test_per_shot_one_body_table_is_the_inverted_projector(n, eta):
    # at k = 1 the inverse channel is linear in Pi: every single shot's table
    # of all n^2 transitions is (n + 1) Pi^T - eta I, whatever the state
    state = random_state(n, eta, np.random.default_rng(7 * n + eta))
    ws, _ = collect_shadow_arrays(state, 5, seed=n)
    ok, gap, tables = check_shadow_one_body(ws)
    assert ok, gap
    assert tables.shape == (5, n, n)


def test_one_body_check_sees_a_transposed_table(monkeypatch):
    # the conjugate put on D[q, p] instead of D[p, q] makes every shot's table
    # its conjugate, at k = 1 its transpose: the norm and trace checks pass
    # it, and the one-body check must not
    ws, _ = collect_shadow_arrays(random_state(5, 2, np.random.default_rng(3)), 6, seed=2)

    def mutant(self, ws, gather=None):
        sums = self._block_sums(ws, self.rule if gather is None else gather)
        yield 0, np.conjugate(sums[self.which[0]]) + sums[self.which[1]] + self.diagonal[:, None]

    assert check_shadow_one_body(ws)[0]
    monkeypatch.setattr(shadows._BlockPlan, "columns", mutant)
    assert check_shadow_norms(ws, 1)[0] and check_shadow_trace(ws, 1)[0]
    ok, gap, _ = check_shadow_one_body(ws)
    assert not ok and gap > 0.1


@pytest.mark.parametrize("n, eta", [(4, 2), (5, 3), (8, 4)])
def test_swapped_table_is_the_conjugate_per_shot(n, eta):
    # target (q, p) reads the blocks of (p, q) the other way round: per shot, a
    # listed table and its swap, planned apart, are conjugates at every k
    rng = np.random.default_rng(11 * n + eta)
    ws, _ = collect_shadow_arrays(random_state(n, eta, rng), 5, seed=eta)
    for k in range(1, eta + 1):
        ss = subset_index_array(n, k) + 1
        p, q = ss[rng.integers(len(ss), size=(2, 8))]
        ok, gap, table = check_shadow_swap(ws, k, p, q)
        assert ok, (k, gap)
        assert table.shape == (5, 8)


def test_swap_check_sees_a_flip_map_from_each_targets_own_orientation(monkeypatch):
    # flip taken as each target's own orientation, not relative to its column's
    # head: in an all-pairs table every head is unswapped, so the two maps agree
    # there and the other per-shot checks pass the mutant; the swap check, and
    # with it validate, must not
    plan = shadows._block_plan

    def mutant(n, eta, k, p, q):
        estimate = plan(n, eta, k, p, q)
        ps, qs = np.atleast_2d(p, q)
        differ = ps != qs
        estimate.flip = (differ & (np.cumsum(differ, axis=1) == 1) & (qs < ps)).any(axis=1)
        return estimate

    ws, _ = collect_shadow_arrays(random_state(5, 3, np.random.default_rng(4)), 6, seed=3)
    p, q = np.array([[1, 2], [2, 4], [1, 5]]), np.array([[3, 4], [1, 3], [2, 3]])
    assert check_shadow_swap(ws, 2, p, q)[0]
    monkeypatch.setattr(shadows, "_block_plan", mutant)
    ok, gap, _ = check_shadow_swap(ws, 2, p, q)
    assert not ok and gap > 0.1
    report = run_validation("quick")
    failed = [c["name"] for c in report["checks"] if not c["passed"]]
    assert failed == ["per_shadow_swap"] and report["passed"] is False


def _contraction(n, ps, qs):
    """(P, Q, S): the k-targets of the contraction of each (k-1)-pair (ps[j], qs[j]).

    Row t of P and Q is a target (p+m, q+m) of one pair j, m a mode in
    neither p nor q and p+m the sorted p with m put in, and S[t, j] its sign
    (-1)^(modes of p below m + modes of q below m); 0 off its pair.  So for
    estimates e (N, T) of the targets, e @ S sums each pair's signed terms.
    """
    rows, cols, signs = [], [], []
    for j, (p, q) in enumerate(zip(ps.tolist(), qs.tolist())):
        for m in sorted(set(range(1, n + 1)) - set(p) - set(q)):
            rows.append((sorted(p + [m]), sorted(q + [m])))
            cols.append(j)
            signs.append((-1) ** (sum(x < m for x in p) + sum(x < m for x in q)))
    table = np.array(rows, dtype=np.int64)
    s = np.zeros((len(rows), len(ps)))
    s[np.arange(len(rows)), cols] = signs
    return table[:, 0], table[:, 1], s


def test_contraction_sign_convention_on_exact_rdms():
    # sum over m outside p and q of +- gamma^k[p+m, q+m] = (eta-k+1) gamma^(k-1)[p, q]
    # on the eta-particle sector, with _contraction's signs; without them it fails
    n, eta = 7, 3
    state = random_state(n, eta, np.random.default_rng(73))
    for k in (1, 2, 3):
        ps, qs = all_pairs(n, k - 1)
        big, small = rdm_matrix(state, k), rdm_matrix(state, k - 1)
        p, q, s = _contraction(n, ps, qs)
        values = big[rank_rows(p, n), rank_rows(q, n)]
        want = (eta - k + 1) * small[rank_rows(ps, n), rank_rows(qs, n)]
        assert np.all(np.abs(values @ s - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))
        if k == 2:
            assert not np.allclose(values @ np.abs(s), want)


@pytest.mark.parametrize("n,eta,k,pairs", [(7, 3, 2, None), (7, 3, 3, None), (16, 8, 3, 24)])
def test_per_shot_contraction_of_listed_targets(n, eta, k, pairs):
    # the contraction holds in every single shot, as the trace does: the inverted
    # channel is exact on the sector.  At (16, 8) no dense oracle runs; 24
    # drawn (k-1)-pairs, and their p = q pairs, need a few hundred listed targets
    rng = np.random.default_rng(10 * n + k)
    state = random_state(n, eta, rng)
    ws, _ = collect_shadow_arrays(state, 40 if pairs is None else 3, seed=k)
    ps, qs = all_pairs(n, k - 1)
    if pairs is not None:
        pick = rng.integers(len(ps), size=pairs)
        ps, qs = np.concatenate([ps[pick], ps[pick]]), np.concatenate([qs[pick], ps[pick]])
    p, q, s = _contraction(n, ps, qs)
    got = fast_estimate_rdm(ws, k, p, q) @ s
    want = (eta - k + 1) * fast_estimate_rdm(ws, k - 1, ps, qs)
    assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))


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
        # one plan applied to slices of chunk shots, from either block source
        for k in (1, 2, 3):
            estimate = shadows._block_plan(5, 3, k, *all_pairs(5, k))
            for gather in (True, False):
                want = estimate(ws, gather)
                got = np.concatenate([estimate(ws[lo:lo + chunk], gather)
                                      for lo in range(0, 7, chunk)])
                assert got.tobytes() == want.tobytes()


# (start_index, count) ranges: from the stream's start; starting at every
# residue of start_index (n^2 + 1) mod 4 that n allows, where the collector's
# jump drops 0..3 numbers; over several chunks, so that 100-shot chunks end
# mid-range; and the top range, ending at 2^64-2
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
    # shot j reads numbers j w .. (j+1) w - 1, w = n^2 + 1, of the stream keyed
    # (seed, 0), its network's n^2 then its Born uniform; drawn here by
    # another path than the collector's: a range that starts near 0 as the
    # whole prefix from a fresh Philox, the top range by a jump 5 counter
    # steps (20 numbers) short of the collector's, dropping the numbers up to
    # the first shot.  Then one batched network: (networks, Born uniforms)
    w = n * n + 1
    gen = np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))
    if start_index <= 300:
        x = gen.random((start_index + count, w))[start_index:]
    else:
        steps = start_index * w // 4 - 5
        gen.bit_generator.advance(steps)
        x = gen.random(start_index * w - 4 * steps + count * w)[-count * w:].reshape(count, w)
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
    # the collector jumps once to its first shot and draws a chunk per call;
    # its bits must equal the oracle's slice of the one stream (seed, 0), or a
    # numpy change to Philox's advance or its 4-number counter step shows
    # here; the snapshots are those networks' readout rows, bit for bit
    if chunk is not None:
        monkeypatch.setattr(shadows, "_CHUNK", chunk)
    state = random_state(n, eta, np.random.default_rng(n + eta))
    for seed in (0, 2**64 - 1):
        for start, count in _RANGES:
            ws, zs = collect_shadow_arrays(state, count, seed, start_index=start)
            ref_network, ref_zs = _per_shot_reference(state, count, seed, start)
            assert np.array_equal(zs, ref_zs)
            assert ws.tobytes() == network_rows(ref_network, ref_zs - 1).tobytes()


def test_collection_checks_stream_range_before_drawing(monkeypatch):
    state = random_state(4, 2, np.random.default_rng(2))

    def no_draw(*args):
        raise AssertionError("drew before checking the stream range")

    monkeypatch.setattr(shadows, "shadow_rng", no_draw)
    for seed, count, start in [(-1, 1, 0), (2**64, 1, 0), (0, 5, 2**64 - 2), (0, 1, -1),
                               (0, -1, 0), (0, 1, 2**64 - 1),
                               # non-integers once drew seed 1's shots or raised TypeError
                               (1.5, 3, 0), (True, 3, 0), (np.float64(1), 3, 0),
                               (1, 3.0, 0), (1, 3, 1.0), (1, True, 0),
                               (0, np.uint64(5), np.uint64(2**64 - 2))]:
        with pytest.raises(ValueError, match="2\\^64"):
            collect_shadow_arrays(state, count, seed, start_index=start)
    with pytest.raises(ValueError, match="n >= 1"):
        collect_shadow_arrays(FermionState(0, 0, np.ones(1)), 1, 0)


def test_numpy_integer_seeds_draw_as_python_ints():
    state = random_state(4, 2, np.random.default_rng(2))
    want = collect_shadow_arrays(state, 70, 2**64 - 1, start_index=3)
    for seed, start in [(np.uint64(2**64 - 1), np.int64(3)), (2**64 - 1, np.uint8(3))]:
        got = collect_shadow_arrays(state, np.int32(70), seed, start_index=start)
        assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))
    ref = shadows.shadow_rng(5, 2**64 - 1).random(4)
    assert shadows.shadow_rng(np.int16(5), np.uint64(2**64 - 1)).random(4).tobytes() == ref.tobytes()


def test_shadow_rng_keys_only_uint64_pairs():
    for seed, index in [(1, 2**64), (1, -1), (2**64, 0), (-1, 0), (1.0, 0), (1, True)]:
        with pytest.raises(ValueError, match=r"integers in 0\.\.2\^64-1"):
            shadows.shadow_rng(seed, index)


def test_collection_records_its_worst_born_defect():
    # a record dict keeps the largest |sum probs - 1| over every call given it
    state = random_state(5, 2, np.random.default_rng(3))
    record = {}
    collect_shadow_arrays(state, 300, 1, record=record)
    first = record["born_worst_defect"]
    assert 0.0 <= first <= _NORM_SQ_TOL
    collect_shadow_arrays(state, 300, 1, start_index=300, record=record)
    assert first <= record["born_worst_defect"] <= _NORM_SQ_TOL
    # a state normalized only to 5e-7 shows that defect, still within the collector's tolerance
    off = FermionState(state.n, state.eta, state.amps * np.sqrt(1 + 5e-7))
    record = {}
    collect_shadow_arrays(off, 10, 1, record=record)
    assert abs(record["born_worst_defect"] - 5e-7) < 1e-12


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
    # a jump or chunk that read a shot's numbers twice would repeat a snapshot
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
            # a (0, width) chunk midway changes no bit, and takes no mean of
            # an empty slice (a RuntimeWarning, and a NaN running mean)
            padded = Reducer(nsamp, width, mode, batches)
            starts = range(0, nsamp, chunk)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                for lo in starts:
                    if lo == starts[len(starts) // 2]:
                        padded.add(table[:0])
                    padded.add(table[lo:lo + chunk])
            for got, want in zip((*padded.result(), padded.variance()),
                                 (val, err, reducer.variance())):
                assert got.tobytes() == want.tobytes(), (nsamp, mode, batches)


def test_reducer_rejects_misuse():
    reducer = Reducer(4, 2)
    # variance() once divided by the shots seen so far: [nan] and a
    # RuntimeWarning with none, a partial value after some
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="0 of 4"):
            reducer.variance()
    with pytest.raises(ValueError, match="chunk"):
        reducer.add(np.ones((2, 3)))
    with pytest.raises(ValueError, match="chunk"):
        reducer.add(np.ones((2, 1)))        # too narrow: a tile needs its lo
    reducer.add(np.ones((3, 2)))
    for early in (reducer.result, reducer.variance):
        with pytest.raises(ValueError, match="3 of 4"):
            early()
    with pytest.raises(ValueError, match="chunk"):
        reducer.add(np.ones((2, 2)))
    with pytest.raises(ValueError, match="divide"):
        Reducer(6, 1, "median_of_means", 4)
    with pytest.raises(ValueError, match="mode"):
        Reducer(6, 1, "trimmed")
    for batches in (5, 2.5):        # batches are given only under median_of_means
        with pytest.raises(ValueError, match="only under median_of_means"):
            Reducer(10, 3, "mean", batches)
    with pytest.raises(ValueError, match="count"):
        Reducer(0, 1)


@pytest.mark.parametrize("mode,batches", [("mean", None), ("median_of_means", 7)])
def test_column_tiles_and_mirror_match_whole_reductions(mode, batches):
    # a chunk fed as column tiles gives each column the bits of whole-width
    # adds, and a column's result mirrored as 0.0 - v gives the bits of
    # reducing its conjugate, np.signbit included.  The conjugate table holds
    # no -0.0, as the kernel's estimates hold none; chunks of 20, 13 and 37
    # shots make batches of 10 straddle them
    rng = np.random.default_rng(5)
    nsamp, width = 70, 9
    table = rng.standard_normal((nsamp, width)) + 1j * rng.standard_normal((nsamp, width))
    table.imag[:, :2] = 0.0                      # real columns, as a diagonal target's
    table.imag[::2, 2] = 0.0
    table[:, 3] = table[0, 3]                    # one value in every shot
    conj = table.copy()
    conj.imag = 0.0 - table.imag
    assert not np.signbit(conj.imag[conj.imag == 0]).any()
    whole, tiled, mirrored = (Reducer(nsamp, width, mode, batches) for _ in range(3))
    for lo, hi in [(0, 20), (20, 33), (33, 70)]:
        whole.add(table[lo:hi])
        mirrored.add(conj[lo:hi])
        for c0, c1 in [(0, 4), (4, 5), (5, 5), (5, 9)]:
            tiled.add(table[lo:hi, c0:c1], c0)
    (val, err), var = whole.result(), whole.variance()
    for got, want in zip((*tiled.result(), tiled.variance()), (val, err, var)):
        assert got.tobytes() == want.tobytes()
    assert (val.imag == 0).any() and not np.signbit(val.imag[val.imag == 0]).any()
    flipped = val.copy()
    flipped.imag = 0.0 - val.imag
    for got, want in zip((*mirrored.result(), mirrored.variance()), (flipped, err, var)):
        assert got.tobytes() == want.tobytes()
        assert np.array_equal(np.signbit(got.imag), np.signbit(want.imag))
    # -v, the plain negation, would print a mirrored 0 as -0
    assert np.signbit(-val.imag).any()


def test_column_tiles_must_come_in_order():
    reducer = Reducer(4, 3)
    reducer.add(np.ones((2, 1)), 0)
    with pytest.raises(ValueError, match="chunk of columns 1.."):
        reducer.add(np.ones((2, 1)), 2)         # skips column 1
    with pytest.raises(ValueError, match="chunk of columns 1.."):
        reducer.add(np.ones((3, 2)), 1)         # other shots than the chunk's
    with pytest.raises(ValueError, match="chunk of columns 1.."):
        reducer.add(np.ones((2, 3)), 1)         # past the last column
    with pytest.raises(ValueError, match="chunk of columns 1.."):
        reducer.add(np.ones((2, 3)))            # a whole chunk while a tiled one is open
    with pytest.raises(ValueError, match="0 of 4"):
        reducer.result()                        # the open chunk does not count yet
    reducer.add(np.ones((2, 2)), 1)
    assert reducer.seen == 2
    reducer.add(np.ones((2, 3)))
    assert reducer.result()[0].tobytes() == np.ones(3, dtype=complex).tobytes()


def _target_estimates(plan, ws, ps, qs):
    """(T, N): each target assembled on its own, w_0 [p = q] + D[q, p] + conj(D[p, q]),
    its two blocks looked up in plan.blocks and read from the plan's block sums."""
    sums = plan._block_sums(ws, plan.rule)
    rows = {tuple(b): i for i, b in enumerate(plan.blocks.tolist())}
    w0 = shadows._dft_points(plan.n, ws.shape[1], plan.k)[0]
    out = []
    for p, q in zip(ps.tolist(), qs.tolist()):
        back, forth = rows[tuple(m - 1 for m in q + p)], rows[tuple(m - 1 for m in p + q)]
        est = sums[back] + np.conjugate(sums[forth])
        est += complex(w0 if p == q else 0.0)
        out.append(est)
    return np.array(out)


@pytest.mark.parametrize("n,eta,k", [(4, 2, 0), (5, 2, 1), (5, 3, 2), (6, 3, 3), (6, 4, 4)])
def test_columns_hold_each_transition_pair_once(monkeypatch, n, eta, k):
    # (p, q), (q, p) and a repeated target share one column; each target is its
    # column's estimate, or where flipped its mirror (re, 0.0 - im), bit for bit
    # in every shot, with one root (k <= 2) or several (k >= 3).  A small
    # _TILE cuts the columns into tiles
    monkeypatch.setattr(shadows, "_TILE", 40)
    ws, _ = collect_shadow_arrays(random_state(n, eta, np.random.default_rng(k)), 7, seed=n + k)
    ps, qs = all_pairs(n, k)
    ps, qs = np.concatenate([ps, ps[:9], qs[:9]]), np.concatenate([qs, qs[:9], ps[:9]])
    plan = shadows._block_plan(n, eta, k, ps, qs)
    c = binom(n, k)
    assert plan.width == c * (c + 1) // 2
    column, flip = plan.column, plan.flip
    tiles = list(plan.columns(ws))
    assert [lo for lo, _ in tiles] == list(range(0, plan.width, max(1, 40 // 7)))
    got = np.concatenate([tile for _, tile in tiles])[column]
    got.imag[flip] = 0.0 - got.imag[flip]
    assert got.tobytes() == _target_estimates(plan, ws, ps, qs).tobytes()
    assert got.tobytes() == np.ascontiguousarray(plan(ws).T).tobytes()
    # expand is that map on values per column
    vals = np.arange(1, plan.width + 1) * (1 + 1j)
    want = vals[column]
    assert plan.expand(vals).tobytes() == want.tobytes()
    assert np.array_equal(plan.expand(vals, conjugate=True), np.where(flip, want.conj(), want))
    # a real column's flipped targets keep +0.0, as a Reducer of them would
    assert not np.signbit(plan.expand(vals.real + 0j, conjugate=True).imag).any()
    # a table that shares no pair has one column per target, in order, none flipped
    rank_p, rank_q = np.divmod(np.arange(c * c), c)
    for upper in (rank_p <= rank_q, rank_p < rank_q):
        ps, qs = all_pairs(n, k)[0][upper], all_pairs(n, k)[1][upper]
        plan = shadows._block_plan(n, eta, k, ps, qs)
        assert plan.width == upper.sum()
        assert plan.column.tolist() == list(range(upper.sum()))
        assert not plan.flip.any()
        assert plan.expand(vals[:plan.width], conjugate=True).tobytes() \
            == vals[:plan.width].tobytes()
        assert np.concatenate([t for _, t in plan.columns(ws)]).tobytes() \
            == _target_estimates(plan, ws, ps, qs).tobytes()


@st.composite
def _listed_tables(draw):
    """(n, eta, k, ps, qs): a listed table with repeats, swaps and diagonal targets."""
    n = draw(st.integers(1, 7))
    k = draw(st.integers(0, min(4, n)))
    eta = draw(st.integers(k, n))
    subset = st.sampled_from((subset_index_array(n, k) + 1).tolist())
    base = draw(st.lists(st.tuples(subset, subset), min_size=1, max_size=8))
    pairs = list(base)
    for p, q in draw(st.lists(st.sampled_from(base), max_size=8)):
        pairs.append(draw(st.sampled_from([(p, q), (q, p), (p, p)])))
    pairs = draw(st.permutations(pairs))
    ps = np.array([p for p, _ in pairs], dtype=np.int64).reshape(len(pairs), k)
    qs = np.array([q for _, q in pairs], dtype=np.int64).reshape(len(pairs), k)
    return n, eta, k, ps, qs


@settings(max_examples=150, deadline=None)
@given(_listed_tables())
def test_one_sort_plans_a_column_per_unordered_pair(table):
    # a column per distinct unordered {p, q}; the blocks are its M[q, p] and,
    # off the diagonal, M[p, q], each once, and a target reads its own two
    # through its column, swapped where it is flipped
    n, eta, k, ps, qs = table
    plan = shadows._block_plan(n, eta, k, ps, qs)
    pairs = list(zip(map(tuple, ps.tolist()), map(tuple, qs.tolist())))
    assert plan.width == len({frozenset(pair) for pair in pairs})
    blocks = [tuple(b) for b in plan.blocks.tolist()]
    assert len(set(blocks)) == len(blocks)
    diagonal_columns = len({p for p, q in pairs if p == q})
    assert len(blocks) == 2 * plan.width - diagonal_columns
    seen = set()
    for t, (p, q) in enumerate(pairs):
        u = plan.column[t]
        back, forth = plan.which[:, u][::-1] if plan.flip[t] else plan.which[:, u]
        assert blocks[back] == tuple(m - 1 for m in q + p)
        assert blocks[forth] == tuple(m - 1 for m in p + q)
        if u not in seen:
            assert not plan.flip[t]        # a column's first target sets its orientation
            seen.add(u)
    assert sorted(seen) == list(range(plan.width))


def test_columns_hold_one_block_table_not_a_column_table():
    # at (8,4,3) two roots add into one (B, N) table of the B distinct blocks,
    # and columns are assembled from it tile by tile: beside it only
    # _TILE-sized temporaries (Pi, M(x), a block tile, its determinants, a
    # target tile and its conjugate) are live, no (width, N) column table
    n, eta, k, count = 8, 4, 3, 512
    ws, _ = collect_shadow_arrays(random_state(n, eta, np.random.default_rng(5)), count, seed=9)
    plan = shadows._block_plan(n, eta, k, *all_pairs(n, k))
    assert len(plan.points) == 2 and plan.width == 56 * 57 // 2
    for _ in plan.columns(ws[:4]):     # the caches, before tracing
        pass
    tracemalloc.start()
    try:
        for _ in plan.columns(ws):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    bound = len(plan.blocks) * count * 16 + 8 * shadows._TILE * 16
    assert peak <= bound, (peak / 2**20, bound / 2**20)


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
    for n in range(9):
        for eta in range(n + 1):
            for k in range(eta + 1):
                assert q_value(n, eta, k) <= variance_bound(n, eta, k)
    # at n = 0 the bound is C(0,0) * 1 * 1, and Q attains it
    assert variance_bound(0, 0, 0) == q_value(0, 0, 0) == 1


def test_frozen_variance_quantities():
    assert q_value(2, 1, 1) == Fraction(5, 4)
    assert avg_shadow_norm_sq(2, 1, 1) == Fraction(9, 8)
    assert variance_bound(2, 1, 1) == Fraction(3, 2)


def test_bad_sizes_raise_instead_of_answering():
    # each of these once returned a value: 0, the k = 1 value, one empty
    # subset or pair, the eta = 2 classes, or the rows of [[1, 2]]
    network = haar_network(np.zeros((1, 16)))
    for call in (lambda: variance_bound(4, 2, 3), lambda: q_value(4, 2, True),
                 lambda: list(subsets(4, -1)), lambda: all_pairs(4, -1),
                 lambda: overlap_class_array(4, 2, 1.5),
                 lambda: network_rows(network, [[True, 2]])):
        with pytest.raises(ValueError):
            call()


def test_fast_vs_dense_gate_needs_one_shape():
    # tables that merely broadcast are two different sets of transitions
    assert check_fast_vs_dense(np.ones((5, 3)), np.ones((5, 3))) == (True, 0.0)
    for other in (np.ones(3), np.ones((5, 1))):
        with pytest.raises(ValueError, match="one shape"):
            check_fast_vs_dense(np.ones((5, 3)), other)



def test_readme_quick_start_runs(tmp_path, monkeypatch, capsys):
    # README's library quick start, run as written; it writes shadows.npz,
    # so it runs in a scratch directory
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Library quick start", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(tmp_path)
    ns = {}
    exec(compile(block, "README.md", "exec"), ns)
    rdm_gap, one_gap = map(float, capsys.readouterr().out.split())
    assert rdm_gap < 0.05       # 20,000 shots of a 1-RDM with entries up to 1
    assert one_gap <= 1e-13
    assert ns["ws"].shape == (20_000, 2, 5) and ns["zs"].shape == (20_000, 2)
    assert ns["tail_ws"].tobytes() == ns["ws"][-100:].tobytes()
    assert ns["tail_zs"].tobytes() == ns["zs"][-100:].tobytes()
