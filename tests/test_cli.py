import ast
import csv
import gc
import io
import json
import os
import shutil
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import target_oracle
from dense_oracle import batch_estimate_matrices
from fermishadow import channel, cli, shadows
from fermishadow.cli import (
    ConfigError,
    ExperimentConfig,
    _subset_str,
    build_state,
    cmd_slater_overlap,
    main,
    run_validation,
)
from fermishadow.combinat import binom, rank_rows, subsets
from fermishadow.fock import _NORM_SQ_TOL, FermionState, random_state, rdm_matrix, state_to_json


def _read_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def _offset_products(monkeypatch, offset):
    """Make every table's plan add offset(p, q), one value per target, to its products
    source: each column's tiles get the offset of its first target."""
    plan = shadows._block_plan

    def offset_plan(n, eta, k, p, q):
        estimate = plan(n, eta, k, p, q)
        extra = offset(p, q)[np.unique(estimate.column, return_index=True)[1], None]
        columns = estimate.columns

        def offset_columns(ws, gather=None):
            for lo, tile in columns(ws, gather):
                # gather None means "by the rule", so only gather False is the products source
                yield lo, tile + (gather is False) * extra[lo:lo + len(tile)]
        estimate.columns = offset_columns
        return estimate
    monkeypatch.setattr(shadows, "_block_plan", offset_plan)


def test_config_validation_messages():
    good = dict(n=3, eta=2, k=1, samples=10, seed=1)
    ExperimentConfig(**good).validate()
    bad = [
        (dict(good, k=3), "k <= eta"),
        (dict(good, eta=4), "eta <= n"),
        (dict(good, samples=0), "samples"),
        (dict(good, seed=-1), "seed"),
        (dict(good, state_source="mystery"), "state_source"),
        (dict(good, estimator="oracle"), "estimator"),
        (dict(good, estimator="fast"), "estimator must be dense or both"),
        (dict(good, aggregation="median_of_means:3"), "divide"),
        (dict(good, aggregation="median_of_means:x"), "batch"),
        (dict(good, targets=17), "targets"),
        (dict(good, targets="slater_overlaps"), "targets"),
        (dict(good, n=0, eta=0, k=0), "n >= 1"),
        (dict(good, n=True), "integers"),
        (dict(good, k=False), "integers"),
        (dict(good, n=3.0), "integers"),
        (dict(good, eta=np.float64(2)), "integers"),
        (dict(good, samples=10.0), "samples"),
        (dict(good, samples=True), "samples"),
        (dict(good, seed=True), "seed"),
        (dict(good, seed=1.5), "seed"),
        (dict(good, seed=np.float64(1)), "seed"),
        (dict(good, state_source=5), "state_source"),
        (dict(good, aggregation=10), "aggregation"),
        (dict(good, aggregation=None), "aggregation"),
        (dict(good, aggregation="mean:5"), "aggregation"),
        (dict(good, aggregation="median_of_means"), "aggregation"),
    ] + [(dict(good, aggregation="median_of_means" + b), "aggregation")
         for b in (":", ":0", ":-5", ":5:1")]
    for fields, msg in bad:
        with pytest.raises(ConfigError, match=msg):
            ExperimentConfig(**fields).validate()
    for agg in ("median_of_means:5", "median_of_means: 5"):
        ExperimentConfig(**dict(good, aggregation=agg)).validate()
    # numpy integers pass the seed rule that the collector applies, and are
    # kept as Python ints, which the manifest's JSON can hold
    config = ExperimentConfig(**dict(good, seed=np.uint64(2**64 - 1)))
    config.validate()
    assert type(config.seed) is int and config.seed == 2**64 - 1


# entries that are not modes: bools, floats, strings, null, lists
_JUNK = st.one_of(st.booleans(), st.floats(-2, 9), st.text(max_size=2), st.none(),
                  st.lists(st.integers(0, 3), max_size=2))


def _subsets(n, size, valid_only):
    valid = st.lists(st.integers(1, n), min_size=size, max_size=size, unique=True).map(sorted)
    if valid_only:
        return valid
    other_size = st.lists(st.integers(1, n), max_size=min(n, size + 1), unique=True).map(sorted)
    modes = st.one_of(st.integers(-1, n + 2), _JUNK)
    return st.one_of(valid, valid, other_size, st.lists(modes, max_size=size + 1), _JUNK)


def _outcome(call):
    try:
        return "ok", call()
    except ConfigError as exc:
        return "error", str(exc)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_target_table_matches_item_oracle(data):
    # one numpy pass over the whole list against the per-item parse: the same
    # table and ranks for valid lists, the same message for the first bad item
    n = data.draw(st.integers(1, 6), label="n")
    size = data.draw(st.integers(0, n), label="size")
    pairs = data.draw(st.booleans(), label="pairs")
    valid_only = data.draw(st.booleans(), label="valid_only")
    sub = _subsets(n, size, valid_only)
    item = st.lists(sub, min_size=2, max_size=2) if pairs else sub
    if not valid_only:
        item = st.one_of(item, item, item, st.lists(sub, max_size=3), _JUNK)
    # a JSON round trip, as from a config file
    items = json.loads(json.dumps(data.draw(st.lists(item, max_size=6), label="items")))
    oracle = target_oracle.resolve_pairs if pairs else target_oracle.resolve_subsets
    want = _outcome(lambda: oracle(items, n, size))
    got = _outcome(lambda: cli._target_table(items, n, size, pairs))
    assert got[0] == want[0], (got, want)
    if want[0] == "error":
        assert got[1] == want[1]
        return
    table = got[1]
    assert table.dtype == np.int64
    assert table.shape == ((len(items), 2, size) if pairs else (len(items), size))
    if pairs:
        assert table.tolist() == [[list(p), list(q)] for p, q in want[1]]
        assert rank_rows(table, n).tolist() == [target_oracle.ranks(pq) for pq in want[1]]
    else:
        assert table.tolist() == [list(q) for q in want[1]]
        assert rank_rows(table, n).tolist() == target_oracle.ranks(want[1])


@pytest.mark.parametrize("n,k", [(1, 0), (3, 0), (3, 1), (4, 2), (6, 3)])
def test_all_krdm_table_is_colex_pairs(n, k):
    table = cli._resolve_targets(ExperimentConfig(n, k, k, 1, 0))
    ss = list(subsets(n, k))
    assert table.dtype == np.int64 and table.shape == (len(ss) ** 2, 2, k)
    assert table.tolist() == [[list(p), list(q)] for p in ss for q in ss]
    assert rank_rows(table, n).tolist() == [[i, j] for i in range(len(ss)) for j in range(len(ss))]


@pytest.mark.parametrize("command,targets", [
    ("estimate", [[[1.7, 2.9], [True, "3"]]]),      # once ran as the pair 1+2,1+3
    ("estimate", [[[1, 2], [True, 3]]]),
    ("estimate", [[[1.0, 2.0], [1, 3]]]),
    ("estimate", [[["1", "2"], [1, 3]]]),
    ("estimate", [["12", "13"]]),
    ("slater-overlap", [[1.5, 2]]),                  # once ran as the subset 1+2
    ("slater-overlap", [[1, True]]),
    ("slater-overlap", [[1, 2], ["2", 3]]),
])
def test_non_integer_target_modes_are_config_errors(command, targets, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 3, "eta": 2, "k": 2, "samples": 5, "seed": 1,
                               "targets": targets}))
    assert main([command, "--config", str(cfg)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("config error: bad target")


def test_estimate_k0_prints_the_identity(capsys):
    # the one k = 0 target (empty, empty) has the estimate 1 in every shot,
    # under every estimator
    for estimator in ("dense", "both"):
        assert cli.cmd_estimate(ExperimentConfig(5, 3, 0, 30, 2, estimator=estimator)) == 0
        header, row = capsys.readouterr().out.splitlines()
        assert header.startswith("p,q,estimate_re,estimate_im,stderr_re,stderr_im")
        assert row == (",,1,0,0,0,1,0" if estimator == "both" else ",,1,0,0,0")


def test_manifest_is_built_only_when_written(tmp_path, capsys, monkeypatch):
    # stdout mode drops the manifest, so it must not spawn git describe
    calls = []
    monkeypatch.setattr(cli, "_git_describe", lambda: calls.append(1) or "abc")
    for argv in (["estimate", "--n", "3", "--eta", "2", "--k", "1"],
                 ["slater-overlap", "--n", "3", "--eta", "2"],
                 ["variance-sweep", "--n", "3", "--eta", "2", "--k", "1"]):
        argv = argv + ["--samples", "5", "--seed", "1"]
        assert main(argv) == 0
        assert calls == []
        assert main(argv + ["--out", str(tmp_path / "run")]) == 0
        assert calls == [1]
        assert json.loads((tmp_path / "run.manifest.json").read_text())["git_describe"] == "abc"
        calls.clear()
    capsys.readouterr()


def test_numpy_sizes_reach_the_manifest(tmp_path, capsys):
    # numpy fields are stored as Python ints, so the manifest's JSON holds them
    config = ExperimentConfig(*map(np.int64, (4, 2, 1, 30, 5)))
    assert cli.cmd_estimate(config, out=str(tmp_path / "run")) == 0
    capsys.readouterr()
    manifest = json.loads((tmp_path / "run.manifest.json").read_text())
    assert manifest["config"] == dict(vars(ExperimentConfig(4, 2, 1, 30, 5)))
    assert all(type(getattr(config, f)) is int for f in ("n", "eta", "k", "samples", "seed"))


def _glibc() -> bool:
    try:
        return (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc")
    except (AttributeError, ValueError, OSError):
        return False


@pytest.mark.skipif(not _glibc(), reason="the allocator setting applies to glibc only")
def test_heap_is_kept_between_chunks():
    # each chunk allocates the same temporaries; with the heap kept, ten
    # times the chunks must not take ten times the page faults of one chunk
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    script = """
import contextlib, io, resource, sys
from fermishadow.cli import main
argv = ["estimate", "--n", "4", "--eta", "2", "--k", "2", "--seed", "3", "--samples", sys.argv[1]]
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
with contextlib.redirect_stdout(io.StringIO()):
    rc = main(argv)
print(rc, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""
    faults = {}
    for samples in (2048, 20480):
        out = subprocess.run([sys.executable, "-c", script, str(samples)],
                             capture_output=True, text=True, env=env, timeout=300)
        rc, faults[samples] = map(int, out.stdout.split())
        assert rc == 0, out.stderr
    assert faults[20480] < 2 * faults[2048], faults


def test_main_freezes_the_import_time_heap_once(capsys):
    # main owns its process: its first call freezes what the imports built, so
    # no later collection walks it; later calls freeze nothing more
    argv = ["estimate", "--n", "3", "--eta", "2", "--k", "1", "--samples", "5", "--seed", "1"]
    assert main(argv) == 0
    frozen = gc.get_freeze_count()
    assert frozen > 0
    assert main(argv) == 0
    assert gc.get_freeze_count() == frozen
    capsys.readouterr()


def test_build_state_sources(tmp_path):
    basis = build_state(ExperimentConfig(3, 2, 1, 1, 0, state_source="basis:1,3"))
    assert basis.amplitude((1, 3)) == 1.0
    rand = build_state(ExperimentConfig(3, 2, 1, 1, 7))
    again = build_state(ExperimentConfig(3, 2, 1, 1, 7))
    assert np.array_equal(rand.amps, again.amps)
    path = tmp_path / "state.json"
    path.write_text(state_to_json(rand))
    loaded = build_state(ExperimentConfig(3, 2, 1, 1, 0, state_source=f"file:{path}"))
    assert np.allclose(loaded.amps, rand.amps)
    with pytest.raises(ConfigError):
        build_state(ExperimentConfig(4, 2, 1, 1, 0, state_source=f"file:{path}"))
    with pytest.raises(ConfigError):
        build_state(ExperimentConfig(3, 2, 1, 1, 0, state_source="basis:1"))
    with pytest.raises(ConfigError):
        build_state(ExperimentConfig(3, 2, 1, 1, 0, state_source="basis:2,9"))
    with pytest.raises(ConfigError):
        build_state(ExperimentConfig(3, 2, 1, 1, 0, state_source="basis:1,x"))


def test_main_exit_codes_on_config_errors(tmp_path, capsys, monkeypatch):
    rc = main(["estimate", "--n", "2", "--eta", "3", "--k", "1",
               "--samples", "5", "--seed", "1"])
    assert rc == 2
    rc = main(["estimate", "--n", "2", "--eta", "1", "--k", "1", "--seed", "1"])
    assert rc == 2  # samples missing
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 2, "eta": 1, "k": 1, "samples": 5, "seed": 1,
                               "mystery_knob": True}))
    rc = main(["estimate", "--config", str(cfg)])
    assert rc == 2
    cfg.write_text("[1, 2]")
    assert main(["estimate", "--config", str(cfg)]) == 2
    # nested past the recursion limit: once a RecursionError traceback, exit 1
    cfg.write_text("[" * 100000 + "]" * 100000)
    capsys.readouterr()
    assert main(["estimate", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: cannot read config {cfg}")
    rc = main(["estimate", "--n", "3", "--eta", "2", "--k", "2",
               "--samples", "24", "--seed", "3", "--config", "/dev/null"])
    assert rc == 2
    capsys.readouterr()
    # --out into a missing directory is refused before any shot is drawn
    missing = str(tmp_path / "missing" / "x")
    for argv in (["estimate", "--n", "3", "--eta", "1", "--k", "1"],
                 ["slater-overlap", "--n", "3", "--eta", "1"],
                 ["variance-sweep", "--n", "3", "--eta", "1", "--k", "1"],
                 ["validate"]):
        if argv[0] != "validate":
            argv = argv + ["--samples", "5", "--seed", "1"]
        assert main(argv + ["--out", missing]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("config error:") and missing in err
    assert not (tmp_path / "missing").exists()
    # --out naming a directory is refused before any work: validate once ran
    # every check and then died with IsADirectoryError (exit 1), and estimate
    # --out DIR/ wrote the hidden files DIR/.csv and DIR/.manifest.json
    monkeypatch.setattr(cli, "run_validation", lambda *args, **kwargs: pytest.fail("a check ran"))
    monkeypatch.setattr(cli, "collect_shadow_arrays",
                        lambda *args, **kwargs: pytest.fail("a shot was drawn"))
    folder = tmp_path / "dir"
    folder.mkdir()
    for argv in (["validate", "--out", str(folder)],
                 ["estimate", "--n", "3", "--eta", "1", "--k", "1", "--samples", "5",
                  "--seed", "1", "--out", str(folder) + os.sep]):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("config error:") and "directory" in err
    assert list(folder.iterdir()) == []
    monkeypatch.undo()
    # slater-overlap takes estimator as estimate does: both (once refused)
    # adds the product blocks' fast_overlap columns
    overlap = {"n": 3, "eta": 2, "samples": 50, "seed": 1}
    printed = []
    for estimator in ("dense", "both"):
        cfg.write_text(json.dumps(dict(overlap, estimator=estimator)))
        assert main(["slater-overlap", "--config", str(cfg)]) == 0
        printed.append(capsys.readouterr().out)
    header = printed[1].splitlines()[0]
    assert header == printed[0].splitlines()[0] + ",fast_overlap_re,fast_overlap_im"


def test_variance_sweep_config_errors(capsys):
    # a repeated flag overrides the earlier one
    base = ["variance-sweep", "--n", "4", "--eta", "2", "--k", "1"]
    for extra in (["--n", "a"], ["--k", "1,x"], ["--samples", "-3"], ["--seed", "-1"],
                  ["--k", "1,2", "--samples", "5", "--seed", str(2**64)]):
        assert main(base + extra) == 2
        assert capsys.readouterr().err.startswith("config error:")
    # every grid row samples at the seed itself, so every 64-bit seed is valid
    assert main(base + ["--k", "1,2", "--samples", "5", "--seed", str(2**64 - 1)]) == 0


def test_estimate_rejects_unnormalized_state_file(tmp_path, capsys):
    state = random_state(4, 2, np.random.default_rng(2))
    path = tmp_path / "state.json"
    path.write_text(state_to_json(FermionState(4, 2, 2 * state.amps)))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 4, "eta": 2, "k": 1, "samples": 5, "seed": 1,
                               "state_source": f"file:{path}"}))
    assert main(["estimate", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "norm 2" in err
    # the loader and the collector share one bound on the squared norm: a
    # norm of 1 + 8e-7 (squared 1 + 1.6e-6) once loaded and then died in the
    # collector (exit 1); 1 + 4e-7 (squared 1 + 8e-7) runs
    path.write_text(state_to_json(FermionState(4, 2, (1 + 8e-7) * state.amps)))
    assert main(["estimate", "--config", str(cfg)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("config error:") and "norm 1.0000008" in err
    path.write_text(state_to_json(FermionState(4, 2, (1 + 4e-7) * state.amps)))
    assert main(["estimate", "--config", str(cfg)]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("body", [
    [1, 2],                                                         # not an object
    {"n": 3, "eta": 1, "amplitudes": 5},                            # not a list
    {"n": [3], "eta": 1, "amplitudes": [[1, 0], [0, 0], [0, 0]]},
    {"n": 3, "eta": 1, "amplitudes": [[1, 0], None, [0, 0]]},
    {"n": 3, "eta": 1, "amplitudes": [["1", 0], [0, 0], [0, 0]]},
    {"n": 3.7, "eta": 1, "amplitudes": [[1, 0], [0, 0], [0, 0]]},    # once read as 3
    {"n": 3, "eta": True, "amplitudes": [[1, 0], [0, 0], [0, 0]]},   # once read as 1
    {"n": 3, "eta": 1, "amplitudes": [[True, False], [0, 0], [0, 0]]},
    "[" * 100000 + "]" * 100000,                                    # past the recursion limit
], ids=["list", "amplitudes-5", "n-list", "null-amplitude", "string-part", "n-float",
        "eta-bool", "bool-parts", "nested"])
def test_estimate_rejects_malformed_state_file(body, tmp_path, capsys):
    # each once raised a TypeError or RecursionError (exit 1) or loaded as a
    # wrong state; a string is the file's text as it stands
    path = tmp_path / "state.json"
    path.write_text(body if isinstance(body, str) else json.dumps(body))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 3, "eta": 1, "k": 1, "samples": 5, "seed": 1,
                               "state_source": f"file:{path}"}))
    assert main(["estimate", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: cannot load state from {path}")


def test_estimate_rejects_wrong_amplitude_count(tmp_path, capsys):
    path = tmp_path / "state.json"
    path.write_text(json.dumps({"n": 4, "eta": 2, "amplitudes": [[0.2, 0.0]] * 5}))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 4, "eta": 2, "k": 1, "samples": 5, "seed": 1,
                               "state_source": f"file:{path}"}))
    assert main(["estimate", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "amplitudes" in err


def test_sector_past_the_int_str_limit_is_a_config_error(tmp_path, capsys):
    # C(20000, 10000) has over 6000 digits, past the digits Python's int-to-str
    # allows by default: the shape message once printed it and reported that
    # limit instead of the amplitude count
    path = tmp_path / "state.json"
    path.write_text(json.dumps({"n": 20000, "eta": 10000, "amplitudes": [[1.0, 0.0]]}))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 20000, "eta": 10000, "k": 1, "samples": 5, "seed": 1,
                               "state_source": f"file:{path}"}))
    assert main(["estimate", "--config", str(cfg)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"config error: cannot load state from {path}")
    assert "need C(20000,10000) amplitudes" in err and "set_int_max_str_digits" not in err
    with pytest.raises(ValueError, match=r"^need C\(20000,10000\) values, got 1$"):
        channel.DiagonalOperator(20000, 10000, [1])


@pytest.mark.parametrize("argv,extra,sector", [
    # past numpy's largest dimension: once a traceback from the state's draw, exit 1
    (["estimate", "--n", "20000", "--eta", "10000", "--k", "1"], {}, "C(20000,10000)"),
    (["variance-sweep", "--n", "20000", "--eta", "10000", "--k", "1"], {}, "C(20000,10000)"),
    # the check runs before the C(n,k)^2 pair tables, which numpy cannot
    # allocate at k = 2
    (["variance-sweep", "--n", "20000", "--eta", "10000", "--k", "2"], {}, "C(20000,10000)"),
    # C(64,32) complex amplitudes pass numpy's byte range: once reported as an
    # invalid basis subset, though the subset is valid
    (["estimate", "--n", "64", "--eta", "32", "--k", "1"],
     {"state_source": "basis:" + ",".join(map(str, range(1, 33)))}, "C(64,32)"),
    # a one-amplitude state whose doubled register does not fit: once a traceback
    (["slater-overlap", "--n", "32", "--eta", "32"], {}, "C(64,32)"),
])
def test_sector_too_large_to_allocate_is_a_config_error(argv, extra, sector, tmp_path,
                                                        monkeypatch, capsys):
    # the rule runs before any draw
    drawn = []
    monkeypatch.setattr(cli, "shadow_rng", lambda *args: drawn.append(args))
    if extra:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(extra))
        argv = argv + ["--config", str(cfg)]
    assert main(argv + ["--samples", "1", "--seed", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and drawn == []
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert f"has {sector} amplitudes, more than numpy can allocate" in err


@pytest.mark.parametrize("command", ["estimate", "variance-sweep"])
def test_pair_table_too_large_to_allocate_is_a_config_error(command, monkeypatch, capsys):
    # the sector holds C(65536,65535) = 65536 amplitudes, but all C(65536,2)^2,
    # about 4.6e18, pairs pass numpy's byte range, so the check allocates
    # nothing on any host.  Once a traceback from all_pairs (exit 1)
    ran = []
    monkeypatch.setattr(cli, "all_pairs", lambda *args: ran.append(args))
    monkeypatch.setattr(cli, "collect_shadow_arrays", lambda *args, **kwargs: ran.append(args))
    assert main([command, "--n", "65536", "--eta", "65535", "--k", "2",
                 "--samples", "1", "--seed", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and ran == []
    assert err == ("config error: the table of all 2-body transitions on 65536 modes has "
                   "C(65536,2)^2 rows, more than numpy can allocate\n")


def test_invalid_basis_subset_keeps_its_message(capsys):
    # check_subsets decides first, also in a sector too large to allocate
    for n, eta, modes in [(3, 2, "4,9"), (64, 32, ",".join(map(str, range(4, 68, 2))))]:
        config = ExperimentConfig(n, eta, 1, 1, 1, state_source="basis:" + modes)
        with pytest.raises(ConfigError, match=rf"^invalid basis subset \(4, .*\) for n={n}$"):
            build_state(config)


def test_no_assert_statement_in_library_or_oracles():
    # python -O strips assert statements: an input check or an oracle's check
    # written as one would vanish from the optimized Tier-1 run
    root = Path(__file__).resolve().parents[1]
    files = sorted((root / "src" / "fermishadow").glob("*.py")) + sorted(
        (root / "tests").glob("*_oracle.py"))
    assert {"shadows.py", "cli.py", "dense_oracle.py", "pfaffian_oracle.py"} <= {
        f.name for f in files}
    found = [f"{f.name}:{node.lineno}" for f in files
             for node in ast.walk(ast.parse(f.read_text(), str(f)))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_config_errors_survive_optimized_mode(tmp_path):
    # python -O strips assert statements; boundary checks must not depend on them
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    base = {"n": 3, "eta": 2, "k": 1, "samples": 5, "seed": 1}
    for extra in ({"targets": [[[4], [1]]]}, {"state_source": "basis:2,9"}):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(dict(base, **extra)))
        out = subprocess.run(
            [sys.executable, "-O", "-m", "fermishadow.cli", "estimate", "--config", str(cfg)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert out.returncode == 2, out.stderr
        assert out.stderr.startswith("config error:"), out.stderr


def test_input_checks_survive_optimized_mode():
    # the library's own input checks must raise ValueError under python -O too,
    # and so must the test oracles' (tests/ on the path for pfaffian_oracle)
    root = Path(__file__).resolve().parents[1]
    path = os.pathsep.join([str(root / "src"), str(root / "tests"), os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path)
    script = """
import numpy as np
from algebra_oracle import eigenoperator_diagonal, g_eta, weingarten_xi
from dense_oracle import minor_det
from fermishadow import identities
from fermishadow.channel import (DiagonalOperator, a_coeff, channel_kernel, eigenvalue,
                                 nd_class_values, overlap_class_array, structure_factor,
                                 symmetrized_difference)
from fermishadow.combinat import binom, check_subsets, falling, rank_rows, subsets
from fermishadow.fock import FermionState, basis_state, random_state, rdm_matrix, slater_superposition
from fermishadow.linalg import givens_rotate, haar_network, network_rows
from fermishadow.shadows import (Reducer, all_pairs, avg_shadow_norm_sq, check_fast_vs_dense,
                                 collect_shadow_arrays, estimation_entry, estimation_matrix,
                                 fast_estimate_rdm, q_value, shadow_rng, trace_e_squared,
                                 variance_bound)
from pfaffian_oracle import decompose_rdm, f_ks, inverse_trace_sequence, pfaffian
if __debug__:
    raise SystemExit("asserts are on")
w = np.eye(4, dtype=complex)[None, :2]     # one snapshot, eta = 2 readout rows of n = 4
pairs = all_pairs(4, 1)     # the whole 1-body table, as the dense route read it
calls = {
    "fast k != |p|": lambda: fast_estimate_rdm(w, 2, (1,), (2,)),
    "fast k > eta": lambda: fast_estimate_rdm(w, 3, (1, 2, 3), (1, 2, 3)),
    "fast p not increasing": lambda: fast_estimate_rdm(w, 2, (3, 1), (1, 2)),
    "fast q mode 0": lambda: fast_estimate_rdm(w, 2, (1, 2), (0, 1)),
    "fast p mode > n": lambda: fast_estimate_rdm(w, 1, (5,), (1,)),
    "fast unstacked": lambda: fast_estimate_rdm(w[0], 1, *pairs),
    "fast eta > n": lambda: fast_estimate_rdm(np.ones((1, 5, 4)), 1, *pairs),
    "fast bool mode": lambda: fast_estimate_rdm(w, 2, [True, 2], [1, 2]),
    "fast k True": lambda: fast_estimate_rdm(w, True, [1], [2]),
    "fast k 1.0": lambda: fast_estimate_rdm(w, 1.0, [1], [2]),
    "basis_state mode 1.5": lambda: basis_state((1.5, 2), 4),
    "check_subsets mode 1.5": lambda: check_subsets((1.5, 2), 4),
    "amplitude mode 1.5": lambda: FermionState(4, 2, np.ones(6) / 6**0.5).amplitude((1.5, 2)),
    "rdm_matrix k True": lambda: rdm_matrix(FermionState(4, 2, np.ones(6) / 6**0.5), True),
    "rdm_matrix k 1.0": lambda: rdm_matrix(FermionState(4, 2, np.ones(6) / 6**0.5), 1.0),
    "FermionState eta True": lambda: FermionState(4, True, np.ones(4) / 2),
    "Reducer count 10.0": lambda: Reducer(10.0, 3),
    "Reducer count True": lambda: Reducer(True, 3),
    "Reducer batches 2.5": lambda: Reducer(10, 3, "median_of_means", 2.5),
    "Reducer mean batches 5": lambda: Reducer(10, 3, "mean", 5),
    "Reducer mean batches 2.5": lambda: Reducer(10, 3, "mean", 2.5),
    "estimation_matrix k True": lambda: estimation_matrix(4, 2, True),
    "structure_factor k 1.0": lambda: structure_factor(4, 2, 1.0),
    "DiagonalOperator eta True": lambda: DiagonalOperator(4, True, [1] * 4),
    "decompose |p| != |q|": lambda: decompose_rdm((1, 2), (3,), 4),
    "pfaffian not skew": lambda: pfaffian(np.ones((2, 2))),
    "pfaffian odd": lambda: pfaffian(np.array([[0, 1, 2], [-1, 0, 3], [-2, -3, 0]])),
    "estimation_entry eta > n": lambda: estimation_entry(3, 5, 1, 0),
    "f_ks k > eta": lambda: f_ks(1, 2, 0, 0),
    "inverse_trace_sequence short": lambda: inverse_trace_sequence([1.0], 2, 2),
    "shadow_rng index": lambda: shadow_rng(1, 2**64),
    "shadow_rng seed": lambda: shadow_rng(-1, 0),
    "shadow_rng seed 1.5": lambda: shadow_rng(1.5, 0),
    "shadow_rng seed True": lambda: shadow_rng(True, 0),
    "shadow_rng seed float64": lambda: shadow_rng(np.float64(1), 0),
    "shadow_rng index 0.5": lambda: shadow_rng(1, 0.5),
    "shadow_rng index False": lambda: shadow_rng(1, False),
    "collect seed 1.5": lambda: collect_shadow_arrays(FermionState(4, 1, np.ones(4) / 2), 3, 1.5),
    "collect seed True": lambda: collect_shadow_arrays(FermionState(4, 1, np.ones(4) / 2), 3, True),
    "collect count 2.0": lambda: collect_shadow_arrays(FermionState(4, 1, np.ones(4) / 2), 2.0, 1),
    "collect start 1.0": lambda: collect_shadow_arrays(
        FermionState(4, 1, np.ones(4) / 2), 2, 1, start_index=1.0),
    "collect past 2^64 numpy": lambda: collect_shadow_arrays(
        FermionState(4, 1, np.ones(4) / 2), np.uint64(5), 0, start_index=np.uint64(2**64 - 2)),
    "amplitude size": lambda: FermionState(4, 2, np.ones(6) / 6**0.5).amplitude((1,)),
    "collect seed -1": lambda: collect_shadow_arrays(FermionState(4, 1, np.ones(4) / 2), 1, -1),
    "collect seed 2^64": lambda: collect_shadow_arrays(FermionState(4, 1, np.ones(4) / 2), 1, 2**64),
    "collect past 2^64": lambda: collect_shadow_arrays(
        FermionState(4, 1, np.ones(4) / 2), 5, 0, start_index=2**64 - 2),
    "rdm_matrix k > eta": lambda: rdm_matrix(FermionState(4, 1, np.ones(4) / 2), 2),
    "collect n = 0": lambda: collect_shadow_arrays(FermionState(0, 0, np.ones(1)), 1, 0),
    "haar_network width": lambda: haar_network(np.zeros((2, 5))),
    "givens_rotate amplitudes": lambda: givens_rotate(haar_network(np.zeros((1, 4))), np.ones(3), 1),
    "network_rows rows": lambda: network_rows(haar_network(np.zeros((1, 4))), np.zeros(2, dtype=int)),
    "network_rows mode n": lambda: network_rows(haar_network(np.zeros((1, 16))), [[5]]),
    "network_rows mode -1": lambda: network_rows(haar_network(np.zeros((1, 16))), [[-1]]),
    "network_rows float": lambda: network_rows(haar_network(np.zeros((1, 16))), [[1.7]]),
    "DiagonalOperator eta > n": lambda: DiagonalOperator(2, 5, []),
    "DiagonalOperator length": lambda: DiagonalOperator(3, 1, [1]),
    "structure_factor k > eta": lambda: structure_factor(4, 2, 3),
    "a_coeff depth": lambda: a_coeff(4, 1, 2),
    "nd_class_values depth": lambda: nd_class_values(4, 3, 2),
    "eigenoperator_diagonal overlap": lambda: eigenoperator_diagonal(4, 2, (1, 2), (2, 3)),
    "falling negative": lambda: falling(3, -1),
    "trace_nd_squared depth": lambda: identities.trace_nd_squared(4, 1, 2),
    "t_sum class": lambda: identities.t_sum(4, 3, 2, 2),
    "weingarten_xi eta > n": lambda: weingarten_xi(2, 3),
    "g_eta k > eta": lambda: g_eta(2, 3),
    "minor_det shapes": lambda: minor_det(np.eye(3), (1, 2), (1,)),
    "a_coeff d True": lambda: a_coeff(4, 2, True),
    "a_coeff d 1.0": lambda: a_coeff(4, 2, 1.0),
    "nd_class_values d 1.0": lambda: nd_class_values(4, 2, 1.0),
    "symmetrized_difference d True": lambda: symmetrized_difference(4, 2, True),
    "trace_nd_squared d 1.0": lambda: identities.trace_nd_squared(4, 2, 1.0),
    "eigenvalue d -1": lambda: eigenvalue(4, -1),
    "eigenvalue d > n": lambda: eigenvalue(4, 6),
    "channel_kernel eta > n": lambda: channel_kernel(4, 5),
    "t_sum k 1.0": lambda: identities.t_sum(4, 2, 1.0, 0),
    "trace_e_squared k 1.0": lambda: trace_e_squared(4, 2, 1.0),
    "avg_shadow_norm_sq k 1.0": lambda: avg_shadow_norm_sq(4, 2, 1.0),
    "q_value k > eta": lambda: q_value(4, 2, 3),
    "q_value k True": lambda: q_value(4, 2, True),
    "variance_bound k > eta": lambda: variance_bound(4, 2, 3),
    "subsets d -1": lambda: list(subsets(4, -1)),
    "all_pairs k -1": lambda: all_pairs(4, -1),
    "givens_rotate k 2.0": lambda: givens_rotate(haar_network(np.zeros((1, 16))), np.ones(6), 2.0),
    "network_rows bool": lambda: network_rows(haar_network(np.zeros((1, 16))), [[True, 2]]),
    "gate broadcast row": lambda: check_fast_vs_dense(np.ones((5, 3)), np.ones(3)),
    "gate broadcast column": lambda: check_fast_vs_dense(np.ones((5, 3)), np.ones((5, 1))),
    "overlap_class_array eta 1.5": lambda: overlap_class_array(4, 2, 1.5),
    "estimation_entry s' True": lambda: estimation_entry(4, 2, 2, True),
    "random_state eta 2.0": lambda: random_state(4, 2.0, np.random.default_rng(0)),
    "basis_state n 4.0": lambda: basis_state((1, 2), 4.0),
    "basis_state table": lambda: basis_state([[1, 2]], 4),
    "amplitude table": lambda: FermionState(4, 2, np.ones(6) / 6**0.5).amplitude([[1, 2], [3, 4]]),
    "check_subsets n True": lambda: check_subsets((1, 2), True),
    "check_subsets second row": lambda: check_subsets([[1, 2], [2, 1]], 4),
    "Reducer width 2.0": lambda: Reducer(10, 2.0),
    "Reducer width True": lambda: Reducer(10, True),
    "Reducer width -1": lambda: Reducer(10, -1),
    "binom b True": lambda: binom(4, True),
    "binom b 2.0": lambda: binom(4, 2.0),
    "falling b 1.0": lambda: falling(3, 1.0),
    "rank_rows not increasing": lambda: rank_rows(np.array([2, 1]), 4),
    "rank_rows mode > n": lambda: rank_rows(np.array([1, 9]), 4),
    "rank_rows n True": lambda: rank_rows([1, 3], True),
    "rank_rows n 4.0": lambda: (rank_rows(np.array([1, 3]), 4), rank_rows(np.array([1, 3]), 4.0)),
    "slater_superposition eta 0": lambda: slater_superposition(basis_state((), 3)),
    "Reducer variance early": lambda: Reducer(10, 3).variance(),
}
for name, call in calls.items():
    try:
        call()
    except ValueError:
        continue
    raise SystemExit(f"{name}: no ValueError")
print("ok")
"""
    out = subprocess.run([sys.executable, "-O", "-c", script],
                         capture_output=True, text=True, env=env, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "ok"


def test_estimate_deterministic_output_files(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("OMP_NUM_THREADS", "1")
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    args = ["estimate", "--n", "2", "--eta", "1", "--k", "1",
            "--samples", "64", "--seed", "11"]
    rc = main(args + ["--out", str(tmp_path / "a")])
    assert rc == 0
    rc = main(args + ["--out", str(tmp_path / "b.csv")])
    assert rc == 0
    capsys.readouterr()
    a = (tmp_path / "a.csv").read_bytes()
    b = (tmp_path / "b.csv").read_bytes()
    assert a == b
    manifest = json.loads((tmp_path / "a.manifest.json").read_text())
    assert manifest["command"] == "estimate"
    assert manifest["config"]["samples"] == 64
    assert manifest["rows"] == 4
    assert set(manifest["stages_s"]) == {"setup", "collect", "estimate", "aggregate"}
    assert all(t >= 0 for t in manifest["stages_s"].values())
    assert sum(manifest["stages_s"].values()) <= manifest["wall_time_s"] + 1e-3
    assert manifest["peak_rss_mb"] > 0
    assert manifest["versions"]["numpy"] == np.__version__
    assert manifest["versions"]["threads"] == {
        "OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": None}
    assert (tmp_path / "b.manifest.json").exists()
    # the manifest goes next to the file; stdout without --out stays the bare rows
    assert main(args) == 0
    assert capsys.readouterr().out.encode() == a
    header, rows = _read_csv(a.decode())
    assert header == ["p", "q", "estimate_re", "estimate_im", "stderr_re", "stderr_im"]
    for row in rows:
        for cell in row[2:]:
            float(cell)


def test_estimate_basis_state_occupation(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "n": 2, "eta": 1, "k": 1, "samples": 20000, "seed": 5,
        "state_source": "basis:1", "targets": [[[1], [1]], [[2], [2]]],
    }))
    assert main(["estimate", "--config", str(cfg)]) == 0
    header, rows = _read_csv(capsys.readouterr().out)
    assert [r[0] for r in rows] == ["1", "2"]
    est1, err1 = float(rows[0][2]), float(rows[0][4])
    est2, err2 = float(rows[1][2]), float(rows[1][4])
    assert abs(est1 - 1.0) < 4 * err1
    assert abs(est2 - 0.0) < 4 * err2
    assert abs(est1 + est2 - 1.0) < 1e-9  # particle number is exact per shadow


def test_estimate_past_63_modes(tmp_path, capsys):
    # subsets are index tables, not int64 bitmasks: n = 64 samples like n = 8
    targets = [[[1], [1]], [[1], [64]], [[63], [64]], [[64], [64]]]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"targets": targets}))
    argv = ["estimate", "--config", str(cfg), "--n", "64", "--eta", "1", "--k", "1",
            "--samples", "1000", "--seed", "12"]
    assert main(argv) == 0
    _, rows = _read_csv(capsys.readouterr().out)
    exact = rdm_matrix(build_state(ExperimentConfig(64, 1, 1, 1000, 12)), 1)
    for (p, q), row in zip(targets, rows):
        want = exact[p[0] - 1, q[0] - 1]
        est_re, est_im, err_re, err_im = map(float, row[2:6])
        assert abs(est_re - want.real) < 5 * max(err_re, 1e-12)
        assert abs(est_im - want.imag) < 5 * max(err_im, 1e-12)


def test_estimate_labels_subsets_past_int64_ranks(tmp_path, capsys):
    # C(99, 20) > 2^63, so no colex rank of a 20-subset of 100 modes fits an
    # int64; the sector C(100, 99) has 100 amplitudes, and a row's label needs
    # no rank.  The swapped and repeated targets share the first one's column
    low, high = list(range(1, 21)), list(range(81, 101))
    targets = [[low, high], [high, low], [low, high], [high, high]]
    assert binom(99, 20) > 2**63
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 100, "eta": 99, "k": 20, "samples": 3, "seed": 1,
                               "targets": targets}))
    assert main(["estimate", "--config", str(cfg)]) == 0
    _, rows = _read_csv(capsys.readouterr().out)
    assert [row[:2] for row in rows] == [[_subset_str(p), _subset_str(q)] for p, q in targets]
    assert rows[2] == rows[0]


def test_estimate_both_estimators_agree(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 3, "eta": 2, "k": 2, "samples": 24, "seed": 3,
                               "estimator": "both"}))
    assert main(["estimate", "--config", str(cfg)]) == 0
    header, rows = _read_csv(capsys.readouterr().out)
    assert header[2:4] == ["estimate_re", "estimate_im"]
    assert header[-2:] == ["fast_estimate_re", "fast_estimate_im"]
    assert len(rows) == 9
    for row in rows:
        assert abs(float(row[6]) - float(row[2])) < 1e-8
        assert abs(float(row[7]) - float(row[3])) < 1e-8


def test_estimate_both_mode_csv(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "n": 3, "eta": 2, "k": 1, "samples": 32, "seed": 9, "estimator": "both",
    }))
    assert main(["estimate", "--config", str(cfg)]) == 0
    header, rows = _read_csv(capsys.readouterr().out)
    assert header[-2:] == ["fast_estimate_re", "fast_estimate_im"]
    assert len(rows) == 9
    for row in rows:
        assert abs(float(row[2]) - float(row[6])) < 1e-6
        assert abs(float(row[3]) - float(row[7])) < 1e-6
    # one block source off by 1e-6 on one pair fails the run, rows still printed;
    # the gate is identities.check_fast_vs_dense per shot and entry
    from fermishadow import identities
    assert shadows.check_fast_vs_dense is identities.check_fast_vs_dense
    _offset_products(monkeypatch, lambda p, q: 1e-6 * ((p == [1]) & (q == [3])).all(axis=-1))
    assert main(["estimate", "--config", str(cfg)]) == 1
    out, err = capsys.readouterr()
    assert len(_read_csv(out)[1]) == 9
    assert err.startswith("gathered blocks and readout-row products disagree")
    gap = float(err.split()[-1])
    assert 1e-8 < gap <= 1e-6
    # every both run records its worst gap in the manifest, the failed one too
    assert main(["estimate", "--config", str(cfg), "--out", str(tmp_path / "bad")]) == 1
    err = capsys.readouterr().err
    manifest = json.loads((tmp_path / "bad.manifest.json").read_text())
    assert f"{manifest['both_worst_gap']:.3e}" == err.split()[-1]
    monkeypatch.undo()
    assert main(["estimate", "--config", str(cfg), "--out", str(tmp_path / "good")]) == 0
    manifest = json.loads((tmp_path / "good.manifest.json").read_text())
    assert 0 <= manifest["both_worst_gap"] <= 1e-8
    # a dense run has no gap to record
    cfg.write_text(json.dumps({"n": 3, "eta": 2, "k": 1, "samples": 32, "seed": 9}))
    assert main(["estimate", "--config", str(cfg), "--out", str(tmp_path / "dense")]) == 0
    capsys.readouterr()
    assert "both_worst_gap" not in json.loads((tmp_path / "dense.manifest.json").read_text())


def test_each_table_is_planned_once_per_run(monkeypatch, capsys):
    # a table's checks and distinct blocks are _block_plan's, built once per
    # run in the setup stage, then applied to every chunk of shots
    plans, chunks = [], []
    plan, collect = shadows._block_plan, cli.collect_shadow_arrays
    monkeypatch.setattr(shadows, "_block_plan", lambda n, eta, k, p, q: (
        plans.append((n, eta, k, len(p))) or plan(n, eta, k, p, q)))
    monkeypatch.setattr(cli, "collect_shadow_arrays", lambda state, count, *args, **kwargs: (
        chunks.append(count) or collect(state, count, *args, **kwargs)))
    # the widest table, 784 pairs at k = 2, sets chunks of 2^19 // 784 = 668 shots
    assert main(["variance-sweep", "--n", "8", "--eta", "2", "--k", "1,2",
                 "--samples", "1500"]) == 0
    assert chunks == [668, 668, 164]
    assert plans == [(8, 2, 1, 64), (8, 2, 2, 784)]
    # both applies one plan's two block sources to each of three chunks
    plans.clear(), chunks.clear()
    config = ExperimentConfig(4, 2, 2, 5000, 3, estimator="both")
    assert cli.cmd_estimate(config) == 0
    assert chunks == [2048, 2048, 904] and plans == [(4, 2, 2, 36)]
    capsys.readouterr()


def test_estimator_fast_is_a_config_error(tmp_path, capsys):
    # fast once named the dense run; it is refused before any shot is drawn
    cfg = tmp_path / "cfg.json"
    for command, body in [("estimate", {"k": 2}), ("slater-overlap", {})]:
        cfg.write_text(json.dumps(dict(body, n=4, eta=2, samples=40, seed=6, estimator="fast")))
        assert main([command, "--config", str(cfg)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == "config error: estimator must be dense or both, got 'fast'\n"
    # a repeated listed pair prints the same row twice
    targets = [[[1, 2], [2, 3]], [[1, 3], [1, 3]], [[2, 4], [1, 4]], [[1, 2], [2, 3]]]
    cfg = ExperimentConfig(4, 2, 2, 40, 6, aggregation="median_of_means:4", targets=targets)
    assert cli.cmd_estimate(cfg) == 0
    _, rows = _read_csv(capsys.readouterr().out)
    assert len(rows) == len(targets) and rows[0] == rows[3]


def test_estimate_median_of_means_aggregation(capsys):
    rc = main(["estimate", "--n", "2", "--eta", "1", "--k", "1", "--samples", "30",
               "--seed", "2"])
    assert rc == 0
    mean_out = capsys.readouterr().out
    import fermishadow.cli as cli

    cfg = cli.ExperimentConfig(2, 1, 1, 30, 2, aggregation="median_of_means:5")
    assert cli.cmd_estimate(cfg) == 0
    mom_out = capsys.readouterr().out
    assert mean_out != mom_out
    header, rows = _read_csv(mom_out)
    assert len(rows) == 4


def test_variance_sweep_frozen_row(capsys):
    rc = main(["variance-sweep", "--n", "2", "--eta", "1", "--k", "1"])
    assert rc == 0
    header, rows = _read_csv(capsys.readouterr().out)
    assert header[:6] == ["n", "eta", "k", "q_exact", "avg_shadow_norm_sq",
                          "variance_bound"]
    assert rows == [["2", "1", "1", "5/4", "9/8", "3/2", "", ""]]


def test_variance_sweep_bound_dominates(capsys):
    rc = main(["variance-sweep", "--n", "2,3,4,5,6", "--eta", "1,2,3", "--k", "1,2,3"])
    assert rc == 0
    _, rows = _read_csv(capsys.readouterr().out)
    assert len(rows) > 10
    for row in rows:
        q = Fraction(row[3])
        norm = Fraction(row[4])
        bound = Fraction(row[5])
        assert norm <= bound and q <= bound


def test_variance_sweep_empirical_column(capsys):
    rc = main(["variance-sweep", "--n", "3", "--eta", "1", "--k", "1",
               "--samples", "4000", "--seed", "8"])
    assert rc == 0
    _, rows = _read_csv(capsys.readouterr().out)
    emp = float(rows[0][6])
    assert rows[0][7] == "4000"
    # empirical average variance stays below the shadow-norm part
    assert emp <= float(Fraction(rows[0][4])) * 1.05


def test_variance_sweep_collects_once_per_n_eta(monkeypatch, capsys):
    # one collection per chunk feeds every k's table of an (n, eta), where each
    # k once collected the snapshots again; the chunk step is the largest
    # table's, 2^19 // 2025 = 258 shots for the 2025 targets of (10, 2, 2)
    calls = []
    collect = cli.collect_shadow_arrays

    def spy(state, count, seed, start_index, record):
        calls.append((state.n, state.eta, count, start_index))
        return collect(state, count, seed, start_index=start_index, record=record)

    monkeypatch.setattr(cli, "collect_shadow_arrays", spy)
    assert main(["variance-sweep", "--n", "4,10", "--eta", "2", "--k", "1,2",
                 "--samples", "512", "--seed", "3"]) == 0
    _, rows = _read_csv(capsys.readouterr().out)
    assert calls == [(4, 2, 512, 0), (10, 2, 258, 0), (10, 2, 254, 258)]
    # each row's column is a one-table run of its k, to its 12 printed digits
    for row in rows:
        n, eta, k = map(int, row[:3])
        config = ExperimentConfig(n, eta, k, 512, 3)
        [[(_, _, var)]], _ = cli._sample(build_state(config), config,
                                         [shadows.all_pairs(n, k)], cli._Stages(), {})
        assert float(row[6]) == pytest.approx(float(var.mean()), rel=1e-11)


class _WholeTable:
    """A table's plan that reduces every target as a column of its own: the
    reduction of the whole (shots, T) table, one add per chunk and block source."""

    def __init__(self, plan):
        self.plan, self.width = plan, len(plan.column)

    def __call__(self, ws, gather=None):
        return self.plan(ws, gather)

    def columns(self, ws, gather=None):
        yield 0, self.plan(ws, gather).T

    def expand(self, values, conjugate=False):
        return values


def test_shared_columns_print_the_whole_tables_bytes(tmp_path, monkeypatch, capsys):
    # dense and both reduce each unordered block pair once and mirror the
    # flipped targets; every printed byte must be that of reducing every
    # target, and under both that of checking the two sources' whole tables.
    # At 2100 shots the chunks are 2048 + 52, and at 7000 four, so the batches
    # of median_of_means:7 straddle them
    cfg = tmp_path / "cfg.json"
    listed = [[[1, 2], [2, 3]], [[2, 3], [1, 2]], [[1, 3], [1, 3]], [[2, 4], [1, 4]],
              [[1, 2], [2, 3]], [[1, 4], [2, 4]], [[3, 4], [3, 4]], [[1, 4], [2, 4]]]
    configs = [dict(n=5, eta=3, k=k, samples=2100, aggregation=agg)
               for k in range(4) for agg in ("mean", "median_of_means:7")]
    configs += [dict(n=4, eta=2, k=2, samples=7000, aggregation=agg)
                for agg in ("mean", "median_of_means:7")]
    configs += [dict(n=4, eta=2, k=2, samples=400, aggregation="median_of_means:4", targets=listed),
                dict(n=6, eta=3, k=3, samples=300, targets=[[[1, 2, 3], [4, 5, 6]],
                                                            [[4, 5, 6], [1, 2, 3]],
                                                            [[1, 2, 3], [4, 5, 6]]])]
    runs = [(["estimate", "--config", str(cfg), "--seed", "4"], dict(body, estimator=estimator))
            for body in configs for estimator in ("dense", "both")]
    runs += [(["slater-overlap", "--n", "4", "--eta", str(eta), "--samples", "500", "--seed", "3",
               "--config", str(cfg)], {"estimator": estimator})
             for eta in (2, 3) for estimator in ("dense", "both")]
    runs += [(["variance-sweep", "--n", "4,5", "--eta", "2,3", "--k", "1,2,3",
               "--samples", "2100", "--seed", "1"], None)]
    plan = shadows._block_plan
    for argv, body in runs:
        if body:
            cfg.write_text(json.dumps(body))
        assert main(argv) == 0
        shared = capsys.readouterr().out
        with monkeypatch.context() as m:
            m.setattr(shadows, "_block_plan", lambda *args: _WholeTable(plan(*args)))
            assert main(argv) == 0
        assert shared == capsys.readouterr().out, argv
    # the sharing is real: all pairs at k = 1..3 on 5 modes, and the listed
    # table's repeats and swaps, have fewer columns than targets
    for k in (1, 2, 3):
        c = binom(5, k)
        assert plan(5, 3, k, *shadows.all_pairs(5, k)).width == c * (c + 1) // 2
    table = np.array(listed)
    assert plan(4, 2, 2, table[:, 0], table[:, 1]).width == 4


def test_sampling_manifests_record_the_worst_born_defect(tmp_path, capsys):
    # every sampling command records the largest |sum probs - 1| its shots saw;
    # a state normalized to 1 + 5e-7, within the loader's tolerance, shows it
    state = tmp_path / "state.json"
    state.write_text(json.dumps({"n": 3, "eta": 1, "amplitudes": [[np.sqrt(1 + 5e-7), 0],
                                                                  [0, 0], [0, 0]]}))
    cfg = tmp_path / "cfg.json"
    runs = {
        "dense": {"n": 4, "eta": 2, "k": 2, "samples": 300, "seed": 1},
        "both": {"n": 4, "eta": 2, "k": 2, "samples": 300, "seed": 1, "estimator": "both"},
        "off": {"n": 3, "eta": 1, "k": 1, "samples": 300, "seed": 1,
                "state_source": f"file:{state}"},
    }
    for name, body in runs.items():
        cfg.write_text(json.dumps(body))
        assert main(["estimate", "--config", str(cfg), "--out", str(tmp_path / name)]) == 0
    cfg.write_text(json.dumps({"n": 3, "eta": 2, "samples": 300, "seed": 1}))
    assert main(["slater-overlap", "--config", str(cfg), "--out", str(tmp_path / "overlap")]) == 0
    assert main(["variance-sweep", "--n", "4,5", "--eta", "2", "--k", "1,2", "--samples", "300",
                 "--out", str(tmp_path / "sweep")]) == 0
    assert main(["variance-sweep", "--n", "4", "--eta", "2", "--k", "1",
                 "--out", str(tmp_path / "exact")]) == 0
    capsys.readouterr()
    manifests = {path.name.split(".")[0]: json.loads(path.read_text())
                 for path in tmp_path.glob("*.manifest.json")}
    assert set(manifests) == {"dense", "both", "off", "overlap", "sweep", "exact"}
    for name in ("dense", "both", "overlap", "sweep"):
        assert 0.0 <= manifests[name]["born_worst_defect"] <= _NORM_SQ_TOL
    assert abs(manifests["off"]["born_worst_defect"] - 5e-7) < 1e-12
    # a sweep that draws no shot records none, and a dense run no both gap
    assert "born_worst_defect" not in manifests["exact"]
    assert "both_worst_gap" not in manifests["dense"] and "both_worst_gap" in manifests["both"]


def test_validate_level_is_checked_before_any_check_runs(monkeypatch, capsys):
    # argparse's choices guard the command line; an in-process call meets the check
    monkeypatch.setattr(cli, "run_validation", lambda *args, **kwargs: pytest.fail("a check ran"))
    with pytest.raises(ConfigError, match="level must be quick or full, got 'bogus'"):
        cli.cmd_validate("bogus")
    assert capsys.readouterr().out == ""


def test_target_table_refuses_modes_that_share_no_integer_table():
    # int64 and uint64 modes each pass the subset rule alone, but numpy reads
    # the table they make together as float64: every item passes its own check,
    # and the last raise names the table
    pair = [[np.int64(1), np.int64(2)], [np.uint64(1), np.uint64(3)]]
    for items, pairs in [([pair], True), (pair, False)]:
        with pytest.raises(ConfigError, match="targets must hold 2-subsets of 1..4 with integer"):
            cli._target_table(items, 4, 2, pairs=pairs)


def test_validate_quick_passes(tmp_path, capsys):
    rc = main(["validate", "--out", str(tmp_path / "report.json")])
    assert rc == 0
    capsys.readouterr()
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["passed"] is True
    names = [c["name"] for c in report["checks"]]
    assert names == [
        "projector_expansion_and_eigenrelation",
        "closed_form_sums",
        "per_shadow_norm_sum",
        "per_shadow_trace",
        "per_shadow_one_body",
        "per_shadow_swap",
        "fast_vs_dense",
        "mc_channel_twirl",
    ]
    assert all(c["passed"] for c in report["checks"])


def test_validate_takes_every_64_bit_seed(tmp_path, monkeypatch, capsys):
    # the checks tell their draws apart by stream index, not by seed offsets:
    # the largest 64-bit seed passes at full level, and a seed outside
    # 0..2^64-1 is a config error before any check runs
    assert main(["validate", "--level", "full", "--seed", str(2**64 - 1),
                 "--out", str(tmp_path / "report.json")]) == 0
    monkeypatch.setattr(cli, "run_validation", lambda *args, **kwargs: pytest.fail("a check ran"))
    capsys.readouterr()
    for seed in (-1, 2**64):
        assert main(["validate", "--seed", str(seed)]) == 2
        assert capsys.readouterr().err.startswith(
            "config error: seed must be a 64-bit unsigned integer")


def _off_by_one_estimation_operator(monkeypatch):
    exact = shadows.estimation_matrix

    def off_by_one(n, eta, k):
        vals = exact(n, eta, k)
        return (vals[0] + 1,) + vals[1:]

    monkeypatch.setattr(shadows, "estimation_matrix", off_by_one)
    # an empty DFT-weight cache, so the weights come from the patched operator
    monkeypatch.setattr(shadows, "_dft_points", lru_cache(shadows._dft_points.__wrapped__))


def test_validation_negative_control(monkeypatch):
    # a wrong closed form must trip the check that shares its definition with
    # an acceptance criterion
    cases = [
        (_off_by_one_estimation_operator, "per_shadow_norm_sum"),
        # 1 / C(n, d) in place of the eigenvalue 1 / C(n+1, d)
        (lambda mp: mp.setattr(channel, "eigenvalue", lambda n, d: Fraction(1, binom(n, d))),
         "projector_expansion_and_eigenrelation"),
        # the pole of the Haar moment moved by one
        (lambda mp: mp.setattr(channel, "structure_factor", lambda n, eta, k: Fraction(
            eta + 1, eta + 2 - k) / (binom(n + 1, eta) * binom(n, eta))), "mc_channel_twirl"),
        # the closed-form sums read the shipped expansion weights and class values
        (lambda mp: mp.setattr(channel, "a_coeff", lambda n, eta, d, f=channel.a_coeff: (
            f(n, eta, d) * (1 + d))), "closed_form_sums"),
        (lambda mp: mp.setattr(channel, "nd_class_values", lambda n, eta, d,
                               f=channel.nd_class_values: [g + d for g in f(n, eta, d)]),
         "closed_form_sums"),
    ]
    for patch, check in cases:
        with monkeypatch.context() as mp:
            patch(mp)
            report = run_validation("quick", seed=2024)
        failed = [c["name"] for c in report["checks"] if not c["passed"]]
        assert check in failed and report["passed"] is False, (check, failed)


def test_slater_overlap_recovers_oracle(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "n": 3, "eta": 1, "k": 1, "samples": 6000, "seed": 12,
    }))
    assert main(["slater-overlap", "--config", str(cfg)]) == 0
    header, rows = _read_csv(capsys.readouterr().out)
    assert header == ["q", "overlap_re", "overlap_im", "stderr_re", "stderr_im",
                      "oracle_re", "oracle_im", "overlap_var_single_shot"]
    assert [r[0] for r in rows] == ["1", "2", "3"]
    total = 0.0
    for row in rows:
        est = complex(float(row[1]), float(row[2]))
        err = max(float(row[3]), float(row[4]), 1e-12)
        oracle = complex(float(row[5]), float(row[6]))
        assert abs(est - oracle) < 5 * np.sqrt(2) * err
        total += float(row[5]) ** 2 + float(row[6]) ** 2
        assert float(row[7]) >= 0.0
    assert abs(total - 1.0) < 1e-9  # oracle column is the normalized state itself


def test_slater_overlap_json_format(capsys):
    rc = main(["slater-overlap", "--n", "2", "--eta", "1", "--samples", "50",
               "--seed", "4", "--format", "json"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data) == 2
    assert set(data[0]) == {"q", "overlap_re", "overlap_im", "stderr_re",
                            "stderr_im", "oracle_re", "oracle_im",
                            "overlap_var_single_shot"}


def test_slater_overlap_rejects_bad_targets():
    # [[1]] at eta=2 once gave a row labelled 1 holding the values of (1, 2)
    for targets in ([[1, 5]], [[1]], [[2, 1]], [3]):
        with pytest.raises(ConfigError, match="target"):
            cmd_slater_overlap(ExperimentConfig(3, 2, 2, 5, 1, targets=targets))


def test_slater_overlap_rejects_eta_0(monkeypatch, capsys):
    # vacuum plus the empty reference is not normalized; this once died in
    # the collector with a RuntimeError traceback and exit 1
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before rejecting eta = 0")

    monkeypatch.setattr(cli, "collect_shadow_arrays", no_sampling)
    with pytest.raises(ConfigError, match="eta >= 1"):
        cmd_slater_overlap(ExperimentConfig(3, 0, 0, 5, 1))
    assert main(["slater-overlap", "--n", "3", "--eta", "0", "--samples", "5", "--seed", "1"]) == 2
    assert "eta >= 1" in capsys.readouterr().err


def test_slater_overlap_config_k_must_be_eta(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    base = {"n": 3, "eta": 2, "samples": 5, "seed": 1}
    cfg.write_text(json.dumps(dict(base, k=1)))
    assert main(["slater-overlap", "--config", str(cfg)]) == 2
    assert "k = eta = 2" in capsys.readouterr().err
    # a k that --eta overrides away is just as wrong
    cfg.write_text(json.dumps(dict(base, k=2)))
    assert main(["slater-overlap", "--config", str(cfg), "--eta", "1"]) == 2
    capsys.readouterr()
    # leaving k out or setting it to eta is unchanged
    outs = []
    for data in (base, dict(base, k=2)):
        cfg.write_text(json.dumps(data))
        assert main(["slater-overlap", "--config", str(cfg)]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] and len(outs[0].splitlines()) == 4


def test_slater_overlap_manifest(tmp_path, capsys, monkeypatch):
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setenv("MKL_NUM_THREADS", "4")
    assert main(["slater-overlap", "--n", "3", "--eta", "2", "--samples", "30", "--seed", "2",
                 "--out", str(tmp_path / "o")]) == 0
    capsys.readouterr()
    manifest = json.loads((tmp_path / "o.manifest.json").read_text())
    assert manifest["command"] == "slater-overlap" and manifest["rows"] == 3
    assert set(manifest["stages_s"]) == {"setup", "collect", "estimate", "aggregate"}
    assert manifest["peak_rss_mb"] > 0
    assert manifest["versions"]["numpy"] == np.__version__
    assert manifest["versions"]["threads"] == {
        "OPENBLAS_NUM_THREADS": None, "OMP_NUM_THREADS": None, "MKL_NUM_THREADS": "4"}


def test_variance_sweep_manifest(tmp_path, capsys):
    # the sweep's manifest is the other commands' one, with the grid as its config
    assert main(["variance-sweep", "--n", "3,4", "--eta", "2", "--k", "1", "--samples", "40",
                 "--seed", "5", "--out", str(tmp_path / "sweep")]) == 0
    capsys.readouterr()
    manifest = json.loads((tmp_path / "sweep.manifest.json").read_text())
    assert manifest["command"] == "variance-sweep" and manifest["rows"] == 2
    assert manifest["config"] == {"n": [3, 4], "eta": [2], "k": [1], "samples": 40, "seed": 5}
    assert set(manifest["stages_s"]) == {"setup", "collect", "estimate", "aggregate"}
    assert manifest["wall_time_s"] >= 0 and manifest["peak_rss_mb"] > 0
    assert manifest["versions"]["numpy"] == np.__version__
    assert "git_describe" in manifest


def test_slater_overlap_both_cross_checks(monkeypatch, capsys):
    # both reads every overlap from the gathered blocks and from the readout-row
    # products; they agree, and a 1e-6 error in the products on one target
    # fails the run (exit 1) with every row still printed
    for n, eta in [(3, 2), (5, 3)]:
        config = ExperimentConfig(n, eta, eta, 60, 4, estimator="both",
                                  aggregation="median_of_means:10")
        assert cmd_slater_overlap(config) == 0
        header, rows = _read_csv(capsys.readouterr().out)
        assert header[-2:] == ["fast_overlap_re", "fast_overlap_im"]
        assert len(rows) == binom(n, eta)
        for row in rows:
            assert abs(float(row[1]) - float(row[8])) < 1e-8
            assert abs(float(row[2]) - float(row[9])) < 1e-8
    _offset_products(monkeypatch, lambda p, q: 1e-6 * (np.arange(len(p)) == 0))
    for n, eta in [(3, 2), (5, 3)]:
        config = ExperimentConfig(n, eta, eta, 60, 4, estimator="both")
        assert cmd_slater_overlap(config) == 1
        out, err = capsys.readouterr()
        assert len(_read_csv(out)[1]) == binom(n, eta)
        assert err.startswith("gathered blocks and readout-row products disagree")
        assert 1e-8 < float(err.split()[-1]) <= 1e-6


def test_slater_overlap_matches_dense_reference_row(monkeypatch, capsys):
    # the command reads each overlap from its eta x eta block; the old route,
    # the reference row of the full dense matrices, stays as the oracle for
    # every table the reducer is fed, chunk by chunk.  The reducer sees the
    # transitions, and the printed overlap is twice their mean
    monkeypatch.setattr(shadows, "_CHUNK", 16)
    seen = {"collect_shadow_arrays": [], "add": [], "reducer": []}
    collect, add = cli.collect_shadow_arrays, shadows.Reducer.add

    def spy_collect(*args, **kwargs):
        seen["collect_shadow_arrays"].append(collect(*args, **kwargs))
        return seen["collect_shadow_arrays"][-1]

    def spy_add(self, chunk, lo=0):
        seen["add"].append(np.array(chunk))
        seen["reducer"].append(self)
        return add(self, chunk, lo)

    monkeypatch.setattr(cli, "collect_shadow_arrays", spy_collect)
    monkeypatch.setattr(shadows.Reducer, "add", spy_add)
    for n, eta in [(3, 2), (4, 3)]:
        for calls in seen.values():
            calls.clear()
        assert main(["slater-overlap", "--n", str(n), "--eta", str(eta),
                     "--samples", "40", "--seed", "3", "--format", "json"]) == 0
        printed = json.loads(capsys.readouterr().out)
        assert len(seen["add"]) == len(seen["collect_shadow_arrays"]) == 3
        ws = np.concatenate([w for w, _ in seen["collect_shadow_arrays"]])
        got = np.concatenate(seen["add"])
        qs = list(subsets(n, eta))
        assert got.shape == (40, len(qs))
        ref = tuple(range(n + 1, n + eta + 1))
        ref_row = batch_estimate_matrices(ws, eta)[:, target_oracle.rank(ref)]
        want = ref_row[:, target_oracle.ranks(qs)]
        assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))
        reducer = seen["reducer"][0]
        assert all(r is reducer for r in seen["reducer"])
        assert [(row["overlap_re"], row["overlap_im"]) for row in printed] == [
            (cli._fmt(2 * v.real), cli._fmt(2 * v.imag)) for v in reducer.mean]


def _assert_same_table(got: str, want: str):
    # equal labels and exact cells; numbers within 1e-12 relative (absolute below 1)
    got_rows, want_rows = _read_csv(got), _read_csv(want)
    assert got_rows[0] == want_rows[0] and len(got_rows[1]) == len(want_rows[1])
    for g_row, w_row in zip(got_rows[1], want_rows[1]):
        assert len(g_row) == len(w_row)
        for g, w in zip(g_row, w_row):
            if g != w:
                assert abs(float(g) - float(w)) <= 1e-12 * max(1.0, abs(float(w))), (g, w)


@pytest.mark.parametrize("argv", [
    ["estimate", "--n", "4", "--eta", "2", "--k", "2", "--samples", "50", "--seed", "3"],
    ["estimate", "--n", "4", "--eta", "2", "--k", "1", "--samples", "50", "--seed", "5",
     "--config", "AGG"],
    ["estimate", "--n", "5", "--eta", "3", "--k", "2", "--samples", "42", "--seed", "8",
     "--config", "FAST"],
    ["estimate", "--n", "5", "--eta", "3", "--k", "2", "--samples", "42", "--seed", "9",
     "--config", "BOTH"],
    ["slater-overlap", "--n", "3", "--eta", "2", "--samples", "45", "--seed", "2"],
    ["slater-overlap", "--n", "4", "--eta", "2", "--samples", "40", "--seed", "6",
     "--config", "AGG"],
    ["variance-sweep", "--n", "3,4", "--eta", "2", "--k", "1,2", "--samples", "30", "--seed", "4"],
], ids=["dense", "dense-mom", "fast", "both-mom", "overlap", "overlap-mom", "sweep"])
def test_chunked_output_matches_one_chunk(argv, tmp_path, monkeypatch, capsys):
    # several chunks (7 shots each, median-of-means batches straddling
    # them) print what one chunk over all the shots prints, to rounding
    configs = {
        "AGG": {"aggregation": "median_of_means:5"},
        # two listed pairs: the kernel forms their blocks from readout-row
        # products, the source that both prints as fast_estimate
        "FAST": {"targets": [[[1, 2], [2, 5]], [[3, 4], [3, 4]]]},
        "BOTH": {"estimator": "both", "aggregation": "median_of_means:3",
                 "targets": [[[1, 2], [2, 5]], [[3, 4], [3, 4]], [[1, 5], [2, 4]]]},
    }
    argv = list(argv)
    if "--config" in argv:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(configs[argv[-1]]))
        argv[-1] = str(cfg)
    out = {}
    for chunk in (7, 1000):
        monkeypatch.setattr(shadows, "_CHUNK", chunk)
        assert main(argv) == 0
        out[chunk] = capsys.readouterr().out
    _assert_same_table(out[7], out[1000])


def test_estimate_peak_memory_flat_in_samples(monkeypatch, capsys):
    # collect -> estimate -> reduce runs one chunk at a time, so ten times
    # the shots leave the traced peak where it was
    monkeypatch.setattr(shadows, "_CHUNK", 256)

    def peak(samples):
        tracemalloc.start()
        try:
            assert cli.cmd_estimate(ExperimentConfig(4, 2, 2, samples, 7)) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            capsys.readouterr()

    peak(256)       # fill the caches first
    two, twenty = peak(2 * 256), peak(20 * 256)
    assert twenty <= 1.1 * two, (two, twenty)


def test_estimate_chunk_sized_by_target_count(capsys):
    # 2025 targets: chunks of 256 shots keep the (shots, T) tables near 2^19
    # numbers, where 2048-shot chunks traced 159 MiB
    tracemalloc.start()
    try:
        assert main(["estimate", "--n", "10", "--eta", "2", "--k", "2",
                     "--samples", "2048", "--seed", "1"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        capsys.readouterr()
    assert peak <= 40 * 2**20, peak


def test_estimate_memory_with_few_targets(capsys):
    # two listed targets on a 16-mode register read two k x k blocks each,
    # not a (N, C(16,2), C(16,2)) stack; under 4 MiB traced for every estimator
    targets = [[[1, 2], [3, 16]], [[5, 11], [5, 11]]]
    for estimator in ("dense", "both"):
        config = ExperimentConfig(16, 2, 2, 64, 5, estimator=estimator, targets=targets)
        tracemalloc.start()
        try:
            assert cli.cmd_estimate(config) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            capsys.readouterr()
        assert peak <= 4 * 2**20, (estimator, peak)


def test_git_describe_spawns_no_git_outside_a_checkout(tmp_path, monkeypatch):
    # with no GIT_DIR and no .git entry in the package directory or above it,
    # git can find no repository, so none is spawned to find out
    if any((d / ".git").exists() for d in (tmp_path, *tmp_path.parents)):
        pytest.skip("the temporary directory lies inside a git checkout")
    pkg = tmp_path / "src" / "fermishadow"
    pkg.mkdir(parents=True)
    monkeypatch.setattr(cli, "__file__", str(pkg / "cli.py"))
    monkeypatch.delenv("GIT_DIR", raising=False)

    def no_spawn(*args, **kwargs):
        raise AssertionError("spawned git outside a checkout")

    monkeypatch.setattr(subprocess, "run", no_spawn)
    assert cli._git_describe() is None
    calls = []

    def fake_git(args, cwd, **kwargs):
        calls.append(cwd)
        return subprocess.CompletedProcess(args, 0, stdout="abc1234\n", stderr="")

    monkeypatch.setattr(subprocess, "run", fake_git)
    (tmp_path / ".git").mkdir()
    assert cli._git_describe() == "abc1234"
    assert calls == [str(pkg)]


def test_git_describe_names_the_package_checkout(tmp_path):
    # a run started inside another git checkout must not record that
    # checkout's commit as the package's
    git = shutil.which("git")
    if git is None:
        pytest.skip("git is not installed")
    other = tmp_path / "other"
    other.mkdir()

    def run_git(*args, cwd):
        return subprocess.run([git, *args], cwd=cwd, capture_output=True, text=True,
                              check=True, timeout=60).stdout.strip()

    run_git("init", "-q", cwd=other)
    (other / "notes.txt").write_text("elsewhere\n")
    run_git("add", "notes.txt", cwd=other)
    run_git("-c", "user.name=someone", "-c", "user.email=someone@example.com",
            "commit", "-q", "-m", "unrelated", cwd=other)
    foreign = run_git("describe", "--always", "--dirty", cwd=other)
    pkg = Path(cli.__file__).resolve().parent
    own = subprocess.run([git, "describe", "--always", "--dirty"], cwd=pkg,
                         capture_output=True, text=True, timeout=60).stdout.strip() or None
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run(
        [sys.executable, "-m", "fermishadow.cli", "estimate", "--n", "2", "--eta", "1",
         "--k", "1", "--samples", "5", "--seed", "1", "--out", str(tmp_path / "run")],
        cwd=other, capture_output=True, text=True, env=env, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    manifest = json.loads((tmp_path / "run.manifest.json").read_text())
    assert manifest["git_describe"] != foreign
    assert manifest["git_describe"] == own
