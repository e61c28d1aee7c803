"""Command-line entry points: estimate, variance-sweep, validate, slater-overlap.

Configuration is a single JSON file plus flag overrides; given a seed, every
output byte is reproducible.  Exit codes: 0 success, 1 validation failure,
2 configuration error.
"""

import argparse
import csv
import ctypes
import gc
import json
import os
import platform
import subprocess
import sys
import time
from contextlib import suppress
from dataclasses import dataclass

import numpy as np

from . import shadows
from .combinat import binom, check_sizes, check_subsets, is_int, rank_rows, subset_index_array
from .fock import (
    FermionState,
    basis_state,
    random_state,
    slater_superposition,
    state_from_json,
)
from .linalg import haar_network, network_rows
from .shadows import (
    _STATE_INDEX,
    Reducer,
    all_pairs,
    avg_shadow_norm_sq,
    collect_shadow_arrays,
    q_value,
    shadow_rng,
    variance_bound,
)


class ConfigError(Exception):
    """Invalid configuration; maps to exit code 2."""


# thread-count variables of the BLAS/OpenMP pools, recorded in the manifest
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _check_seed(seed) -> int:
    """seed as a Python int; ConfigError unless it passes shadows._is_uint64."""
    if not shadows._is_uint64(seed):
        raise ConfigError(f"seed must be a 64-bit unsigned integer, got {seed!r}")
    return int(seed)


def _aggregation(spec) -> tuple:
    """Reducer's (mode, batches) from "mean" or "median_of_means:B"; TypeError
    unless spec is a str, ValueError for a B that int() cannot read."""
    mode, colon, batches = str.partition(spec, ":")
    return mode, int(batches) if colon else None


@dataclass
class ExperimentConfig:
    """One run: sizes, sampling budget, state, estimator, aggregation, targets."""

    n: int
    eta: int
    k: int
    samples: int
    seed: int
    state_source: str = "random_pure"
    estimator: str = "dense"
    aggregation: str = "mean"
    targets: object = "all_krdm"

    def validate(self):
        try:
            self.n, self.eta, self.k = check_sizes(self.n, self.eta, self.k)
            check_sizes(self.n, 1)      # a mode for the collector to rotate
        except ValueError:
            if not all(map(is_int, (self.n, self.eta, self.k))):
                raise ConfigError("n, eta, k must be integers") from None
            raise ConfigError(f"need 0 <= k <= eta <= n and n >= 1, "
                              f"got n={self.n} eta={self.eta} k={self.k}") from None
        if not (is_int(self.samples) and self.samples >= 1):
            raise ConfigError(f"samples must be a positive integer, got {self.samples!r}")
        # Python ints, which the manifest's JSON holds and numpy ones it cannot
        self.samples, self.seed = int(self.samples), _check_seed(self.seed)
        src = self.state_source
        if not (isinstance(src, str)
                and (src == "random_pure" or src.startswith(("basis:", "file:")))):
            raise ConfigError(f"state_source must be random_pure, basis:..., or file:..., got {src!r}")
        if self.estimator not in ("dense", "both"):
            raise ConfigError(f"estimator must be dense or both, got {self.estimator!r}")
        try:        # width 0: Reducer decides the spec and allocates nothing
            Reducer(self.samples, 0, *_aggregation(self.aggregation))
        except (TypeError, ValueError):
            raise ConfigError(f"aggregation must be mean or median_of_means:B with B batches that "
                              f"divide samples={self.samples}, got {self.aggregation!r}") from None
        if self.targets != "all_krdm" and not isinstance(self.targets, list):
            raise ConfigError(f"targets must be all_krdm or a list, got {self.targets!r}")


def _check_alloc(shape, dtype, what: str):
    """Raise ConfigError, "what, more than numpy can allocate", unless numpy can
    allocate an array of shape and dtype.

    The allocation itself decides: numpy refuses a length or a byte count
    past its index range, and memory the system will not map.  np.empty
    touches no page, so an array that fits costs nothing here.  Callers name
    a size such as C(n, eta) and never print it, which may have thousands of
    digits.
    """
    try:
        np.empty(shape, dtype=dtype)
    except (ValueError, MemoryError):
        raise ConfigError(f"{what}, more than numpy can allocate") from None


def _check_sector(n: int, eta: int):
    """Raise ConfigError unless numpy can allocate the C(n, eta) amplitudes of a sector."""
    _check_alloc(binom(n, eta), np.complex128,
                 f"the {eta}-particle sector on {n} modes has C({n},{eta}) amplitudes")


def _all_pairs(n: int, k: int) -> tuple:
    """all_pairs(n, k); ConfigError, before it runs, unless numpy can allocate
    its pairs as one (C(n,k)^2, 2, k) int64 table."""
    _check_alloc((binom(n, k) ** 2, 2, k), np.int64,
                 f"the table of all {k}-body transitions on {n} modes has C({n},{k})^2 rows")
    return all_pairs(n, k)


def build_state(config: ExperimentConfig) -> FermionState:
    """Materialize the input state named by config.state_source.

    random_pure and basis: allocate the sector, so _check_sector runs before
    any draw, after a basis subset's own checks.
    """
    src = config.state_source
    if src == "random_pure":
        _check_sector(config.n, config.eta)
        return random_state(config.n, config.eta, shadow_rng(config.seed, _STATE_INDEX))
    if src.startswith("basis:"):
        z = tuple(_parse_int_list(src[len("basis:"):]))
        if len(z) != config.eta:
            raise ConfigError(f"basis state has {len(z)} modes, config says eta={config.eta}")
        try:
            check_subsets(z, config.n)
        except ValueError:
            raise ConfigError(f"invalid basis subset {z} for n={config.n}") from None
        _check_sector(config.n, config.eta)
        return basis_state(z, config.n)
    path = src[len("file:"):]
    try:
        with open(path) as fh:
            state = state_from_json(fh.read())
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot load state from {path}: {exc}") from None
    if (state.n, state.eta) != (config.n, config.eta):
        raise ConfigError(
            f"state file has n={state.n} eta={state.eta}, config says n={config.n} eta={config.eta}"
        )
    return state


def _target_table(items: list, n: int, size: int, pairs: bool) -> np.ndarray:
    """items as an int64 table: (T, 2, size) of (p, q) pairs, or (T, size) of subsets.

    One check_subsets pass checks that every mode is an integer and every subset
    strictly increasing within 1..n.  Otherwise a ConfigError names the first
    bad item: "bad target pair" if it is not a pair, "bad target" if one of
    its subsets is not integers strictly increasing within 1..n, and "needs
    size-subsets" if one has the wrong size, checking p before q.
    """
    shape = (len(items), 2, size) if pairs else (len(items), size)
    with suppress(ValueError):
        table = check_subsets(items if items else np.zeros(shape, dtype=np.int64), n)
        if table.shape == shape:
            return table
    for item in items:
        subs = (item,)
        if pairs:
            try:
                p, q = item
            except (TypeError, ValueError):
                raise ConfigError(f"bad target pair {item!r}") from None
            subs = (p, q)
        for z in subs:
            row = None
            with suppress(ValueError):
                row = check_subsets(z, n)
            if row is None or row.ndim != 1:
                raise ConfigError(f"bad target {item!r}")
            if len(row) != size:
                raise ConfigError(f"target {item!r} needs {size}-subsets of 1..{n}")
    raise ConfigError(f"targets must hold {size}-subsets of 1..{n} with integer modes")


def _resolve_targets(config: ExperimentConfig) -> np.ndarray:
    """(T, 2, k) int64 table of the (p, q) subset pairs to estimate, in deterministic order."""
    if config.targets == "all_krdm":
        return np.stack(_all_pairs(config.n, config.k), axis=1)
    return _target_table(config.targets, config.n, config.k, pairs=True)


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _subset_str(z) -> str:
    return "+".join(str(m) for m in z)


def _labels(rows) -> list:
    """The _subset_str of each subset in rows, one string per distinct subset."""
    names = {}
    return [names[z] if z in names else names.setdefault(z, _subset_str(z))
            for z in map(tuple, rows)]


def _git_describe():
    """git describe of the checkout holding this package; None outside one.

    Without GIT_DIR, git finds a repository only through a .git entry in the
    package directory or an ancestor, so where there is none no git is spawned.
    """
    here = top = os.path.dirname(os.path.abspath(__file__))
    if "GIT_DIR" not in os.environ:
        while not os.path.lexists(os.path.join(top, ".git")):
            if os.path.dirname(top) == top:
                return None
            top = os.path.dirname(top)
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=here,
            capture_output=True, text=True, timeout=10,
        )
        return out.stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        return None


class _Stages:
    """Seconds spent per named stage, summed over laps; each lap runs from the previous one.

    The first runs from start, the creation time that the manifest's wall time counts from.
    """

    def __init__(self):
        self.seconds = {}
        self.start = self._last = time.monotonic()

    def lap(self, name: str):
        now = time.monotonic()
        self.seconds[name] = self.seconds.get(name, 0.0) + (now - self._last)
        self._last = now


def _peak_rss_mb():
    """Peak resident set of this process in MB; None where resource is missing."""
    try:
        import resource
    except ImportError:         # not on Windows
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # kilobytes on Linux, bytes on macOS
    return round(peak / (2**20 if sys.platform == "darwin" else 2**10), 1)


def _run_manifest(command: str, config: dict, stages: _Stages) -> dict:
    return {
        "command": command,
        "config": dict(config),
        "git_describe": _git_describe(),
        "wall_time_s": round(time.monotonic() - stages.start, 3),
        "stages_s": {name: round(s, 4) for name, s in stages.seconds.items()},
        "peak_rss_mb": _peak_rss_mb(),
        "versions": {"python": platform.python_version(), "numpy": np.__version__,
                     "threads": {v: os.environ.get(v) for v in _THREAD_VARS}},
    }


def _out_files(out: str, fmt: str) -> tuple:
    """(rows file, manifest file) of --out BASE: BASE.fmt, or BASE itself if it ends so."""
    base = out[: -len("." + fmt)] if out.endswith("." + fmt) else out
    return base + "." + fmt, base + ".manifest.json"


def _write_rows(rows: list, header: list, out: str, fmt: str, manifest: dict):
    """Emit rows as CSV or JSON; manifest goes next to a file, stdout otherwise.

    On stdout the manifest is dropped, so callers pass None there rather
    than build it (git describe alone takes milliseconds).
    """
    if fmt == "csv":
        def dump(fh):
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(header)
            w.writerows(rows)
    else:
        def dump(fh):
            json.dump([dict(zip(header, r)) for r in rows], fh, indent=2)
            fh.write("\n")
    if out:
        path, mpath = _out_files(out, fmt)
        with open(path, "w", newline="") as fh:
            dump(fh)
        manifest = dict(manifest, rows=len(rows), output=path)
        with open(mpath, "w") as fh:
            # one call of the C encoder; indent would select the pure-Python one
            fh.write(json.dumps(manifest) + "\n")
        print(f"wrote {path} ({len(rows)} rows) and {mpath}")
    else:
        dump(sys.stdout)


def _check_out(out: str, files):
    """Raise ConfigError unless --out names a file in a writable directory.

    files are the paths that the command will write.  Refused: an out that
    ends in a separator (a directory, or a base that would name hidden files
    by their extension alone), a file that is an existing directory, and a
    missing or unwritable folder.  Checked before any sampling or check, so
    a bad path costs no work.
    """
    if not os.path.basename(out) or any(map(os.path.isdir, files)):
        raise ConfigError(f"cannot write {out}: it names a directory, not a file")
    folder = os.path.dirname(os.path.abspath(out))
    if not (os.path.isdir(folder) and os.access(folder, os.W_OK)):
        raise ConfigError(f"cannot write {out}: {folder} is not a writable directory")


def _sample(state: FermionState, config: ExperimentConfig, tables: list, stages: _Stages,
            record: dict) -> tuple:
    """(results, agree): config.samples shots of state, reduced per target table.

    tables lists (ps, qs) target tables, (T, k) each, and results[i] lists,
    per Reducer of table i, its (value, error, variance), three (T,) arrays.
    Runs collect -> estimate -> reduce one chunk of shots at a time, every
    table reading the same chunk: at most shadows._CHUNK shots, and fewer
    where the largest table's T targets times the shots would pass about
    2^19.  That bounds each plan's (B, N) block sums, B <= 2T; no path
    builds a (shots, T) table, so peak memory is set by the targets, not by
    config.samples.  Each chunk is its own start_index call, which draws the
    same bits as one call over all the shots.  Each table's
    shadows._block_plan is built once, in setup, and applied to every chunk.
    Every Reducer is fed the plan's columns, one per distinct unordered
    {p, q}, in tiles assembled from its per-block sums: dense feeds one, from
    the blocks by the rule; both two, from the gathered blocks and from the
    readout-row products, and check_fast_vs_dense compares their tiles of
    the same columns.  Each Reducer's results are then expanded to the
    targets.  record, the manifest's extra fields, gets born_worst_defect
    and, under both, both_worst_gap (a NaN stays); agree says whether every
    tile passed.
    """
    sources = (True, False) if config.estimator == "both" else (None,)
    plans = [shadows._block_plan(state.n, state.eta, ps.shape[1], ps, qs) for ps, qs in tables]
    reducers = [[Reducer(config.samples, plan.width, *_aggregation(config.aggregation))
                 for _ in sources] for plan in plans]
    agree = True
    if len(sources) == 2:
        record["both_worst_gap"] = 0.0
    stages.lap("setup")
    widest = max(len(ps) for ps, _ in tables)
    step = min(shadows._CHUNK, max(1, 2**19 // max(1, widest)))
    for lo in range(0, config.samples, step):
        count = min(step, config.samples - lo)
        ws, _ = collect_shadow_arrays(state, count, config.seed, start_index=lo, record=record)
        stages.lap("collect")
        for plan, table_reducers in zip(plans, reducers):
            for parts in zip(*(plan.columns(ws, gather) for gather in sources)):
                col, tiles = parts[0][0], [tile for _, tile in parts]
                if len(tiles) == 2:     # both: the products' tile against the gathered one
                    ok, worst = shadows.check_fast_vs_dense(tiles[1], tiles[0])
                    agree = agree and ok
                    record["both_worst_gap"] = float(np.maximum(record["both_worst_gap"], worst))
                stages.lap("estimate")
                for reducer, tile in zip(table_reducers, tiles):
                    reducer.add(tile.T, col)
                stages.lap("aggregate")
    results = [[(plan.expand(val, conjugate=True), plan.expand(err), plan.expand(var))
                for val, err, var in ((*r.result(), r.variance()) for r in table_reducers)]
               for plan, table_reducers in zip(plans, reducers)]
    return results, agree


def _finish(command: str, config: dict, stages: _Stages, rows: list, header: list,
            out: str, fmt: str, record: dict, agree: bool = True) -> int:
    """Write rows, with the run manifest when out names a file; return the exit code.

    record's fields, _sample's, go into the manifest after the common ones.
    1 when the both gate failed (agree False): the rows are still written,
    then stderr names record's both_worst_gap.
    """
    stages.lap("aggregate")
    manifest = dict(_run_manifest(command, config, stages), **record) if out else None
    _write_rows(rows, header, out, fmt, manifest)
    if not agree:
        print(f"gathered blocks and readout-row products disagree: "
              f"worst relative gap {record['both_worst_gap']:.3e}", file=sys.stderr)
        return 1
    return 0


def cmd_estimate(config: ExperimentConfig, out: str = None, fmt: str = "csv") -> int:
    """Collect shadows, estimate the requested transitions, write rows.

    The targets are one (T, 2, k) table, reduced by _sample.  both prints the
    gathered blocks' values in the estimate columns and the readout-row
    products' in the fast_estimate columns, and fails the run (exit 1, rows
    still written) unless every tile passed check_fast_vs_dense.
    """
    config.validate()
    stages = _Stages()
    state = build_state(config)
    targets = _resolve_targets(config)
    record = {}
    [results], agree = _sample(state, config, [(targets[:, 0], targets[:, 1])], stages, record)
    (val, err, _), *fast = results
    header = ["p", "q", "estimate_re", "estimate_im", "stderr_re", "stderr_im"]
    cols = [val.real, val.imag, err.real, err.imag]
    if fast:
        [(fval, _, _)] = fast
        header += ["fast_estimate_re", "fast_estimate_im"]
        cols += [fval.real, fval.imag]
    labels = _labels(z for pair in targets.tolist() for z in pair)
    rows = [[p, q, *map(_fmt, r)]
            for p, q, r in zip(labels[0::2], labels[1::2], np.stack(cols, axis=1).tolist())]
    return _finish("estimate", vars(config), stages, rows, header, out, fmt, record, agree)


def _parse_int_list(text: str) -> list:
    try:
        return [int(tok) for tok in text.split(",") if tok]
    except ValueError:
        raise ConfigError(f"need comma-separated integers, got {text!r}") from None


def cmd_variance_sweep(ns, etas, ks, samples: int = 0, seed: int = 0,
                       out: str = None, fmt: str = "csv") -> int:
    """Exact variance table over an (n, eta, k) grid, optional empirical column.

    The empirical column of grid row i is the mean over all C(n,k)^2
    transitions (shadows.all_pairs) of the single-shot variance, reduced by
    _sample from samples shots of the random_pure state of seed.  Rows of one
    (n, eta) share that state and its snapshots: one _sample call collects
    them once and feeds every k's table.
    """
    if samples < 0:
        raise ConfigError(f"samples must be 0 (no empirical column) or positive, got {samples}")
    _check_seed(seed)
    stages = _Stages()
    header = ["n", "eta", "k", "q_exact", "avg_shadow_norm_sq", "variance_bound",
              "empirical_avg_variance", "samples"]
    rows, record = [], {}
    for n in ns:
        for eta in etas:
            orders = [k for k in ks if 1 <= k <= eta <= n]
            emp = [""] * len(orders)
            if samples > 0 and orders:
                config = ExperimentConfig(n, eta, eta, samples, seed)     # k: per table
                state = build_state(config)     # the sector check, before any C(n,k)^2 table
                tables = [_all_pairs(n, k) for k in orders]
                results, _ = _sample(state, config, tables, stages, record)
                emp = [_fmt(float(var.mean())) for [(_, _, var)] in results]
            for k, e in zip(orders, emp):
                rows.append([
                    n, eta, k,
                    str(q_value(n, eta, k)),
                    str(avg_shadow_norm_sq(n, eta, k)),
                    str(variance_bound(n, eta, k)),
                    e,
                    samples if samples > 0 else "",
                ])
    grid = {"n": list(ns), "eta": list(etas), "k": list(ks), "samples": samples, "seed": seed}
    return _finish("variance-sweep", grid, stages, rows, header, out, fmt, record)


def run_validation(level: str = "quick", seed: int = 2024) -> dict:
    """Run the invariant suites and return a JSON-able report.

    Each check calls the identities.check_* function that a Tier-1 test
    calls too, at this level's sizes and with draws of its own; fast_vs_dense
    compares the two block sources of a _block_plan of its pairs, the gate
    that both runs per column tile.  States and pairs come from
    default_rng(seed), and per_shadow_swap's 8 pairs per k from
    default_rng([seed, 1]).  Each size b of
    a check collects shots 32 b .. 32 b + 31 of the seed's stream at most, a
    range of its own (the per_shadow checks share theirs), so the shot
    index tells the draws apart and every 64-bit seed is valid.
    """
    from . import identities

    quick = level == "quick"
    n_cap = 5 if quick else 8
    mc_samples = 10_000 if quick else 100_000
    rng = np.random.default_rng(seed)
    grid = [(n, eta) for n in range(1, n_cap + 1) for eta in range(n + 1)]

    def expansion():
        return all(identities.check_projector_expansion(*g) for g in grid), f"exact, n <= {n_cap}"

    def sums():
        ok = all(identities.check_closed_forms(*g)[0] for g in grid)
        return ok and identities.chu_vandermonde_checks(10), f"exact, n <= {n_cap}"

    shots = [collect_shadow_arrays(random_state(n, eta, rng), 32, seed, start_index=32 * b)[0]
             for b, (n, eta) in enumerate([(4, 2), (n_cap, min(3, n_cap - 1))])]

    def per_shadow(check, bound, orders=None):
        bad = []
        for ws in shots:
            eta, n = ws.shape[1:]
            for k in orders or range(1, eta + 1):
                ok, gap, _ = check(ws, k)
                if not ok:
                    bad.append(f"n={n} eta={eta} k={k}: relative gap {gap:.2e}")
        return not bad, "; ".join(bad) or f"within {bound} relative"

    swap_rng = np.random.default_rng([seed, 1])     # so the other checks draw as without it

    def swap(ws, k):
        ss = subset_index_array(ws.shape[2], k) + 1
        return identities.check_shadow_swap(ws, k, *ss[swap_rng.integers(len(ss), size=(2, 8))])

    def fast_vs_dense():
        ok, worst = True, 0.0
        # eta = 4 sums Pi's rows in an order where the two block sources round apart
        for b, (n, eta) in enumerate([(4, 2), (min(6, n_cap), 3), (n_cap, 4)], start=2):
            state = random_state(n, eta, rng)
            ws, _ = collect_shadow_arrays(state, 4 if quick else 10, seed,
                                          start_index=32 * b)
            for k in range(1, eta + 1):
                ss = subset_index_array(n, k) + 1
                pairs = ss[rng.integers(len(ss), size=8)]       # p, q, p, q, ...
                plan = shadows._block_plan(n, eta, k, pairs[0::2], pairs[1::2])
                passed, gap = shadows.check_fast_vs_dense(plan(ws, gather=False),
                                                          plan(ws, gather=True))
                ok, worst = ok and passed, max(worst, gap)
        return ok, f"worst relative gap {worst:.2e}"

    def twirl():
        bad = []
        for n, eta in [(3, 1), (4, 2)]:
            network = haar_network(np.random.default_rng(seed + n).random((mc_samples, n * n)))
            us = network_rows(network, np.broadcast_to(np.arange(n), (mc_samples, n)))
            ok, worst, _ = identities.check_twirl_moments(us, eta, 5.0)
            if not ok:
                bad.append(f"n={n} eta={eta}: {worst:.1f} sigma")
        return not bad, "; ".join(bad) or f"{mc_samples} samples, within 5 sigma"

    checks = [
        ("projector_expansion_and_eigenrelation", expansion),
        ("closed_form_sums", sums),
        ("per_shadow_norm_sum", lambda: per_shadow(identities.check_shadow_norms, "1e-8")),
        ("per_shadow_trace", lambda: per_shadow(identities.check_shadow_trace, "1e-10")),
        ("per_shadow_one_body", lambda: per_shadow(
            lambda ws, _: identities.check_shadow_one_body(ws), "1e-12", orders=[1])),
        ("per_shadow_swap", lambda: per_shadow(swap, "1e-12")),
        ("fast_vs_dense", fast_vs_dense),
        ("mc_channel_twirl", twirl),
    ]
    report = {"level": level, "checks": []}
    for name, run in checks:
        passed, detail = run()
        report["checks"].append({"name": name, "passed": bool(passed), "detail": detail})
    report["passed"] = all(c["passed"] for c in report["checks"])
    return report


def cmd_validate(level: str = "quick", out: str = None, seed: int = 2024) -> int:
    """Run the validation suites; exit 1 if any check fails."""
    if level not in ("quick", "full"):
        raise ConfigError(f"level must be quick or full, got {level!r}")
    _check_seed(seed)
    report = run_validation(level, seed=seed)
    text = json.dumps(report, indent=2) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
        print(f"wrote {out}: {'pass' if report['passed'] else 'FAIL'}")
    else:
        sys.stdout.write(text)
    return 0 if report["passed"] else 1


def cmd_slater_overlap(config: ExperimentConfig, out: str = None, fmt: str = "csv") -> int:
    """Estimate every Slater-determinant overlap of the configured state.

    Doubles the register by eta reference modes, samples shadows of the
    half-and-half superposition, and reads each overlap with target q as
    twice the estimated eta-body transition (ref, q) from the reference
    determinant.  ref and q are disjoint, so each estimate is a few
    determinants of the eta x eta block U_z[:, q]^H U_z[:, ref], O(eta^4)
    per shot whatever n is.  _sample reduces the transitions; value and
    error are then doubled and the single-shot variance column multiplied by
    4, exact powers of two that give the bits of reducing doubled estimates.
    estimator is handled as by estimate: both prints the product blocks'
    overlaps in the fast_overlap columns and exits 1, rows still written,
    if a tile fails check_fast_vs_dense.  Raises ConfigError, before any
    sampling, for eta = 0: the vacuum plus the empty reference is not a
    normalized state, and, by _check_sector, for a doubled register of
    C(n+eta, eta) amplitudes that numpy cannot allocate.
    """
    config.validate()
    if config.eta == 0:
        raise ConfigError("slater-overlap needs eta >= 1")
    _check_sector(config.n + config.eta, config.eta)        # the doubled register
    stages = _Stages()
    state = build_state(config)
    n, eta = config.n, config.eta
    if isinstance(config.targets, list):
        qs = _target_table(config.targets, n, eta, pairs=False)
    else:
        qs = subset_index_array(n, eta) + 1
    refs = np.broadcast_to(np.arange(n + 1, n + eta + 1), qs.shape)
    record = {}
    [results], agree = _sample(slater_superposition(state), config, [(refs, qs)], stages, record)
    (val, err, var), *fast = results
    oracle = state.amps[rank_rows(qs, n)]
    header = ["q", "overlap_re", "overlap_im", "stderr_re", "stderr_im",
              "oracle_re", "oracle_im", "overlap_var_single_shot"]
    cols = [2 * val.real, 2 * val.imag, 2 * err.real, 2 * err.imag, oracle.real, oracle.imag,
            4 * var]
    if fast:
        [(fval, _, _)] = fast
        header += ["fast_overlap_re", "fast_overlap_im"]
        cols += [2 * fval.real, 2 * fval.imag]
    rows = [[q, *map(_fmt, r)]
            for q, r in zip(_labels(qs.tolist()), np.stack(cols, axis=1).tolist())]
    return _finish("slater-overlap", vars(config), stages, rows, header, out, fmt, record, agree)


def _load_config(args, need_k: bool = True) -> ExperimentConfig:
    data = {}
    if args.config:
        try:
            with open(args.config) as fh:
                data = json.load(fh)
        except (OSError, ValueError, RecursionError) as exc:     # RecursionError: deep nesting
            raise ConfigError(f"cannot read config {args.config}: {exc}") from None
        if not isinstance(data, dict):
            raise ConfigError("config file must hold a JSON object")
    for key in ("n", "eta", "k", "samples", "seed"):
        val = getattr(args, key, None)
        if val is not None:
            data[key] = val
    data.setdefault("k", data.get("eta") if not need_k else None)
    missing = [key for key in ("n", "eta", "k", "samples", "seed") if data.get(key) is None]
    if missing:
        raise ConfigError(f"missing config fields: {', '.join(missing)}")
    if not need_k and data["k"] != data["eta"]:
        raise ConfigError(f"slater-overlap estimates k = eta = {data['eta']}, "
                          f"config sets k = {data['k']!r}")
    known = {f for f in ExperimentConfig.__dataclass_fields__}
    extra = set(data) - known
    if extra:
        raise ConfigError(f"unknown config fields: {', '.join(sorted(extra))}")
    return ExperimentConfig(**data)


def _keep_heap():
    """On glibc, keep freed chunk buffers in the heap instead of returning them.

    Each chunk of shots allocates the same numpy temporaries again.  glibc
    serves blocks above its mmap threshold by fresh mappings and trims the
    heap top on free, so every chunk faults its pages in anew.  A fixed
    32 MiB mmap threshold and no trimming let the next chunk reuse them.
    Elsewhere this does nothing.
    """
    try:
        libc = os.confstr("CS_GNU_LIBC_VERSION") or ""
    except (AttributeError, ValueError, OSError):     # no confstr, or no such name
        return
    if not libc.startswith("glibc"):
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(-3, 32 * 2**20)     # M_MMAP_THRESHOLD, at the cap of glibc's dynamic one
    mallopt(-1, 2**31 - 1)      # M_TRIM_THRESHOLD: never trim the heap top


def main(argv=None) -> int:
    """Run one command; its first call freezes the caller's heap (gc.freeze).

    An in-process caller whose garbage must stay collectable calls the cmd_*
    functions instead.
    """
    # main owns its process, as in _keep_heap.  What the imports built, about
    # 22k objects of numpy and the package, lives until exit, yet every
    # collection walks it, the full ones of interpreter shutdown too, which
    # gc.disable does not stop.  Frozen, it is skipped by every later
    # collection.  Only the first call freezes: a caller that calls main
    # again keeps what it made since collectable.
    if gc.get_freeze_count() == 0:
        gc.freeze()
    parser = argparse.ArgumentParser(
        prog="fermishadow",
        description="Randomized occupation measurements for fixed-particle-number states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_k=True):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--n", type=int)
        p.add_argument("--eta", type=int)
        if with_k:
            p.add_argument("--k", type=int)
        p.add_argument("--samples", type=int)
        p.add_argument("--seed", type=int)
        p.add_argument("--out", help="output base path (file mode); stdout otherwise")
        p.add_argument("--format", choices=["csv", "json"], default="csv")

    pe = sub.add_parser("estimate", help="estimate k-body transitions from shadows")
    common(pe)

    pv = sub.add_parser("variance-sweep", help="exact variance table over a size grid")
    pv.add_argument("--n", required=True, help="comma-separated mode counts")
    pv.add_argument("--eta", required=True, help="comma-separated particle numbers")
    pv.add_argument("--k", required=True, help="comma-separated orders")
    pv.add_argument("--samples", type=int, default=0, help="empirical column sample count")
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--out")
    pv.add_argument("--format", choices=["csv", "json"], default="csv")

    pc = sub.add_parser("validate", help="run the invariant suites")
    pc.add_argument("--level", choices=["quick", "full"], default="quick")
    pc.add_argument("--seed", type=int, default=2024)
    pc.add_argument("--out")

    ps = sub.add_parser("slater-overlap", help="estimate all Slater overlaps of a state")
    common(ps, with_k=False)

    args = parser.parse_args(argv)
    _keep_heap()
    try:
        if args.out:
            _check_out(args.out, [args.out] if args.command == "validate"
                       else _out_files(args.out, args.format))
        if args.command == "estimate":
            config = _load_config(args)
            return cmd_estimate(config, args.out, args.format)
        if args.command == "variance-sweep":
            return cmd_variance_sweep(
                _parse_int_list(args.n), _parse_int_list(args.eta), _parse_int_list(args.k),
                args.samples, args.seed, args.out, args.format,
            )
        if args.command == "validate":
            return cmd_validate(args.level, args.out, args.seed)
        config = _load_config(args, need_k=False)
        return cmd_slater_overlap(config, args.out, args.format)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
