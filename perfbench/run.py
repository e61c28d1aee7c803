"""End-to-end and per-layer benchmark of `fermishadow estimate` and `slater-overlap`.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the WORKLOADS below, or `all` to run each in turn.  The run
generates the workload's inputs from the seed (state JSON, config JSON with
the target list), then calls the real CLI in a fresh child process, one call
at a time (a closed loop with a single client), for S seconds after one
discarded warm-up call.  Every call's output is checked against exact
oracles computed from the generated state by oracles.py, which does not
import the package, and each gate is shown to trip on a corrupted copy.  The
first line records the environment; the last line of standard output is one
JSON object with `correct`, `attempted`, `failed` and `metrics`.

--trace 0 reports end-to-end metrics over the calls that passed the gates:
    wall_s       mean time from spawning the command to its exit
    setup_s      median time from spawn until `fermishadow.cli` is imported
    shots_per_s  samples / mean time of the CLI call after set-up
    peak_rss_mb  median peak resident set of the child, from wait4
fail_share (failed / attempted calls) is carried by `failed` and
`attempted`; it is 0 on a correct program, so it is not a metric.

On a shared host the speed of one core drifts, in CPU time as much as in
wall time: a fixed numpy loop on a 2-core shared VM ran 1.5x slower at
some minutes than at others.  So a fixed calibration kernel (numpy only,
never the package) runs before the first call and after every call, and
every reported time is multiplied by CAL_NOMINAL_S / the kernel's mean time
in the run: times are seconds on a host where the kernel takes
CAL_NOMINAL_S.  The run, the kernel and every call are pinned to one core.
The unscaled figures are printed above the result line.

--trace 1 alternates untraced and traced calls and reports per-layer busy
time per call (host-scaled means over traced calls), exact counts, quality
figures and the tracing overhead.  The traced child wraps the package's
functions through module attributes (see child.py); the package is not
modified.
"""

import argparse
import csv
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import zlib
from dataclasses import dataclass, field
from itertools import combinations
from math import comb
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# One client, one single-threaded command at a time: pin BLAS to one thread
# unless the caller chose a count, so results do not depend on the host's
# core count.  Set before numpy is imported here or in the child.
for _var in THREAD_VARS:
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402  (after the thread settings)

import oracles  # noqa: E402

COMMAND_TIMEOUT_S = 60.0
Z_GATE = 5.0              # estimates within this many standard errors of the oracle
ORACLE_COLUMN_TOL = 1e-12  # slater-overlap oracle columns vs generated amplitudes
FAST_DENSE_TOL = 1e-8     # same bound the CLI applies to --estimator both
ZERO_SE_TOL = 1e-9        # |estimate - oracle| allowed where the stderr is exactly 0
# seconds the calibration kernel takes on the nominal host; see the docstring
CAL_NOMINAL_S = 0.3


@dataclass(frozen=True)
class Workload:
    """One fixed-size CLI call; `layer_spans` are the spans of the stressed layer."""

    name: str
    command: str
    n: int
    eta: int
    k: int
    samples: int
    targets: str                  # all_pairs | fast_pairs | all_overlaps
    layer_spans: tuple
    estimator: str = "dense"


# Sizes follow the layer split each workload is meant to show, scaled so one
# call takes 1-3 s on one core; see BENCHMARK.json for why each exists.
WORKLOADS = {
    w.name: w
    for w in (
        # many shots on a tiny register: per-shot RNG and Ginibre dominate
        Workload("krdm-small", "estimate", 4, 2, 2, 50_000, "all_pairs",
                 ("shadows.shadow_rng", "linalg.ginibre")),
        # the eta-compound state rotation dominates
        Workload("krdm-mid", "estimate", 8, 4, 2, 250, "all_pairs", ("linalg.rotate",)),
        # 12 pairs, 4 each at k' = 0, 1, 2, through the fast and dense routes
        Workload("fast-targets", "estimate", 6, 3, 2, 300, "fast_pairs",
                 ("fastpath.fast",), estimator="both"),
        # k = eta on the doubled register (8, 3): the dense estimator dominates
        Workload("overlap", "slater-overlap", 5, 3, 3, 600, "all_overlaps",
                 ("shadows.dense",)),
    )
}


# ------------------------------------------------------------------ inputs

def subset_str(z):
    return "+".join(str(m) for m in z)


@dataclass
class Inputs:
    """Files handed to the CLI plus the oracles the outputs are checked against."""

    argv: list
    out_csv: Path
    oracle: dict            # row key -> exact value (the amplitude for slater-overlap)
    register: int           # modes of the sampled register
    order: int              # k of the estimate matrices
    fast_pairs: list        # (p, q) the fast path evaluates; empty for dense only


def _fast_pairs(n, k, rng):
    """Four distinct (p, q) pairs of k-subsets at each k' = |p - q| in 0..k."""
    out = []
    for kp in range(k + 1):
        picked = []
        while len(picked) < 4:
            p = tuple(sorted(int(m) + 1 for m in rng.choice(n, k, replace=False)))
            q = tuple(sorted(int(m) + 1 for m in rng.choice(n, k, replace=False)))
            if len(set(p) - set(q)) == kp and (p, q) not in picked:
                picked.append((p, q))
        out += picked
    return out


def make_inputs(w: Workload, seed: int, workdir: Path) -> Inputs:
    """Generate state, config and targets from the seed alone."""
    rng = np.random.default_rng([seed % 2**64, zlib.crc32(w.name.encode())])
    amps = oracles.random_amplitudes(w.n, w.eta, rng)
    state_path = workdir / "state.json"
    state_path.write_text(oracles.state_json(w.n, w.eta, amps))
    config = {
        "n": w.n, "eta": w.eta, "samples": w.samples,
        "seed": int(rng.integers(2**63)),
        "state_source": f"file:{state_path}",
        "estimator": w.estimator,
        # mean, not median_of_means: the 5-stderr gate needs a stderr with many
        # degrees of freedom, and one from 10 batch means trips it on most seeds
        # when 784 targets are checked
        "aggregation": "mean",
    }
    if w.command == "slater-overlap":
        qs = oracles.colex_subsets(w.n, w.eta)
        config["targets"] = [list(q) for q in qs]
        exact = {subset_str(q): complex(a) for q, a in zip(qs, amps)}
        register, order, fast_pairs = w.n + w.eta, w.eta, []
    else:
        config["k"] = w.k
        ss = oracles.colex_subsets(w.n, w.k)
        if w.targets == "all_pairs":
            pairs = [(p, q) for p in ss for q in ss]
        else:
            pairs = _fast_pairs(w.n, w.k, rng)
        config["targets"] = [[list(p), list(q)] for p, q in pairs]
        rdm = oracles.transition_matrix(amps, w.n, w.eta, w.k)
        rank = {z: i for i, z in enumerate(ss)}
        exact = {(subset_str(p), subset_str(q)): complex(rdm[rank[p], rank[q]])
                 for p, q in pairs}
        register, order = w.n, w.k
        fast_pairs = pairs if w.estimator != "dense" else []
    config_path = workdir / "config.json"
    config_path.write_text(json.dumps(config))
    out_base = workdir / "out"
    argv = [w.command, "--config", str(config_path), "--out", str(out_base)]
    return Inputs(argv, workdir / "out.csv", exact, register, order, fast_pairs)


def computed_counts(w: Workload, inputs: Inputs) -> dict:
    """Work per call that follows from the sizes alone (computed, not measured):
    eta x eta minors of the eta-compound rotation, bytes of the (N, C, C)
    complex estimate stack, and fast-path terms."""
    n_shots = w.samples
    terms = sum(oracles.decomposition_terms(p, q) for p, q in set(inputs.fast_pairs))
    return {
        "linalg.rotate_minors": n_shots * comb(inputs.register, w.eta) ** 2,
        "shadows.ests_bytes": n_shots * comb(inputs.register, inputs.order) ** 2 * 16,
        "fastpath.terms": n_shots * terms,
    }


# ------------------------------------------------------------------ gates

@dataclass
class Check:
    problems: list = field(default_factory=list)
    max_z: float = 0.0
    fast_dense_gap: float = 0.0


def read_rows(path: Path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def row_key(w: Workload, row: dict):
    return row["q"] if w.command == "slater-overlap" else (row["p"], row["q"])


def value_column(w: Workload) -> str:
    return "overlap" if w.command == "slater-overlap" else "estimate"


def check_output(w: Workload, rc, rows, oracle: dict) -> Check:
    """Apply every correctness gate to one call's exit code and output rows."""
    out = Check()
    if rc != 0:
        out.problems.append(f"exit code {rc}")
        return out
    try:
        _check_rows(w, rows, oracle, out)
    except (KeyError, ValueError, TypeError) as exc:
        out.problems.append(f"malformed output: {exc!r}")
    return out


def _check_rows(w: Workload, rows, oracle: dict, out: Check):
    col = value_column(w)
    got = {row_key(w, row): row for row in rows}
    if len(got) != len(rows) or set(got) != set(oracle):
        out.problems.append("output rows do not match the target list")
        return
    for key, want in oracle.items():
        row = got[key]
        val = complex(float(row[f"{col}_re"]), float(row[f"{col}_im"]))
        err = complex(float(row["stderr_re"]), float(row["stderr_im"]))
        for part, d, se in (("re", val.real - want.real, err.real),
                            ("im", val.imag - want.imag, err.imag)):
            if se > 0:
                out.max_z = max(out.max_z, abs(d) / se)
            if not abs(d) <= Z_GATE * se + ZERO_SE_TOL:  # NaN fails too
                out.problems.append(f"{key} {part}: off by {abs(d):.3g}, stderr {se:.3g}")
        if w.command == "slater-overlap":
            col_oracle = complex(float(row["oracle_re"]), float(row["oracle_im"]))
            if not abs(col_oracle - want) <= ORACLE_COLUMN_TOL:
                out.problems.append(f"{key}: oracle column differs from the amplitude")
        if w.estimator == "both":
            fast = complex(float(row["fast_estimate_re"]), float(row["fast_estimate_im"]))
            out.fast_dense_gap = max(out.fast_dense_gap, abs(fast - val))
            if not abs(fast - val) <= FAST_DENSE_TOL:
                out.problems.append(f"{key}: fast and dense differ by {abs(fast - val):.3g}")


def negative_controls(w: Workload, rows, oracle: dict) -> list:
    """Corrupt a correct output or oracle in each gated way; return the misses.

    Each corruption must make check_output report a problem; one that does
    not would mean the gate cannot catch that defect.
    """
    col = value_column(w)
    first = next(iter(oracle))

    def bumped(column, delta):
        out = [dict(r) for r in rows]
        for r in out:
            if row_key(w, r) == first:
                r[column] = repr(float(r[column]) + delta)
        return out

    row = next(r for r in rows if row_key(w, r) == first)
    value = float(row[f"{col}_re"])
    shift = 6 * max(float(row["stderr_re"]), 1e-6)
    cases = {
        "nonzero exit": (1, rows, oracle),
        "estimate 6 stderr off the oracle":
            (0, bumped(f"{col}_re", oracle[first].real + shift - value), oracle),
        "oracle 6 stderr off the estimate":
            (0, rows, {**oracle, first: complex(value + shift, oracle[first].imag)}),
        "estimate is NaN": (0, bumped(f"{col}_re", float("nan")), oracle),
        "missing row": (0, [r for r in rows if row_key(w, r) != first], oracle),
    }
    if w.command == "slater-overlap":
        cases["oracle column off by 1e-9"] = (0, bumped("oracle_re", 1e-9), oracle)
    if w.estimator == "both":
        cases["fast column off by 1e-7"] = (0, bumped("fast_estimate_re", 1e-7), oracle)
    return [name for name, (rc, r, o) in cases.items()
            if not check_output(w, rc, r, o).problems]


# ------------------------------------------------------------------ calls

@dataclass
class Call:
    traced: bool
    rc: int
    wall: float
    rss_mb: float
    setup: float = None
    compute: float = None
    spans: dict = field(default_factory=dict)
    check: Check = None


def calibrate() -> float:
    """Seconds this host takes for a fixed mix of the work the CLI does.

    Per-shot generator construction with a small Ginibre QR, a batch of
    gathered minors, and a medium complex contraction, each about a third
    of the time, in numpy alone, so a change to the package cannot move it.
    """
    t0 = time.perf_counter()
    for i in range(1500):
        g = np.random.Generator(np.random.Philox(key=i))
        a = g.standard_normal((6, 6)) + 1j * g.standard_normal((6, 6))
        np.linalg.qr(a)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((40, 8, 8)) + 1j * rng.standard_normal((40, 8, 8))
    idx = np.array(list(combinations(range(8), 4)))
    for rows in idx:
        np.linalg.det(x[:, rows, :][:, :, idx].transpose(0, 2, 1, 3))
    b = x[:, :6, :6].reshape(40, 36)[:, None, :] * x[:, :6, :6].reshape(40, 36)[:, :, None]
    for _ in range(12):
        np.einsum("sij,sjk->ik", b, b)
    return time.perf_counter() - t0


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    # the CLI runs `git describe`; keep its search inside the checkout
    env["GIT_CEILING_DIRECTORIES"] = str(ROOT.parent)
    return env


def spawn(args: list, env: dict, stderr: Path):
    """Run one child process to its exit; (exit code, spawn time, wall s, rusage)."""
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0),
        (os.POSIX_SPAWN_OPEN, 2, str(stderr), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    t0 = time.monotonic()
    pid = os.posix_spawn(sys.executable, args, env, file_actions=actions)
    done = threading.Event()

    def kill_if_stuck():
        if not done.wait(COMMAND_TIMEOUT_S):
            os.kill(pid, signal.SIGKILL)

    watchdog = threading.Thread(target=kill_if_stuck, daemon=True)
    watchdog.start()
    _, status, usage = os.wait4(pid, 0)
    wall = time.monotonic() - t0
    done.set()
    watchdog.join()
    return os.waitstatus_to_exitcode(status), t0, wall, usage


def run_call(inputs: Inputs, workdir: Path, traced: bool, env: dict) -> Call:
    """Spawn one CLI call and wait for it; nothing else runs meanwhile."""
    timing = workdir / "timing.json"
    timing.unlink(missing_ok=True)
    inputs.out_csv.unlink(missing_ok=True)
    args = [sys.executable, str(HERE / "child.py"), str(timing), "1" if traced else "0",
            "--", *inputs.argv]
    rc, t0, wall, usage = spawn(args, env, workdir / "stderr.txt")
    call = Call(traced, rc, wall, usage.ru_maxrss / 1024.0)
    if timing.exists():
        data = json.loads(timing.read_text())
        call.setup = data["imported"] - t0
        call.compute = data["done"] - data["imported"]
        call.spans = data["spans"]
    elif call.rc == 0:
        call.rc = -1  # exited 0 without finishing the CLI call
    return call


def checked_call(w, inputs, workdir, traced, env) -> Call:
    call = run_call(inputs, workdir, traced, env)
    rows = read_rows(inputs.out_csv) if call.rc == 0 and inputs.out_csv.exists() else []
    call.check = check_output(w, call.rc, rows, inputs.oracle)
    if call.check.problems:
        sys.stderr.write((workdir / "stderr.txt").read_text()[-2000:])
    return call


# ------------------------------------------------------------------ metrics

def median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else 0.0


def mean(values):
    values = [v for v in values if v is not None]
    return statistics.fmean(values) if values else 0.0


def end_to_end(w: Workload, calls: list, factor: float) -> dict:
    """Host-scaled means over the calls that passed the gates (median set-up).

    On a shared host per-call times can be bimodal, and the median of a run
    then jumps between the modes; the mean (total time over total work)
    does not.
    """
    good = [c for c in calls if not c.check.problems] or calls
    compute = mean(c.compute for c in good) * factor
    return {
        "wall_s": (mean(c.wall for c in good) * factor, "s"),
        "setup_s": (median(c.setup for c in good) * factor, "s"),
        "shots_per_s": (w.samples / compute if compute else 0.0, "1/s"),
        "peak_rss_mb": (median(c.rss_mb for c in good), "MB"),
    }


SPAN_METRICS = {
    # metric: (span, "total" | "self")
    "shadows.shadow_rng_s": ("shadows.shadow_rng", "total"),
    "linalg.ginibre_s": ("linalg.ginibre", "total"),
    "linalg.qr_s": ("linalg.qr", "total"),
    "linalg.rotate_s": ("linalg.rotate", "total"),
    "shadows.collect_self_s": ("shadows.collect", "self"),
    "shadows.dense_s": ("shadows.dense", "total"),
    "shadows.dense_self_s": ("shadows.dense", "self"),
    "linalg.dense_compound_s": ("linalg.dense_compound", "total"),
    "shadows.aggregate_s": ("shadows.aggregate", "total"),
    "fastpath.fast_s": ("fastpath.fast", "total"),
    "fastpath.trace_powers_s": ("fastpath.trace_powers", "total"),
    "fastpath.decompose_s": ("fastpath.decompose", "total"),
    "fastpath.self_s": ("fastpath.fast", "self"),
    "fock.state_load_s": ("fock.state_load", "total"),
    "cli.write_rows_s": ("cli.write_rows", "total"),
    "cli.self_s": ("cli", "self"),
}


def span(call: Call, name: str, kind: str) -> float:
    _, total, self_s = call.spans.get(name, (0, 0.0, 0.0))
    return total if kind == "total" else self_s


def per_layer(w: Workload, inputs: Inputs, calls: list, factor: float) -> dict:
    """Host-scaled mean busy time per traced call of each span, and counts."""
    traced = [c for c in calls if c.traced]
    plain = [c for c in calls if not c.traced]
    out = {m: (mean(span(c, s, kind) for c in traced) * factor, "s")
           for m, (s, kind) in SPAN_METRICS.items()}
    calls_n = median(c.spans.get("fastpath.fast", (0,))[0] for c in traced)
    fast_s = out["fastpath.fast_s"][0]
    out["fastpath.calls"] = (calls_n, "count")
    out["fastpath.us_per_call"] = (fast_s / calls_n * 1e6 if calls_n else 0.0, "us")
    for name, value in computed_counts(w, inputs).items():
        out[name] = (value, "count" if not name.endswith("bytes") else "B")
    out["quality.max_z"] = (max(c.check.max_z for c in calls), "stderr")
    out["quality.fast_dense_gap"] = (max(c.check.fast_dense_gap for c in calls), "1")
    out["trace.overhead_s"] = (
        (mean(c.wall for c in traced) - mean(c.wall for c in plain)) * factor, "s")
    out["trace.target_share"] = (
        sum(span(c, s, "total") for c in traced for s in w.layer_spans)
        / sum(c.wall for c in traced), "1")
    return out


def quartiles(values):
    values = [v for v in values if v is not None]
    if len(values) < 2:
        return (values[0], values[0]) if values else (0.0, 0.0)
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


# ------------------------------------------------------------------ driver

def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        rev = None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "git_rev": rev,
        "src_sha256": digest.hexdigest()[:16],
        "nproc": len(os.sched_getaffinity(0)),
        **{v: os.environ.get(v) for v in (*THREAD_VARS, "FERMISHADOW_THREADS")},
    }


def run_workload(w: Workload, seed: int, seconds: float, trace: bool):
    """Measure one workload; returns (correct, attempted, failed, metrics)."""
    env = child_env()
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{w.name}-", dir=WORK))
    try:
        inputs = make_inputs(w, seed, workdir)
        warm = checked_call(w, inputs, workdir, False, env)  # timings discarded
        calls, cal = [], [calibrate()]
        start = time.monotonic()
        while not calls or time.monotonic() - start < seconds:
            for traced in (False, True) if trace else (False,):
                calls.append(checked_call(w, inputs, workdir, traced, env))
                cal.append(calibrate())
        factor = CAL_NOMINAL_S / statistics.fmean(cal)
        misses = []
        if warm.rc == 0 and not warm.check.problems:
            misses = negative_controls(w, read_rows(inputs.out_csv), inputs.oracle)
        failed = sum(1 for c in calls if c.check.problems)
        print(f"== {w.name} seed {seed}: {w.command} (n, eta, k) = ({w.n}, {w.eta}, {w.k}), "
              f"{w.samples} shots, {len(inputs.oracle)} targets, {len(calls)} calls "
              f"after 1 warm-up, fail_share {failed / len(calls):.3g} ({failed}/{len(calls)})")
        for c in (warm, *calls):
            for p in c.check.problems[:5]:
                print(f"   gate failed: {p}")
        print(f"   negative control: {len(misses)} of the corruptions went undetected"
              + (f": {', '.join(misses)}" if misses else ""))
        plain = [c for c in calls if not c.traced]
        print(f"   calibration kernel mean {statistics.fmean(cal):.4f} s over {len(cal)} runs, "
              f"so times are scaled by {factor:.4f}")
        for name, attr in (("wall_s", "wall"), ("setup_s", "setup"), ("compute_s", "compute")):
            values = [getattr(c, attr) for c in plain]
            print(f"   {name} unscaled: mean {mean(values):.4f}, median {median(values):.4f}, "
                  "quartiles {:.4f} .. {:.4f} s over {} calls".format(*quartiles(values), len(plain)))
        metrics = per_layer(w, inputs, calls, factor) if trace else end_to_end(w, calls, factor)
        computed = computed_counts(w, inputs)
        for name, (value, unit) in metrics.items():
            note = " (computed)" if name in computed else ""
            print(f"   {name:26s} {value:.6g} {unit}{note}")
        correct = failed == 0 and not warm.check.problems and not misses
        return correct, len(calls), failed, metrics
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "fermishadow" / "cli.py").is_file():
        print(f"no fermishadow sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    env = environment()
    # Run this process, the calibration kernel and every child (which inherits
    # the mask) on one core, so that the kernel measures the core the calls
    # ran on; a shared host's cores are not equally loaded at a given time.
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    print("env " + json.dumps({**env, "pinned_cpu": cpu}))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        ok, n_calls, n_failed, m = run_workload(WORKLOADS[name], args.seed, args.seconds,
                                                bool(args.trace))
        correct &= ok
        attempted += n_calls
        failed += n_failed
        prefix = "" if len(names) == 1 else f"{name}."
        metrics.update({prefix + k: {"value": v, "unit": u} for k, (v, u) in m.items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
