"""Child process of the benchmark: one `fermishadow` CLI call, timed.

Usage: python3 child.py TIMING_JSON TRACE -- <fermishadow arguments>

Imports `fermishadow.cli`, notes the time (the end of set-up), runs
`fermishadow.cli.main` on the arguments exactly as the `fermishadow` console
script does, and writes the timestamps (CLOCK_MONOTONIC, which every process
on the host shares) to TIMING_JSON.  With TRACE=1 it first wraps the public
functions that the CLI path calls through module attributes, so that each
call records a span; spans are folded into per-name count, total and self
time, which keeps memory bounded however many per-shot calls there are.
The package itself is not modified.
"""

import json
import sys
import time

# (module, attribute) -> span name.  compound_batch serves both state
# rotation (under collect_shadow_arrays) and the dense estimator, so its name
# depends on the enclosing span; see RENAMED_UNDER.
WRAPPED = {
    ("fermishadow.cli", "main"): "cli",
    ("fermishadow.cli", "state_from_json"): "fock.state_load",
    ("fermishadow.cli", "collect_shadow_arrays"): "shadows.collect",
    ("fermishadow.shadows", "shadow_rng"): "shadows.shadow_rng",
    ("fermishadow.shadows", "ginibre"): "linalg.ginibre",
    ("fermishadow.shadows", "unitary_from_ginibre"): "linalg.qr",
    ("fermishadow.shadows", "compound_batch"): "linalg.compound",
    ("fermishadow.cli", "batch_estimate_matrices"): "shadows.dense",
    ("fermishadow.shadows", "aggregate"): "shadows.aggregate",
    ("fermishadow.cli", "fast_estimate_rdm"): "fastpath.fast",
    ("fermishadow.fastpath", "decompose_rdm"): "fastpath.decompose",
    ("fermishadow.fastpath", "trace_powers"): "fastpath.trace_powers",
    ("fermishadow.cli", "_write_rows"): "cli.write_rows",
}
RENAMED_UNDER = {
    ("linalg.compound", "shadows.collect"): "linalg.rotate",
    ("linalg.compound", "shadows.dense"): "linalg.dense_compound",
}


class Tracer:
    """Nested spans folded into {name: [count, total_s, self_s]}."""

    def __init__(self):
        self.totals = {}
        self._stack = []  # [name, time spent in child spans]

    def wrap(self, fn, name):
        def traced(*args, **kwargs):
            parent = self._stack[-1][0] if self._stack else None
            span = RENAMED_UNDER.get((name, parent), name)
            frame = [span, 0.0]
            self._stack.append(frame)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                self._stack.pop()
                if self._stack:
                    self._stack[-1][1] += dur
                rec = self.totals.setdefault(span, [0, 0.0, 0.0])
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - frame[1]

        return traced

    def install(self):
        """Wrap each named function; one the package no longer has stays at 0."""
        for (module, attr), name in WRAPPED.items():
            fn = getattr(sys.modules.get(module), attr, None)
            if callable(fn):
                setattr(sys.modules[module], attr, self.wrap(fn, name))


def main(argv):
    if len(argv) < 3 or argv[2] != "--":
        raise SystemExit("usage: child.py TIMING_JSON TRACE -- ARGS")
    timing_path, trace = argv[0], argv[1] == "1"
    import fermishadow.cli

    imported = time.monotonic()
    tracer = Tracer()
    if trace:
        tracer.install()
    rc = fermishadow.cli.main(argv[3:])
    done = time.monotonic()
    with open(timing_path, "w") as fh:
        json.dump({"imported": imported, "done": done, "rc": rc, "spans": tracer.totals}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
