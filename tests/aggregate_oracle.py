"""Two-pass aggregation over a whole table, kept as a test oracle.

This is how the package aggregated before the chunked Reducer: the
whole (N, T) table in memory, one pass for the means and one for the
spread.  The Reducer, fed the same shots in any chunking, must agree with
it to rounding.
"""

import numpy as np


def two_pass_aggregate(values, mode: str = "mean", batches: int = None):
    """(value, error) per column of an (N,) or (N, T) table, as Reducer defines them."""
    x = np.asarray(values, dtype=np.complex128)
    if x.ndim not in (1, 2) or x.shape[0] == 0:
        raise ValueError(f"need per-shadow estimates (N,) or (N, T) with N >= 1, got shape {x.shape}")
    nsamp = x.shape[0]
    x = np.ascontiguousarray(x.T)
    if mode == "mean":
        groups = x
        val = x.mean(axis=-1)
    elif mode == "median_of_means":
        if batches is None or batches < 1 or nsamp % batches != 0:
            raise ValueError(f"batches must divide the sample count {nsamp}, got {batches!r}")
        groups = x.reshape(x.shape[:-1] + (batches, -1)).mean(axis=-1)
        val = np.median(groups.real, axis=-1) + 1j * np.median(groups.imag, axis=-1)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    m = groups.shape[-1]
    if m == 1:
        return val, np.zeros_like(val)[()]
    err_re = groups.real.std(axis=-1, ddof=1) / np.sqrt(m)
    err_im = groups.imag.std(axis=-1, ddof=1) / np.sqrt(m)
    return val, err_re + 1j * err_im
