"""The test-side realification of complex matrices, written independently of
csforms.liealg: X = A + iB (..., n, n) <-> [[A, -B], [B, A]] (..., 2n, 2n).

The tests build complex references with these two maps and feed only the
real forms to the package."""

import numpy as np


def realify(x):
    x = np.asarray(x, dtype=complex)
    return np.block([[x.real, -x.imag], [x.imag, x.real]])


def complexify(x):
    n = x.shape[-1] // 2
    return x[..., :n, :n] + 1j * x[..., n:, :n]
