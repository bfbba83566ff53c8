"""Host-speed calibration kernels for untraced passes.

On a shared host the CPU speed drifts by up to 2x, in bursts and in phases of
seconds to minutes, and it moves some kinds of work much more than others.
An untraced pass times a fixed kernel of the same kind of work as its
workload before each operation; the benchmark scales the pass's times by the
kernel's nominal time over its mean measured time.  The mean, not the median,
because slow bursts hit the kernel samples in proportion to their length.
The kernels call no `oplip` code, so a change to `oplip` moves the scaled
times as much as the raw ones.
"""

import numpy as np

_RNG = np.random.default_rng(0)
_SMALL = _RNG.standard_normal((24, 24)) + 1j * _RNG.standard_normal((24, 24))


def small_kernel():
    """Many numpy calls on small complex matrices, then a Python float loop."""
    x = _SMALL
    for _ in range(80):
        y = x @ x.conj().T
        x = y / np.linalg.norm(y) + 0.1 * _SMALL
        float(np.abs(x).max())
        float(np.diag(x).real.sum())
    acc = 0.0
    for i in range(8000):
        acc += (i * 0.5) % 7.0
    return acc


_GIVENS = _RNG.standard_normal((64, 64)) + 1j * _RNG.standard_normal((64, 64))


def givens_kernel():
    """Complex Givens rotations of row and column pairs of a 64x64 matrix,
    each angle from a 3x3 eigenproblem: the memory access of a Jacobi sweep."""
    a = _GIVENS.copy()
    for k in range(3 * 64):
        p, q = k % 64, (k + 17 + k // 64) % 64
        apq = a[p, q]
        u = np.array([a[p, p].real - a[q, q].real, 2.0 * apq.real, 2.0 * apq.imag])
        v = np.linalg.eigh(np.outer(u, u) + np.eye(3))[1][:, 2]
        c = np.sqrt(0.5 + abs(v[0]) / 2.0)
        s = 0.5 * (v[1] - 1j * v[2]) / c
        g = np.array([[c, -np.conj(s)], [s, c]]) / np.hypot(c, abs(s))
        a[[p, q], :] = g.conj().T @ a[[p, q], :]
        a[:, [p, q]] = a[:, [p, q]] @ g
    return a


def large_kernel():
    """Streaming arithmetic and an FFT over arrays larger than the caches."""
    a = np.linspace(0.0, 1.0, 1 << 21)  # 16 MiB, freed before the next operation
    np.add(a, 1.0, out=a)
    np.multiply(a, a, out=a)
    return float(np.abs(np.fft.rfft(a[: 1 << 17])).sum())


# The kernel of each workload, chosen as the one whose time tracked the
# workload's pass time most closely, and its mean time on the 2-vCPU host
# described in README.md.
CALIBRATION = {
    "sweep": (givens_kernel, 0.0136),
    "verify": (small_kernel, 0.0044),
    "lattice": (large_kernel, 0.0125),
}
