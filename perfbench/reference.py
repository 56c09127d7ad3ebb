"""Independent reference for single-excitation transfer on a spin chain.

Shares no algebra with ``spinchannel``: the couplings and the sector matrix
are built here from the documented formulas,

    J_ij = C / (a |p_i - p_j|)^nu                 (power law)
    J_{n,n+1} = (lambda / 2) sqrt(n (N - n))       (mirror-periodic)
    H_nm = J_nm,  H_nn = 2 sum_j J_nj - sum_{i<j} J_ij   (S^z S^z kept)

(less the constant offset, see ``sector_matrix``) and diagonalized with this module's own ``numpy.linalg.eigh`` call.  Window
maxima come from dense sampling at dt <= pi / (16 * bandwidth) followed by
golden-section refinement of every lobe near the sampled maximum; pointwise
values reduce each phase E_j t modulo 2 pi in extended precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Sampling step as a fraction of pi / bandwidth: |f|^2 has no frequency above
# the bandwidth, so a lobe top falls at most 1/32 of the fastest period from
# a sample and loses at most ~5e-3 there.
SAMPLES_PER_FAST_HALF_PERIOD = 16

# Every sampled lobe this close to the sampled maximum is refined; it covers
# the worst-case drop between a lobe top and its nearest sample.
LOBE_BAND = 2e-2

_CHUNK = 1 << 15
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_TWO_PI_LD = np.arctan(np.longdouble(1)) * 8


def power_law_couplings(positions, nu: float = 3.0, c: float = 1.0, a: float = 1.0) -> np.ndarray:
    pos = np.asarray(positions, dtype=np.float64)
    n = pos.size
    J = np.zeros((n, n))
    for i in range(n):
        d = np.abs(pos[i + 1 :] - pos[i])
        J[i, i + 1 :] = c / (a * d) ** nu
    return J + J.T


def mirror_couplings(n: int, lam: float) -> np.ndarray:
    J = np.zeros((n, n))
    for k in range(1, n):
        J[k - 1, k] = J[k, k - 1] = 0.5 * lam * math.sqrt(k * (n - k))
    return J


def sector_matrix(J: np.ndarray, zz: bool) -> np.ndarray:
    """H_nm = J_nm and, with the S^z S^z part kept, H_nn = 2 sum_j J_nj.

    The constant -sum_{i<j} J_ij of the full diagonal is left out: it shifts
    every energy equally, which multiplies all amplitudes by one global
    phase and leaves every modulus unchanged.  Keeping it would make |E| of
    order N and cost ~N * eps * t of phase accuracy at long times.
    """
    H = np.array(J, dtype=np.float64)
    if zz:
        H[np.diag_indices_from(H)] = 2.0 * J.sum(axis=1)
    return H


def dh_positions(span: int) -> tuple[int, ...]:
    """Lattice positions 1..span without the two sites next to the ends."""
    return tuple(p for p in range(1, span + 1) if p not in (2, span - 1))


@dataclass
class ReferenceChain:
    """Spectral data of one chain with the sender and receiver indices."""

    energies: np.ndarray
    vectors: np.ndarray
    sender: int
    receiver: int

    @classmethod
    def from_couplings(cls, J: np.ndarray, zz: bool, sender: int, receiver: int) -> "ReferenceChain":
        energies, vectors = np.linalg.eigh(sector_matrix(J, zz))
        return cls(energies, vectors, sender, receiver)

    @property
    def bandwidth(self) -> float:
        return float(self.energies[-1] - self.energies[0])

    def _weights(self) -> tuple[np.ndarray, np.ndarray]:
        vs = self.vectors[self.sender]
        return vs * vs, self.vectors[self.receiver] * vs

    def amplitudes(self, times) -> tuple[np.ndarray, np.ndarray]:
        """f_ss(t), f_sr(t) in double precision, phases taken from the mean energy."""
        times = np.atleast_1d(np.asarray(times, dtype=np.float64))
        w_ss, w_sr = self._weights()
        energies = self.energies - self.energies.mean()
        f_ss = np.empty(times.size, dtype=np.complex128)
        f_sr = np.empty(times.size, dtype=np.complex128)
        for lo in range(0, times.size, _CHUNK):
            phases = np.exp(-1j * np.outer(times[lo : lo + _CHUNK], energies))
            f_ss[lo : lo + _CHUNK] = phases @ w_ss
            f_sr[lo : lo + _CHUNK] = phases @ w_sr
        return f_ss, f_sr

    def _reduced_phases(self, t: float) -> np.ndarray:
        phase = (self.energies.astype(np.longdouble) * np.longdouble(t)) % _TWO_PI_LD
        return phase.astype(np.float64)

    def amplitudes_exact(self, t: float) -> tuple[complex, complex]:
        """f_ss(t), f_sr(t) with every phase E_j t reduced mod 2 pi in long double."""
        w_ss, w_sr = self._weights()
        rotor = np.exp(-1j * self._reduced_phases(t))
        return complex(rotor @ w_ss), complex(rotor @ w_sr)

    def site_amplitudes_exact(self, t: float) -> np.ndarray:
        """f_n(t) = <n| exp(-iHt) |sender> for every site n."""
        rotor = np.exp(-1j * self._reduced_phases(t))
        return self.vectors @ (rotor * self.vectors[self.sender])

    def transfer_time(self) -> float:
        """pi / gap of the two eigenvectors with the largest sender weight."""
        order = np.argsort(-self.vectors[self.sender] ** 2, kind="stable")
        return math.pi / abs(float(self.energies[order[0]] - self.energies[order[1]]))


def fidelity(f_sr):
    return np.abs(f_sr) ** 2


def concurrence(f_ss, f_sr, theta: float):
    return 2.0 * math.sin(theta / 2.0) ** 2 * np.abs(f_ss) * np.abs(f_sr)


def _golden_max(series, lo: np.ndarray, hi: np.ndarray, iterations: int = 40) -> np.ndarray:
    """Golden-section maximum of ``series`` on every bracket [lo_k, hi_k] at once."""
    a, b = lo.copy(), hi.copy()
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = series(c), series(d)
    best = np.maximum(np.maximum(series(a), series(b)), np.maximum(fc, fd))
    for _ in range(iterations):
        left = fc >= fd
        b = np.where(left, d, b)
        a = np.where(left, a, c)
        c, d = b - _GOLDEN * (b - a), a + _GOLDEN * (b - a)
        fc, fd = series(c), series(d)
        best = np.maximum(best, np.maximum(fc, fd))
    return best


def window_max(series, bandwidth: float, t_max: float) -> float:
    """Maximum of ``series`` (vectorized over t) on [0, t_max]."""
    step = math.pi / (SAMPLES_PER_FAST_HALF_PERIOD * max(bandwidth, 1e-300))
    count = int(math.ceil(t_max / step)) + 1
    times = np.linspace(0.0, t_max, count)
    values = np.concatenate([series(times[lo : lo + _CHUNK]) for lo in range(0, count, _CHUNK)])
    best = float(max(values[0], values[-1]))
    inner = values[1:-1]
    is_lobe = (inner >= values[:-2]) & (inner >= values[2:]) & (inner >= values.max() - LOBE_BAND)
    k = np.flatnonzero(is_lobe) + 1
    if k.size:
        best = max(best, float(_golden_max(series, times[k - 1], times[k + 1]).max()))
    return best


def fidelity_window_max(chain: ReferenceChain, t_max: float) -> float:
    return window_max(lambda t: fidelity(chain.amplitudes(t)[1]), chain.bandwidth, t_max)


def concurrence_window_max(chain: ReferenceChain, t_max: float, theta: float) -> float:
    return window_max(lambda t: concurrence(*chain.amplitudes(t), theta), chain.bandwidth, t_max)
