"""Full 2^N references for the single-excitation reduction, for the tests only.

Basis states are bit strings: bit k set means site k carries an excitation,
so the one-excitation state of site k is basis index 2**k.  The tests hand
these functions only small chains they build themselves, so nothing here
checks its input.
"""

import math

import numpy as np

import spinchannel as sc
from spinchannel.metrics import _YY


def full_hamiltonian(couplings: sc.CouplingMatrix, include_zz_diagonal: bool) -> np.ndarray:
    """The full 2^N matrix of sum_{i<j} J_ij (flip-flop - 4 S_i^z S_j^z), read-only.

    The flip-flop term hops excitations between sites with amplitude J_ij,
    and the S^z S^z term (when kept) adds +J_ij for pairs with differing
    occupation and -J_ij for pairs with equal occupation.
    """
    J = couplings.entries
    n = couplings.n_sites
    dim = 1 << n
    matrix = np.zeros((dim, dim))
    basis = np.arange(dim)
    diagonal = np.zeros(dim)
    for i in range(n):
        for j in range(i + 1, n):
            differ = ((basis >> i) & 1) != ((basis >> j) & 1)
            if J[i, j] != 0.0:
                flipped = basis[differ] ^ ((1 << i) | (1 << j))
                matrix[basis[differ], flipped] += J[i, j]
            if include_zz_diagonal:
                # -4 S^z S^z = -J_ij for aligned pair, +J_ij for anti-aligned
                diagonal += np.where(differ, J[i, j], -J[i, j])
    if include_zz_diagonal:
        matrix[basis, basis] = diagonal
    matrix.setflags(write=False)
    return matrix


def full_space_amplitude(decomp: sc.SpectralDecomposition, from_site: int, to_site: int, t):
    """Amplitude from site ``from_site`` to ``to_site`` under a ``full_hamiltonian`` decomposition."""
    return sc.propagate(decomp, 1 << from_site, t, to=1 << to_site)


def full_space_concurrence(params: sc.InitialStateParams, amplitudes: np.ndarray, sender: int, receiver: int) -> float:
    """``wootters_concurrence_oracle`` on the 2^N state: the pair's state by a numeric partial trace.

    The global state has vacuum amplitude cos(theta/2) and one-excitation
    amplitudes e^{-i phi} sin(theta/2) f_k; the Wootters evaluation is the
    oracle's own.
    """
    n = amplitudes.shape[0]
    half = params.theta / 2.0
    psi = np.zeros(1 << n, dtype=np.complex128)
    psi[0] = math.cos(half)
    site_factor = np.exp(-1j * params.phi) * math.sin(half)
    for k in range(n):
        psi[1 << k] = site_factor * amplitudes[k]
    psi /= np.linalg.norm(psi)
    # site k occupies bit k, which in the (2,)*n reshape is axis n-1-k
    tensor = np.moveaxis(psi.reshape((2,) * n), (n - 1 - sender, n - 1 - receiver), (0, 1))
    block = tensor.reshape(4, -1)
    rho = block @ block.conj().T
    rho /= np.trace(rho).real
    evals, evecs = np.linalg.eigh(rho)
    sqrt_rho = (evecs * np.sqrt(np.clip(evals, 0.0, None))) @ evecs.conj().T
    roots = np.linalg.svd(sqrt_rho @ _YY @ sqrt_rho.conj(), compute_uv=False)
    return max(0.0, float(roots[0] - roots[1] - roots[2] - roots[3]))
