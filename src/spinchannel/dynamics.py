"""Spectral decomposition and time evolution in the single-excitation sector.

With H = V diag(E) V^T the transition amplitude from site s to site n is

    f_sn(t) = <n| exp(-i H t) |s> = sum_j V[n, j] V[s, j] exp(-i E_j t)

(units with hbar = 1).  ``propagate`` is the one routine that evaluates it,
for a single instant or a whole time grid and for one, several or all
target sites; ``full_space_amplitude`` maps sites to basis states of the
full 2^n space on top of it.  Everything downstream (fidelities,
concurrence, dispersion) is a function of the two amplitudes f_ss and f_sr,
with the weight lost to the rest of the chain given by
1 - |f_ss|^2 - |f_sr|^2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class NumericsError(RuntimeError):
    """A numerical routine failed or produced an inconsistent result."""


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues (ascending) and orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self) -> None:
        eigenvalues = np.asarray(self.eigenvalues, dtype=np.float64)
        eigenvectors = np.asarray(self.eigenvectors, dtype=np.float64)
        eigenvalues.setflags(write=False)
        eigenvectors.setflags(write=False)
        object.__setattr__(self, "eigenvalues", eigenvalues)
        object.__setattr__(self, "eigenvectors", eigenvectors)

    @property
    def n(self) -> int:
        return self.eigenvalues.shape[0]


def eigendecompose(hamiltonian) -> SpectralDecomposition:
    """Diagonalize a real symmetric Hamiltonian.

    Accepts either a bare ndarray or any object with a ``matrix`` attribute
    (SectorHamiltonian, FullHamiltonian).  Eigenvalues come out ascending and
    each eigenvector's sign is fixed so its largest-magnitude component is
    positive, making the decomposition reproducible across runs.
    """
    matrix = np.asarray(getattr(hamiltonian, "matrix", hamiltonian), dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"expected a square matrix (got shape {matrix.shape})")
    if not np.all(np.isfinite(matrix)):
        raise ValueError("matrix has non-finite entries")
    if not np.allclose(matrix, matrix.T, rtol=0.0, atol=1e-12):
        raise ValueError("matrix is not symmetric")
    try:
        eigenvalues, eigenvectors = np.linalg.eigh(matrix)
    except np.linalg.LinAlgError as exc:
        raise NumericsError(f"eigendecomposition failed to converge: {exc}") from None
    # sign convention: flip columns whose largest-|component| entry is negative
    anchor = np.argmax(np.abs(eigenvectors), axis=0)
    signs = np.sign(eigenvectors[anchor, np.arange(eigenvectors.shape[1])])
    signs[signs == 0.0] = 1.0
    eigenvectors = eigenvectors * signs
    return SpectralDecomposition(eigenvalues, eigenvectors)


def propagate(decomp: SpectralDecomposition, from_index: int, t, to=None):
    """Amplitudes f(t) = sum_j V[to, j] V[from, j] exp(-i E_j t).

    ``t`` is a scalar or a 1-D grid; ``to`` is one site index, a sequence of
    indices, or None for every site.  The result has shape
    ``shape(t) + shape(to)`` (``shape(t) + (n,)`` for None), so a scalar
    ``t`` and a single ``to`` give one complex number.  Apart from the
    result, the only large array it builds is the grid-by-spectrum phase
    block.
    """
    V = decomp.eigenvectors
    phases = np.multiply.outer(np.asarray(t, dtype=np.float64), -1j * decomp.eigenvalues)
    np.exp(phases, out=phases)
    phases *= V[from_index]
    targets = V if to is None else V[np.asarray(to)]
    return phases @ targets.T


def full_space_amplitude(decomp: SpectralDecomposition, from_site: int, to_site: int, t):
    """Transition amplitude between one-excitation basis states of the full space.

    ``decomp`` must come from a full 2^n Hamiltonian; sites map to basis
    indices as site k <-> bit k, so the one-excitation state of site k is
    basis index 2**k.
    """
    dim = decomp.n
    n_sites = dim.bit_length() - 1
    if (1 << n_sites) != dim:
        raise ValueError(f"decomposition dimension {dim} is not a power of two")
    for label, site in (("from_site", from_site), ("to_site", to_site)):
        if not (0 <= site < n_sites):
            raise ValueError(f"{label}={site} out of range for {n_sites} sites")
    return propagate(decomp, 1 << from_site, t, to=1 << to_site)
