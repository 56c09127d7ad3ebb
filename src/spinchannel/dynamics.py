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

import math
from dataclasses import dataclass, field

import numpy as np

# Mirror-symmetric matrices with at least this many rows are diagonalized as
# two half-size blocks; below it a dense eigh takes well under a millisecond,
# and small chains keep the outputs of the single call bit for bit.
MIRROR_SPLIT_MIN_SITES = 64

# mirror test tolerance in units of eps * max|H|; the row-sum rounding of
# sector_hamiltonian leaves at most ~0.86 of them on mirror-symmetric chains
_MIRROR_TOLERANCE_EPS = 16.0

# rows per block in the entrywise checks, so no n x n temporary is built
_CHECK_ROWS = 256

# a 1-D time array within this many eps * max|t| of t0 + k dt is a progression;
# np.linspace grids are exact except for their last point, within one
_PROGRESSION_ULPS = 4.0


class NumericsError(RuntimeError):
    """A numerical routine failed or produced an inconsistent result."""


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues (ascending) and orthonormal eigenvector columns.

    ``propagate`` takes its phases from the spectral midpoint
    (E_min + E_max) / 2, so the midpoint and the rates -i (E - midpoint) are
    derived here once per decomposition.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    _midpoint: float = field(init=False, repr=False, compare=False)
    _rates: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        eigenvalues = np.asarray(self.eigenvalues, dtype=np.float64)
        eigenvectors = np.asarray(self.eigenvectors, dtype=np.float64)
        eigenvalues.setflags(write=False)
        eigenvectors.setflags(write=False)
        object.__setattr__(self, "eigenvalues", eigenvalues)
        object.__setattr__(self, "eigenvectors", eigenvectors)
        midpoint = 0.5 * (eigenvalues.min() + eigenvalues.max()) if eigenvalues.size else 0.0
        rates = -1j * (eigenvalues - midpoint)
        rates.setflags(write=False)
        object.__setattr__(self, "_midpoint", float(midpoint))
        object.__setattr__(self, "_rates", rates)

    @property
    def n(self) -> int:
        return self.eigenvalues.shape[0]


def eigendecompose(hamiltonian) -> SpectralDecomposition:
    """Diagonalize a real symmetric Hamiltonian.

    Accepts either a bare ndarray (such as full_hamiltonian's) or an object
    with a ``matrix`` attribute (SectorHamiltonian).  Eigenvalues come out
    ascending and each eigenvector's sign is fixed so its largest-magnitude
    component is positive, making the decomposition reproducible across runs.

    A matrix with at least MIRROR_SPLIT_MIN_SITES rows that is unchanged by
    reversing the site order (checked on the entries) is diagonalized as its
    even and odd blocks under that reversal: two half-size ``eigh`` calls,
    about a quarter of the work.  The result is the same decomposition, with
    every eigenvector exactly even or odd, so two states of opposite parity
    cannot mix however close their energies are.
    """
    matrix = np.asarray(getattr(hamiltonian, "matrix", hamiltonian), dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"expected a square matrix (got shape {matrix.shape})")
    if not np.all(np.isfinite(matrix)):
        raise ValueError("matrix has non-finite entries")
    if _max_abs_difference(matrix, matrix.T) > 1e-12:
        raise ValueError("matrix is not symmetric")
    try:
        if matrix.shape[0] >= MIRROR_SPLIT_MIN_SITES and _is_mirror_symmetric(matrix):
            eigenvalues, eigenvectors = _mirror_eigh(matrix)
        else:
            eigenvalues, eigenvectors = np.linalg.eigh(matrix)
    except np.linalg.LinAlgError as exc:
        raise NumericsError(f"eigendecomposition failed to converge: {exc}") from None
    _fix_signs(eigenvectors)
    return SpectralDecomposition(eigenvalues, eigenvectors)


def _max_abs_difference(a: np.ndarray, b: np.ndarray) -> float:
    """max|a - b| over two equal-shape 2-D arrays, a block of rows at a time."""
    worst = 0.0
    for start in range(0, a.shape[0], _CHECK_ROWS):
        block = np.subtract(a[start : start + _CHECK_ROWS], b[start : start + _CHECK_ROWS])
        worst = max(worst, float(np.abs(block, out=block).max()))
    return worst


def _is_mirror_symmetric(matrix: np.ndarray) -> bool:
    """max|H - P H P| <= _MIRROR_TOLERANCE_EPS * eps * max|H|, P the site reversal.

    Entry (i, k) pairs with (n-1-i, n-1-k), and one of the two always lies in
    the first ceil(n/2) rows, so those rows cover every pair.
    """
    rows = matrix.shape[0] - matrix.shape[0] // 2
    scale = max(float(matrix.max()), -float(matrix.min()))
    tolerance = _MIRROR_TOLERANCE_EPS * np.finfo(np.float64).eps * scale
    return _max_abs_difference(matrix[:rows], matrix[::-1, ::-1][:rows]) <= tolerance


def _mirror_eigh(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``eigh`` of a mirror-symmetric matrix through its even and odd blocks.

    With m = n // 2 and i, k < m the blocks are H[i, k] +- H[i, n-1-k]; for
    odd n the middle site joins the even block with couplings sqrt(2) H[i, m].
    An even-block eigenvector (u, c) is (u, c, Pu) / sqrt(2) on the chain
    with the middle entry c unscaled, an odd one (u, -Pu) / sqrt(2), where Pu
    is u in reverse order.  Eigenvalues are merged by a stable sort.
    """
    n = matrix.shape[0]
    m = n // 2
    near = matrix[:m, :m]
    far = matrix[:m, ::-1][:, :m]
    even = np.empty((n - m, n - m))
    even[:m, :m] = near + far
    if n % 2:
        even[:m, m] = even[m, :m] = np.sqrt(2.0) * matrix[:m, m]
        even[m, m] = matrix[m, m]
    even_values, even_vectors = np.linalg.eigh(even)
    odd_values, odd_vectors = np.linalg.eigh(near - far)

    eigenvalues = np.concatenate((even_values, odd_values))
    order = np.argsort(eigenvalues, kind="stable")
    half = np.concatenate((even_vectors[:m], odd_vectors), axis=1)[:, order]
    half *= np.sqrt(0.5)
    eigenvectors = np.empty((n, n))
    eigenvectors[:m] = half
    if n % 2:
        eigenvectors[m] = np.concatenate((even_vectors[m], np.zeros(m)))[order]
    # odd columns change sign under the reversal
    np.negative(half, out=half, where=order >= n - m)
    eigenvectors[n - m :] = half[::-1]
    return eigenvalues[order], eigenvectors


def _fix_signs(vectors: np.ndarray) -> None:
    """Negate, in place, each column whose first largest-magnitude entry is negative."""
    columns = np.arange(vectors.shape[1])
    hi = vectors.argmax(axis=0)
    lo = vectors.argmin(axis=0)
    top = vectors[hi, columns]
    bottom = -vectors[lo, columns]
    negative = (bottom > top) | ((bottom == top) & (lo < hi))
    np.negative(vectors, out=vectors, where=negative)


def propagate(decomp: SpectralDecomposition, from_index: int, t, to=None):
    """Amplitudes f(t) = sum_j V[to, j] V[from, j] exp(-i E_j t).

    ``t`` is a scalar or a 1-D grid; ``to`` is one site index, a sequence of
    indices, or None for every site.  The result has shape
    ``shape(t) + shape(to)`` (``shape(t) + (n,)`` for None), so a scalar
    ``t`` and a single ``to`` give one complex number.  Apart from the
    result, the only large array it builds is the grid-by-spectrum phase
    block.

    Phases are taken from the spectral midpoint Ebar = (E_min + E_max) / 2:
    the block holds exp(-i (E_j - Ebar) t) and the sum is multiplied by
    exp(-i Ebar t).  A large common energy (such as the diagonal offset of
    a long chain) then stays out of the phase arguments, whose rounding
    grows with their size; moduli depend only on the relative phases.  A
    1-D arithmetic progression of times (an ``np.linspace`` grid) builds
    the block from two ceil(sqrt(G))-row tables of ``exp`` instead of G
    rows; any other ``t`` takes one ``exp`` per time and eigenvalue.
    """
    V = decomp.eigenvectors
    times = np.asarray(t, dtype=np.float64)
    progression = _progression(times)
    if progression is None:
        phases = np.multiply.outer(times, decomp._rates)
        np.exp(phases, out=phases)
        phases *= V[from_index]
    else:
        phases = _progression_phases(decomp._rates, V[from_index], *progression)
    targets = V if to is None else V[np.asarray(to)]
    amplitudes = phases @ targets.T
    shift = np.exp(-1j * decomp._midpoint * times)
    amplitudes *= np.expand_dims(shift, tuple(range(times.ndim, amplitudes.ndim)))
    return amplitudes


def _progression(times: np.ndarray) -> tuple[float, float, int] | None:
    """(t0, dt, G) when 1-D ``times`` is t0 + k dt, k < G, to a few ulps of max|t|; else None."""
    if times.ndim != 1 or times.size < 2:
        return None
    count = times.size
    t0, t_last = float(times[0]), float(times[-1])
    dt = (t_last - t0) / (count - 1)
    # a progression's largest |t| is at one of its ends
    tolerance = _PROGRESSION_ULPS * np.finfo(np.float64).eps * max(abs(t0), abs(t_last))
    deviation = np.abs(times - (t0 + dt * np.arange(count))).max()
    if not deviation <= tolerance:
        return None
    return t0, dt, count


def _progression_phases(
    rates: np.ndarray, weights: np.ndarray, t0: float, dt: float, count: int
) -> np.ndarray:
    """exp(rates (t0 + k dt)) * weights for k < count, as a count-by-n block.

    With k = a B + b and B = ceil(sqrt(count)), row k is the coarse row
    exp(rates (t0 + a B dt)) times the fine row exp(rates b dt) * weights.
    """
    fine_rows = math.isqrt(count - 1) + 1
    coarse_rows = -(-count // fine_rows)
    fine = np.exp(np.multiply.outer(dt * np.arange(fine_rows), rates))
    fine *= weights
    coarse = np.exp(np.multiply.outer(t0 + (fine_rows * dt) * np.arange(coarse_rows), rates))
    block = np.empty((coarse_rows, fine_rows, rates.size), dtype=np.complex128)
    np.multiply(coarse[:, None, :], fine, out=block)
    return block.reshape(coarse_rows * fine_rows, rates.size)[:count]


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
