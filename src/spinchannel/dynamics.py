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

# rows per panel of the passes over whole matrices (the entry checks here, the
# power-law coupling build in model), so each pass makes panel-sized
# temporaries, not n x n ones
_PANEL_ROWS = 64

# a 1-D time array within this many eps * max|t| of t0 + k dt is a progression;
# np.linspace grids are exact except for their last point, within one
_PROGRESSION_ULPS = 4.0

# Phases (E_j - Ebar) t that may exceed this many radians are reduced mod 2 pi
# before exp, whose own exact reduction of a huge argument is several times
# slower; smaller phases go to exp as they are, so short scans keep their bits.
_REDUCE_PHASES_ABOVE = 2.0**26
# 2 pi as the sum of three doubles (Cody-Waite): the first two carry 21
# significant bits, so k times either is exact for |k| <= 2^32, that is for
# phases up to _REDUCE_PHASES_UP_TO; larger ones go to exp unreduced.
_TWO_PI_PARTS = tuple(map(float.fromhex, ("0x1.921fbp+2", "0x1.5110bp-20", "0x1.18469898cc517p-42")))
_REDUCE_PHASES_UP_TO = 2.0**32 * 2.0 * math.pi


class NumericsError(RuntimeError):
    """A numerical routine failed or produced an inconsistent result."""


@dataclass(frozen=True, init=False, eq=False)
class SpectralDecomposition:
    """Eigenvalues (ascending) and orthonormal eigenvector columns.

    ``SpectralDecomposition(eigenvalues, eigenvectors)`` holds V as given.
    A decomposition that ``eigendecompose`` split by mirror symmetry holds
    only the first ceil(n/2) rows of V and a sign per column, -1 for the
    columns that are odd under the site reversal: row n-1-i is row i times
    those signs.  ``propagate`` and ``spectral_overlaps`` read the rows they
    need through ``_rows`` and ``_channel_weight``, and ``eigenvectors``
    assembles V on first access.

    ``propagate`` takes its phases from the spectral midpoint
    (E_min + E_max) / 2, so the midpoint, the rates -i (E - midpoint) and
    their largest modulus, max|E - midpoint|, are derived here once per
    decomposition.
    """

    eigenvalues: np.ndarray
    _vectors: np.ndarray | None = field(repr=False)
    _half: np.ndarray | None = field(repr=False)
    _signs: np.ndarray | None = field(repr=False)
    _midpoint: float = field(repr=False)
    _rates: np.ndarray = field(repr=False)
    _half_width: float = field(repr=False)

    def __init__(self, eigenvalues, eigenvectors) -> None:
        self._hold(eigenvalues, np.asarray(eigenvectors, dtype=np.float64), None, None)

    @classmethod
    def _mirrored(cls, eigenvalues: np.ndarray, half: np.ndarray, signs: np.ndarray) -> SpectralDecomposition:
        """The decomposition whose V has rows ``half`` and, below them, row n-1-i = half[i] * signs."""
        decomp = cls.__new__(cls)
        decomp._hold(eigenvalues, None, half, signs)
        return decomp

    def _hold(self, eigenvalues, vectors, half, signs) -> None:
        eigenvalues = np.asarray(eigenvalues, dtype=np.float64)
        low, high = (float(eigenvalues.min()), float(eigenvalues.max())) if eigenvalues.size else (0.0, 0.0)
        midpoint = 0.5 * (low + high)
        rates = -1j * (eigenvalues - midpoint)
        for array in (eigenvalues, vectors, half, signs, rates):
            if array is not None:
                array.setflags(write=False)
        # frozen: the fields are set once, here, past the dataclass's __setattr__
        self.__dict__.update(
            eigenvalues=eigenvalues, _vectors=vectors, _half=half, _signs=signs,
            _midpoint=midpoint, _rates=rates, _half_width=max(high - midpoint, midpoint - low),
        )

    @property
    def n(self) -> int:
        return self.eigenvalues.shape[0]

    @property
    def eigenvectors(self) -> np.ndarray:
        """V, one eigenvector per column; a split decomposition assembles it on first access."""
        if self._vectors is None:
            half = self._half
            rows = self.n // 2
            vectors = np.empty((self.n, self.n))
            vectors[: half.shape[0]] = half
            np.multiply(half[:rows][::-1], self._signs, out=vectors[half.shape[0] :])
            vectors.setflags(write=False)
            self.__dict__["_vectors"] = vectors
        return self._vectors

    def _rows(self, index) -> np.ndarray:
        """V[index] for a site index or an integer array of them, without assembling V."""
        if self._half is None:
            return self._vectors[index]
        sites = np.arange(self.n)[index]
        folded = np.minimum(sites, self.n - 1 - sites)
        rows = self._half[folded]
        return np.where((sites != folded)[..., None], rows * self._signs, rows)

    def _channel_weight(self, excluded: tuple[int, int]) -> np.ndarray:
        """sum_i V[i, j]^2 over every site i but the ``excluded`` ones, per column j.

        A split decomposition sums the half rows, each weighted by how many
        of its two mirror sites (one for the middle row) are not excluded.
        """
        if self._half is None:
            mask = np.ones(self.n, dtype=bool)
            for site in excluded:
                mask[site] = False
            return np.sum(self._vectors[mask] ** 2, axis=0)
        weights = np.full(self._half.shape[0], 2.0)
        if self.n % 2:
            weights[-1] = 1.0
        for site in excluded:
            weights[min(site, self.n - 1 - site)] -= 1.0
        return np.einsum("i,ij,ij->j", weights, self._half, self._half)


def eigendecompose(hamiltonian) -> SpectralDecomposition:
    """Diagonalize a real symmetric Hamiltonian.

    Accepts either a bare ndarray (such as full_hamiltonian's) or an object
    with a ``matrix`` attribute (SectorHamiltonian).  Eigenvalues come out
    ascending and each eigenvector's sign is fixed so its largest-magnitude
    component is positive, making the decomposition reproducible across runs.

    Every input must be a non-empty square matrix whose entries are finite
    and symmetric to 1e-12.  They are checked here, once per call, whatever
    built the matrix: an array the caller still holds may have been written
    since any earlier check.

    A matrix with at least MIRROR_SPLIT_MIN_SITES rows that is unchanged by
    reversing the site order (checked on the entries) is diagonalized as its
    even and odd blocks under that reversal: two half-size ``eigh`` calls,
    about a quarter of the work.  The result is the same decomposition, with
    every eigenvector exactly even or odd, so two states of opposite parity
    cannot mix however close their energies are; it holds half of V, and
    builds the rest only when ``eigenvectors`` is read.  Once both blocks
    are built it drops its references to H, so a temporary passed straight
    in, as in ``eigendecompose(sector_hamiltonian(J))``, is freed before the
    blocks go to ``eigh`` (on CPython 3.11 and later; 3.10 keeps it alive in
    the caller until the call returns).
    """
    matrix = np.asarray(getattr(hamiltonian, "matrix", hamiltonian), dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1] or not matrix.size:
        raise ValueError(f"expected a non-empty square matrix (got shape {matrix.shape})")
    if not _symmetric_within(matrix, 1e-12):
        if not np.isfinite(matrix).all():
            raise ValueError("matrix has non-finite entries")
        raise ValueError("matrix is not symmetric")
    try:
        if matrix.shape[0] >= MIRROR_SPLIT_MIN_SITES and _is_mirror_symmetric(matrix):
            blocks = _mirror_blocks(matrix)
            del matrix, hamiltonian
            return _mirror_eigh(blocks)
        eigenvalues, eigenvectors = np.linalg.eigh(matrix)
    except np.linalg.LinAlgError as exc:
        raise NumericsError(f"eigendecomposition failed to converge: {exc}") from None
    _fix_signs(eigenvectors)
    return SpectralDecomposition(eigenvalues, eigenvectors)


def _symmetric_within(matrix: np.ndarray, tolerance: float) -> bool:
    """Whether every |M[i, k] - M[k, i]| <= tolerance; False when an entry is NaN or infinite.

    Each panel of rows from the diagonal on is compared with the matching
    panel of columns, so every entry is read and a non-finite one leaves a
    NaN or infinite difference that fails the test; no warning is raised.
    """
    n = matrix.shape[0]
    with np.errstate(invalid="ignore", over="ignore"):
        for lo in range(0, n, _PANEL_ROWS):
            hi = min(lo + _PANEL_ROWS, n)
            if not np.abs(matrix[lo:hi, lo:] - matrix[lo:, lo:hi].T).max() <= tolerance:
                return False
    return True


def _is_mirror_symmetric(matrix: np.ndarray) -> bool:
    """max|H - P H P| <= _MIRROR_TOLERANCE_EPS * eps * max|H|, P the site reversal.

    (P H P)[i, k] = H[n-1-i, n-1-k], so H - P H P is H minus H reversed in
    both indices, and row n-1-i of that difference is row i reversed and
    negated: its first ceil(n/2) rows hold every magnitude.  They are
    compared panel by panel, each row with its reversed partner.
    """
    scale = max(float(matrix.max()), -float(matrix.min()))
    tolerance = _MIRROR_TOLERANCE_EPS * np.finfo(np.float64).eps * scale
    rows = (matrix.shape[0] + 1) // 2
    mirrored = matrix[::-1, ::-1]
    for lo in range(0, rows, _PANEL_ROWS):
        hi = min(lo + _PANEL_ROWS, rows)
        if not np.abs(matrix[lo:hi] - mirrored[lo:hi]).max() <= tolerance:
            return False
    return True


def _mirror_blocks(matrix: np.ndarray) -> list[np.ndarray]:
    """[even, odd]: the blocks of a mirror-symmetric matrix under the site reversal.

    With m = n // 2 and i, k < m the blocks are H[i, k] +- H[i, n-1-k]; for
    odd n the middle site joins the even block with couplings sqrt(2) H[i, m].
    """
    n = matrix.shape[0]
    m = n // 2
    near = matrix[:m, :m]
    far = matrix[:m, ::-1][:, :m]
    even = np.empty((n - m, n - m))
    np.add(near, far, out=even[:m, :m])
    if n % 2:
        even[:m, m] = even[m, :m] = np.sqrt(2.0) * matrix[:m, m]
        even[m, m] = matrix[m, m]
    return [even, near - far]


def _mirror_eigh(blocks: list[np.ndarray]) -> SpectralDecomposition:
    """``eigh`` of a mirror-symmetric matrix from the [even, odd] blocks of ``_mirror_blocks``.

    Each block is popped from ``blocks`` as it goes to ``eigh``, so it is
    freed once diagonalized.  An even-block eigenvector (u, c) is
    (u, c, Pu) / sqrt(2) on the chain with the middle entry c unscaled, an
    odd one (u, -Pu) / sqrt(2), where Pu is u in reverse order.  Eigenvalues
    are merged by a stable sort, which keeps each block's columns in their
    own order.  The decomposition holds the first ceil(n/2) rows of V and
    the sign of each column under the reversal; a column's entries below
    those rows repeat theirs up to that sign, so its first largest-magnitude
    entry lies among them and ``_fix_signs`` needs only them.
    """
    m = blocks[1].shape[0]
    n = m + blocks[0].shape[0]
    even_values, even_vectors = np.linalg.eigh(blocks.pop(0))
    odd_values, odd_vectors = np.linalg.eigh(blocks.pop())

    eigenvalues = np.concatenate((even_values, odd_values))
    order = np.argsort(eigenvalues, kind="stable")
    odd = order >= n - m
    half = np.empty((n - m, n))
    half[:m, ~odd] = even_vectors[:m]
    half[:m, odd] = odd_vectors
    half[:m] *= np.sqrt(0.5)
    if n % 2:
        half[m, ~odd] = even_vectors[m]
        half[m, odd] = 0.0
    del even_vectors, odd_vectors
    _fix_signs(half)
    return SpectralDecomposition._mirrored(eigenvalues[order], half, np.where(odd, -1.0, 1.0))


def _fix_signs(vectors: np.ndarray) -> None:
    """Negate, in place, each column whose first largest-magnitude entry is negative.

    Column maxima and minima copy nothing; only the columns whose two
    extremes tie in magnitude are copied, for ``argmax`` and ``argmin``.
    """
    top = vectors.max(axis=0)
    bottom = -vectors.min(axis=0)
    negative = bottom > top
    tied = np.flatnonzero(bottom == top)
    if tied.size:
        columns = vectors[:, tied]
        negative[tied] = columns.argmin(axis=0) < columns.argmax(axis=0)
    # a product by a row of signs: the masked np.negative is several times slower
    vectors *= np.where(negative, -1.0, 1.0)


def propagate(decomp: SpectralDecomposition, from_index: int, t, to=None):
    """Amplitudes f(t) = sum_j V[to, j] V[from, j] exp(-i E_j t).

    ``t`` is a scalar or a 1-D grid; ``to`` is one site index, a sequence of
    indices, or None for every site.  The result has shape
    ``shape(t) + shape(to)`` (``shape(t) + (n,)`` for None), so a scalar
    ``t`` and a single ``to`` give one complex number.

    Phases are taken from the spectral midpoint Ebar = (E_min + E_max) / 2:
    the sum runs over exp(-i (E_j - Ebar) t) and is multiplied by
    exp(-i Ebar t).  A large common energy (such as the diagonal offset of
    a long chain) then stays out of the phase arguments, whose rounding
    grows with their size; moduli depend only on the relative phases.

    A 1-D arithmetic progression of G times (an ``np.linspace`` grid) takes
    its phases from two tables of about sqrt(G) rows and is scored by one
    complex GEMM per chunk of targets (``_progression_amplitudes``); the
    G-by-n phase block is never built.  Besides the result, a few targets
    T cost about 16 ((2 + T) sqrt(G) n + G T) bytes, and many targets are
    chunked to stay within the 16 G n bytes of that block.  Any other ``t``
    takes one ``exp`` per time and eigenvalue into a shape(t) + (n,) phase
    block.

    When max|E - Ebar| max|t| exceeds 2^26 rad (a long chain over a long
    window), each phase is reduced mod 2 pi before ``exp``
    (``_exp_phases``), which then runs several times faster; each phase
    factor moves by at most about 3e-16.  Below that bound the phases go to
    ``exp`` as they are.
    """
    times = np.asarray(t, dtype=np.float64)
    targets = decomp.eigenvectors if to is None else decomp._rows(np.asarray(to))
    progression = _progression(times)
    if progression is None:
        amplitudes = _phase_block(decomp, from_index, times) @ targets.T
    else:
        amplitudes = _progression_amplitudes(decomp, decomp._rows(from_index), targets, *progression)
    shift = np.exp(-1j * decomp._midpoint * times)
    amplitudes *= np.expand_dims(shift, tuple(range(times.ndim, amplitudes.ndim)))
    return amplitudes


def _phase_block(decomp: SpectralDecomposition, from_index: int, times: np.ndarray) -> np.ndarray:
    """exp(-i (E_j - Ebar) t) V[from, j], one ``exp`` per time and eigenvalue: a shape(t) + (n,) block."""
    # probe arrays are short, and Python's max over their values is the cheapest max|t|
    longest = max(map(abs, times.ravel().tolist()), default=0.0)
    phases = _exp_phases(np.multiply.outer(times, decomp._rates), decomp._half_width * longest)
    phases *= decomp._rows(from_index)
    return phases


def _exp_phases(phases: np.ndarray, bound: float) -> np.ndarray:
    """exp of a block of imaginary phases, in place; ``bound`` is at least the largest |phase|.

    When the bound lies in (_REDUCE_PHASES_ABOVE, _REDUCE_PHASES_UP_TO],
    each phase x first becomes x - k 2 pi with k = rint(x / 2 pi), 2 pi
    taken as the sum of _TWO_PI_PARTS and subtracted part by part.  The
    first two products and differences are exact, so only the last part
    rounds: ``exp`` of the reduced phase lies within about 3e-16 of ``exp``
    of x.  Otherwise ``exp`` takes the phases as they are.
    """
    if _REDUCE_PHASES_ABOVE < bound <= _REDUCE_PHASES_UP_TO:
        angles = phases.imag
        turns = np.rint(angles * (0.5 / math.pi))
        for part in _TWO_PI_PARTS:
            angles -= turns * part
    return np.exp(phases, out=phases)


def _amplitude_derivatives(decomp: SpectralDecomposition, from_index: int, t, to) -> np.ndarray:
    """g, g' and g'' at each time, where g(t) = exp(i Ebar t) f(t) and f is ``propagate``'s amplitude.

    With w_j = V[to, j] V[from, j] and r_j = -i (E_j - Ebar), the three are
    sum_j w_j r_j^m exp(r_j t) for m = 0, 1, 2: one phase block times
    3 * len(to) weight columns.  |g| = |f|, so moduli and their time
    derivatives come out as those of f, free of the e^{-i Ebar t} factor.
    ``t`` is 1-D and ``to`` a sequence of site indices; the result has shape
    (3, len(t), len(to)).
    """
    times = np.asarray(t, dtype=np.float64)
    targets = decomp._rows(np.asarray(to)).T
    powers = decomp._rates[:, None] ** np.arange(3)
    columns = (powers[:, :, None] * targets[:, None, :]).reshape(targets.shape[0], -1)
    series = _phase_block(decomp, from_index, times) @ columns
    return series.reshape(times.size, 3, targets.shape[1]).swapaxes(0, 1)


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


def _progression_amplitudes(
    decomp: SpectralDecomposition, weights: np.ndarray, targets: np.ndarray, t0: float, dt: float, count: int
) -> np.ndarray:
    """sum_j exp(rates_j (t0 + k dt)) weights_j targets[..., j] for k < count, rates = decomp._rates.

    With k = a B + b and B = ceil(sqrt(count)), the phase of term j is the
    coarse entry exp(rates_j (t0 + a B dt)) times the fine entry
    exp(rates_j b dt).  Amplitude (a B + b, c) is then row a of the coarse
    table (C x n, C = ceil(count / B)) times column (b, c) of the operand
    fine[b, j] weights_j targets[c, j], so each chunk of targets is one
    complex GEMM and the count-by-n phase block is never formed.  A chunk
    holds at most C n / (n + C) targets (at least one), so its operand, n B
    entries per target, and its GEMM product, C B per target, together stay
    within the C B n entries that block would take.  The result has shape
    (count,) + targets.shape[:-1].
    """
    rates = decomp._rates
    n = rates.size
    fine_rows = math.isqrt(count - 1) + 1
    coarse_rows = -(-count // fine_rows)
    # a coarse time t0 + a B dt (a < C) lies in [t0, t_last], a fine one b dt (b < B) within |t_last - t0|
    t_last = t0 + dt * (count - 1)
    bound = decomp._half_width * max(abs(t0), abs(t_last), abs(t_last - t0))
    fine = _exp_phases(np.multiply.outer(rates, dt * np.arange(fine_rows)), bound)
    fine *= weights[:, None]
    coarse = _exp_phases(np.multiply.outer(t0 + (fine_rows * dt) * np.arange(coarse_rows), rates), bound)
    columns = targets.reshape(-1, n).T
    width = columns.shape[1]
    chunk = min(width, max(1, coarse_rows * n // (n + coarse_rows)))
    operands = np.empty(n * fine_rows * chunk, dtype=np.complex128)
    amplitudes = np.empty((count, width), dtype=np.complex128)
    for lo in range(0, width, chunk):
        part = columns[:, lo : lo + chunk]
        size = part.shape[1]
        operand = operands[: n * fine_rows * size].reshape(n, fine_rows, size)
        np.multiply(fine[:, :, None], part[:, None, :], out=operand)
        # one statement, so each chunk's GEMM product is freed before the next one is made
        amplitudes[:, lo : lo + size] = (coarse @ operand.reshape(n, -1)).reshape(-1, size)[:count]
    return amplitudes.reshape((count,) + targets.shape[:-1])


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
