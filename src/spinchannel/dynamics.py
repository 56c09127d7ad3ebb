"""Spectral decomposition and time evolution in the single-excitation sector.

With H = V diag(E) V^T the transition amplitude from site s to site n is

    f_sn(t) = <n| exp(-i H t) |s> = sum_j V[n, j] V[s, j] exp(-i E_j t)

(units with hbar = 1).  ``propagate`` evaluates it.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

# Mirror-symmetric matrices with at least this many rows are diagonalized as
# two half-size blocks; below it a dense eigh takes well under a millisecond,
# and small chains keep the outputs of the single call bit for bit.
MIRROR_SPLIT_MIN_SITES = 64

# mirror test tolerance in units of eps * max|H|; the row-sum rounding of
# sector_hamiltonian leaves at most ~0.86 of them on mirror-symmetric chains
_MIRROR_TOLERANCE_EPS = 16.0

# rows per panel of the passes over whole matrices (the entry checks and the
# mirror walk here, the power-law coupling and parity-block builds in model),
# so each pass makes panel-sized temporaries, not n x n ones
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
    """Eigenvalues and eigenvector columns V, held as the first r rows of V.

    ``SpectralDecomposition(eigenvalues, eigenvectors)`` takes a 1-D array
    of n >= 1 eigenvalues and an n x n V, else raises ValueError, and holds
    all r = n rows.  A mirror split (``eigendecompose``) holds r = ceil(n/2)
    rows and ``_signs``, each column's parity: row n-1-i is row i times
    ``_signs``.  Held arrays are read-only; a float64 array passed in is held
    itself, so the caller's array is frozen too (others are copied).
    ``eigenvectors`` and the phase data of ``propagate`` are computed on
    first read.
    """

    eigenvalues: np.ndarray
    _held: np.ndarray = field(repr=False)
    _signs: np.ndarray | None = field(repr=False)

    def __init__(self, eigenvalues, eigenvectors, *, _signs=None) -> None:
        eigenvalues = np.asarray(eigenvalues, dtype=np.float64)
        held = np.asarray(eigenvectors, dtype=np.float64)
        n = eigenvalues.shape[0] if eigenvalues.ndim == 1 else 0
        if not n or held.shape != (n if _signs is None else (n + 1) // 2, n):
            raise ValueError(
                "expected a 1-D array of n >= 1 eigenvalues and an n x n eigenvector matrix "
                f"(got shapes {eigenvalues.shape} and {held.shape})"
            )
        for array in (eigenvalues, held, _signs):
            if array is not None:
                array.setflags(write=False)
        # frozen: the fields are set once, here, past the dataclass's __setattr__
        self.__dict__.update(eigenvalues=eigenvalues, _held=held, _signs=_signs)

    @property
    def n(self) -> int:
        return self.eigenvalues.shape[0]

    @cached_property
    def eigenvectors(self) -> np.ndarray:
        """V, one eigenvector per column; a split builds it in one n x n array on first read."""
        vectors = self._rows(slice(None))
        vectors.setflags(write=False)
        return vectors

    @cached_property
    def _midpoint(self) -> float:
        return 0.5 * (float(self.eigenvalues.min()) + float(self.eigenvalues.max()))

    @cached_property
    def _rates(self) -> np.ndarray:
        rates = -1j * (self.eigenvalues - self._midpoint)
        rates.setflags(write=False)
        return rates

    @cached_property
    def _half_width(self) -> float:
        return max(float(self.eigenvalues.max()) - self._midpoint, self._midpoint - float(self.eigenvalues.min()))

    def _rows(self, index) -> np.ndarray:
        """V[index] for a site index, an integer array of them or a slice, without assembling V."""
        if self._signs is None:
            return self._held[index]
        sites = np.arange(self.n)[index]
        folded = np.minimum(sites, self.n - 1 - sites)
        rows = np.take(self._held, folded, axis=0)
        # signed in place, so the rows take no memory beyond their own array
        np.multiply(rows, self._signs, out=rows, where=(sites != folded)[..., None])
        return rows

    def _channel_weight(self, excluded: tuple[int, int]) -> np.ndarray:
        """sum_i V[i, j]^2 over every site i but the ``excluded`` ones, per column j."""
        r, n = self._held.shape
        # a held row also stands for its mirror site when that site is not held
        weights = np.where(n - 1 - np.arange(r) < r, 1.0, 2.0)
        for site in excluded:
            weights[site if site < r else n - 1 - site] -= 1.0
        return np.einsum("i,ij,ij->j", weights, self._held, self._held)


def eigendecompose(hamiltonian) -> SpectralDecomposition:
    """Diagonalize a real symmetric Hamiltonian: an ndarray or an object with a ``matrix``.

    Eigenvalues come out ascending; column signs are those ``eigh``
    returns, and no output depends on them.  The matrix must be non-empty,
    square, finite and symmetric to 1e-12 (else ValueError), checked on
    every call: an array the caller holds may have been written since.
    A spectrum or parity block that overflows the float range is a NumericsError.

    A matrix of at least MIRROR_SPLIT_MIN_SITES rows that is unchanged by
    reversing the site order is diagonalized as its even and odd blocks,
    about a quarter of the work, and every eigenvector comes out exactly
    even or odd.  The result holds ceil(n/2) rows of V.  References to H
    are dropped before the blocks go to ``eigh``, so on CPython 3.11 and
    later a temporary passed straight in is freed by then.  A
    ``_ParityBlocks``, which ``model`` builds for a long power-law mirror
    chain in place of H, goes to ``eigh`` as it is.
    """
    if isinstance(hamiltonian, _ParityBlocks):
        blocks, matrix = hamiltonian, None
    else:
        matrix = np.asarray(getattr(hamiltonian, "matrix", hamiltonian), dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1] or not matrix.size:
            raise ValueError(f"expected a non-empty square matrix (got shape {matrix.shape})")
        if not _asymmetry(matrix) <= 1e-12:
            if not np.isfinite(matrix).all():
                raise ValueError("matrix has non-finite entries")
            raise ValueError("matrix is not symmetric")
        blocks = _mirror_blocks(matrix) if matrix.shape[0] >= MIRROR_SPLIT_MIN_SITES else None
    try:
        if blocks is None:
            decomp = SpectralDecomposition(*np.linalg.eigh(matrix))
        else:
            del matrix, hamiltonian
            decomp = _mirror_eigh(blocks)
    except np.linalg.LinAlgError as exc:
        raise NumericsError(f"eigendecomposition failed to converge: {exc}") from None
    finite = np.isfinite(decomp.eigenvalues)
    if not finite.all():
        j = int(np.argmin(finite))
        raise NumericsError(f"eigenvalue {j} of {decomp.n} is {float(decomp.eigenvalues[j])}: the spectrum overflows")
    return decomp


def _asymmetry(matrix: np.ndarray) -> float:
    """max |M[i, k] - M[k, i]|, a panel of rows at a time; inf or NaN, without a warning, if an entry is not finite."""
    largest = 0.0
    with np.errstate(invalid="ignore", over="ignore"):
        for lo in range(0, matrix.shape[0], _PANEL_ROWS):
            panel = np.abs(matrix[lo : lo + _PANEL_ROWS, lo:] - matrix[lo:, lo : lo + _PANEL_ROWS].T).max()
            if not panel <= largest:
                largest = panel
                # a NaN ends the scan: no later comparison would keep it
                if np.isnan(largest):
                    break
    return float(largest)


class _ParityBlocks(list):
    """[even, odd]: the ceil(n/2)- and (n//2)-square blocks of a mirror-symmetric H of n rows, filled by ``fold``.

    With m = n // 2 and i, k < m, the blocks hold H[i, k] +- H[i, n-1-k],
    and for odd n the middle site joins the even block with couplings
    sqrt(2) H[i, m] and its own H[m, m].
    """

    def __init__(self, n: int) -> None:
        super().__init__((np.empty((n - n // 2, n - n // 2)), np.empty((n // 2, n // 2))))

    def fold(self, panel: np.ndarray, lo: int) -> None:
        """Write the blocks' rows from ``panel``, rows lo.. of H (all below ceil(n/2))."""
        even, odd = self
        n = panel.shape[1]
        m = n // 2
        k = min(len(panel), m - lo)
        rows = slice(lo, lo + k)
        near, far = panel[:k, :m], panel[:k, : n - m - 1 : -1]
        # finite entries can fold past the float range; ``checked`` reports it after the build, past any row-sum check
        with np.errstate(over="ignore"):
            np.add(near, far, out=even[rows, :m])
            np.subtract(near, far, out=odd[rows])
            middle = np.sqrt(2.0) * panel[:k, m : n - m]
        even[rows, m:], even[m:, rows] = middle, middle.T
        if k < len(panel):
            # the panel ends at an odd chain's middle row, which the reversal leaves in place
            even[m, m] = panel[k, m]

    def checked(self) -> _ParityBlocks:
        """The blocks, once ``fold`` has written every row; a NumericsError if an entry overflowed."""
        for name, block in zip(("even", "odd"), self):
            if not np.isfinite(block).all():
                i, k = np.argwhere(~np.isfinite(block))[0]
                raise NumericsError(f"the mirror fold of H overflows: {name} block entry ({i}, {k}) is {block[i, k]}")
        return self


def _mirror_blocks(matrix: np.ndarray) -> _ParityBlocks | None:
    """The parity blocks of H under the site reversal P; None unless max|H - P H P| is in tolerance.

    The tolerance is _MIRROR_TOLERANCE_EPS * eps * max|H|.  Row n-1-i of
    H - P H P is row i reversed and negated, so one walk over the first
    ceil(n/2) rows tests a panel of them, then folds it into the blocks.
    """
    n = matrix.shape[0]
    scale = max(float(matrix.max()), -float(matrix.min()))
    tolerance = _MIRROR_TOLERANCE_EPS * np.finfo(np.float64).eps * scale
    blocks = _ParityBlocks(n)
    for lo in range(0, n - n // 2, _PANEL_ROWS):
        panel = matrix[lo : min(lo + _PANEL_ROWS, n - n // 2)]
        if not np.abs(panel - matrix[::-1, ::-1][lo : lo + len(panel)]).max() <= tolerance:
            return None
        blocks.fold(panel, lo)
    return blocks.checked()


def _mirror_eigh(blocks: _ParityBlocks) -> SpectralDecomposition:
    """``eigh`` of a mirror-symmetric matrix from its parity blocks, emptying ``blocks``.

    An even-block eigenvector (u, c) is (u, c, Pu) / sqrt(2) on the chain,
    the middle entry c unscaled, and an odd one (u, -Pu) / sqrt(2), Pu being
    u reversed.  Both blocks' eigenvectors sit side by side in one array,
    an odd chain's middle row zero in the odd columns, and one gather puts
    the columns in eigenvalue order.
    """
    even_values, even_vectors = np.linalg.eigh(blocks.pop(0))
    odd_values, odd_vectors = np.linalg.eigh(blocks.pop())
    r, m = len(even_values), len(odd_values)
    half = np.zeros((r, r + m))
    half[:, :r] = even_vectors
    half[:m, r:] = odd_vectors
    del even_vectors, odd_vectors
    half[:m] *= np.sqrt(0.5)
    eigenvalues = np.concatenate((even_values, odd_values))
    order = np.argsort(eigenvalues, kind="stable")
    return SpectralDecomposition(eigenvalues[order], half.take(order, axis=1), _signs=np.where(order >= r, -1.0, 1.0))


def propagate(decomp: SpectralDecomposition, from_index: int, t, to=None):
    """Amplitudes f(t) = sum_j V[to, j] V[from, j] exp(-i E_j t).

    ``t`` is a scalar or any array of times; ``to`` is one site index, a
    sequence of them, or None for every site.  The result has shape
    ``shape(t) + shape(to)`` (``shape(t) + (n,)`` for None).  Times must be
    finite reals (``_times``), a site index an integer (``operator.index``) in [0, n), else ValueError.

    The sum runs over exp(-i (E_j - Ebar) t), Ebar = (E_min + E_max) / 2,
    and is then multiplied by exp(-i Ebar t), so a large common energy
    stays out of the phase arguments.  A 1-D arithmetic progression of G
    times never builds the G x n phase block: besides the result, T
    targets take about 16 ((2 + T) sqrt(G) n + G T) bytes, and many
    targets at most the 16 G n bytes of that block.  Any other ``t`` builds
    it.  Past max|E - Ebar| max|t| = 2^26 rad each phase factor may move by
    about 3e-16 (``_exp_phases``).
    """
    times = _times(t)
    source = _site_index("from_index", from_index, decomp.n)
    if to is not None:
        index = np.asarray(to)
        sites = [_site_index("to", site, decomp.n) for site in index.ravel().tolist()]
        to = np.array(sites, dtype=np.intp).reshape(index.shape)
    sums = _phase_free_sums(decomp, source, times, to)
    # in place, but for a scalar time and target, whose sum is a NumPy scalar
    return _common_phase(decomp._midpoint, times, sums, out=sums if sums.ndim else None)


def _phase_free_sums(decomp: SpectralDecomposition, source: int, times: np.ndarray, to: np.ndarray | None):
    """``propagate``'s sums before ``_common_phase``, g(t) = exp(i Ebar t) f(t), for the sites and times it checked."""
    weights = decomp._rows(source)
    targets = decomp.eigenvectors if to is None else decomp._rows(to)
    progression = _progression(times)
    if progression is None:
        return _phase_block(decomp, weights, times) @ targets.T
    return _progression_amplitudes(decomp, weights, targets, *progression)


def _common_phase(midpoint: float, times: np.ndarray, sums: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """f = exp(-i Ebar t) g for the sums g of ``_phase_free_sums`` at ``times``, Ebar = ``midpoint``; into ``out``."""
    phase = np.exp(-1j * midpoint * times)
    return np.multiply(sums, np.expand_dims(phase, tuple(range(times.ndim, sums.ndim))), out=out)


def _site_index(label: str, value, n: int) -> int:
    """``operator.index(value)``, a site of an n-site chain; else a ValueError naming ``label`` and the value."""
    try:
        index = operator.index(value)
    except TypeError:
        raise ValueError(f"{label}={value!r} is not an integer") from None
    if not 0 <= index < n:
        raise ValueError(f"{label}={index} out of range for {n} sites")
    return index


def _real(name: str, value):
    """``value`` if it is a scalar that compares with floats, not a bool or complex, else ValueError naming ``name``."""
    try:
        value < 0.0
        real = np.ndim(value) == 0 and np.asarray(value).dtype.kind not in "bc"
    except TypeError:
        real = False
    if not real:
        raise ValueError(f"{name} must be a real number (got {value!r})")
    return value


def _times(t) -> np.ndarray:
    """``t`` as float64, a float64 array itself; ValueError naming ``t`` unless each time is finite and ``_real``."""
    # any t but an int or float array is read entry by entry, where np.asarray would take "1", True or None
    if not (isinstance(t, np.ndarray) and t.dtype.kind in "iuf"):
        t = np.array(t, dtype=object)
        for value in t.flat:
            _real("t", value)
    times = np.asarray(t, dtype=np.float64)
    if not np.isfinite(times).all():
        raise ValueError(f"t must be finite (got {times[~np.isfinite(times)].flat[0]})")
    return times


def _phase_block(decomp: SpectralDecomposition, weights: np.ndarray, times: np.ndarray) -> np.ndarray:
    """exp(-i (E_j - Ebar) t) weights_j, one ``exp`` per time and eigenvalue: a shape(t) + (n,) block."""
    # probe arrays are short, and Python's max over their values is the cheapest max|t|
    longest = max(map(abs, times.ravel().tolist()), default=0.0)
    phases = _exp_phases(np.multiply.outer(times, decomp._rates), decomp._half_width * longest)
    phases *= weights
    return phases


def _exp_phases(phases: np.ndarray, bound: float) -> np.ndarray:
    """exp of a block of imaginary phases, in place; ``bound`` is at least the largest |phase|.

    For a bound in (_REDUCE_PHASES_ABOVE, _REDUCE_PHASES_UP_TO] each phase
    is first reduced mod 2 pi, part by part of _TWO_PI_PARTS, and the result
    lies within about 3e-16 of ``exp`` of the phase as given.
    """
    if _REDUCE_PHASES_ABOVE < bound <= _REDUCE_PHASES_UP_TO:
        angles = phases.imag
        turns = np.rint(angles * (0.5 / math.pi))
        for part in _TWO_PI_PARTS:
            angles -= turns * part
    return np.exp(phases, out=phases)


def _derivative_terms(decomp: SpectralDecomposition, from_index: int, to) -> tuple[np.ndarray, np.ndarray]:
    """V[from] and the n x 3T block rates_j^p V[to_k, j] (column p T + k, p < 3) of ``_amplitude_derivatives``."""
    targets = decomp._rows(np.asarray(to)).T
    powers = decomp._rates[:, None] ** np.arange(3)
    return decomp._rows(from_index), (powers[:, :, None] * targets[:, None, :]).reshape(targets.shape[0], -1)


def _amplitude_derivatives(decomp: SpectralDecomposition, terms: tuple[np.ndarray, np.ndarray], t) -> np.ndarray:
    """g, g' and g'' at each time, where g(t) = exp(i Ebar t) f(t) and f is ``propagate``'s amplitude.

    ``terms`` is ``_derivative_terms(decomp, from_index, to)`` and ``t`` 1-D; the
    result has shape (3, len(t), len(to)).  |g| = |f|, so moduli and their
    time derivatives are those of f.
    """
    times = np.asarray(t, dtype=np.float64)
    weights, columns = terms
    series = _phase_block(decomp, weights, times) @ columns
    return series.reshape(times.size, 3, columns.shape[1] // 3).swapaxes(0, 1)


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
    return (t0, dt, count) if deviation <= tolerance else None


def _progression_amplitudes(
    decomp: SpectralDecomposition, weights: np.ndarray, targets: np.ndarray, t0: float, dt: float, count: int
) -> np.ndarray:
    """sum_j exp(rates_j (t0 + k dt)) weights_j targets[..., j] for k < count, rates = decomp._rates.

    With k = a B + b and B = ceil(sqrt(count)), the phase at time k is a
    coarse entry, at t0 + a B dt, times a fine one, at b dt.  Each chunk of
    targets is then one complex GEMM of the C x n coarse table,
    C = ceil(count / B), with the fine entries times weights and targets.  A chunk's operand and product
    stay within the C B n entries of the phase block.  The result has shape
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
    # at least one column, so no targets make an empty loop
    chunk = max(1, min(width, coarse_rows * n // (n + coarse_rows)))
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
