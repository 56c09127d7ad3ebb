"""Chain geometries, coupling models, and Hamiltonians for spin-1/2 chains.

A chain is a set of spins pinned at integer lattice positions.  Two special
sites act as sender and receiver of a quantum state.  Every pair of spins
(i, j) interacts through an Ising-like exchange

    H = sum_{i != j} J_ij (S_i . S_j - 3 S_i^z S_j^z)

whose restriction to the single-excitation sector is an N x N matrix: the
hopping part moves the excitation between sites with amplitude J_ij, while
the S^z S^z part contributes a site-dependent diagonal.  The module builds
that sector matrix; the full 2^N Hamiltonian it reduces is built only by
the tests, as a cross-check.
"""

from __future__ import annotations

import operator
import re
from collections.abc import Iterator
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path

import numpy as np

from .dynamics import _PANEL_ROWS, _asymmetry, _ParityBlocks, _real

COUPLING_KINDS = ("power_law", "mirror_periodic", "custom")

# Generated mirror chains with at least this many sites are diagonalized as two
# half-size parity blocks (``_chain_sector``); below it a dense eigh takes well
# under a millisecond, and small chains keep the outputs of the single call.
MIRROR_SPLIT_MIN_SITES = 64

# whether a coupling-file line holds a token before any "#", as str.split() finds tokens
_HOLDS_A_TOKEN = re.compile(r"\s*[^\s#]").match


@dataclass(frozen=True)
class ChainGeometry:
    """Occupied lattice positions plus the sender/receiver assignment.

    Positions are 1-based integers on a regular lattice of unit spacing.
    Holes (removed sites) are simply absent from ``positions``.  Positions,
    sender and receiver pass ``operator.index`` and are held as ints.
    """

    positions: tuple[int, ...]
    sender_pos: int
    receiver_pos: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "positions", tuple(_integer(p, "positions must be integers") for p in self.positions))
        for name in ("sender_pos", "receiver_pos"):
            object.__setattr__(self, name, _integer(getattr(self, name), f"{name} must be an integer"))
        if len(self.positions) < 2:
            raise ValueError(
                f"a chain needs at least 2 occupied sites (got {len(self.positions)})"
            )
        if len(set(self.positions)) != len(self.positions):
            raise ValueError("occupied positions must be distinct")
        if any(p < 1 for p in self.positions):
            raise ValueError("positions are 1-based; all must be >= 1")
        if list(self.positions) != sorted(self.positions):
            raise ValueError("positions must be in increasing order")
        for label, pos in (("sender", self.sender_pos), ("receiver", self.receiver_pos)):
            if pos not in self.positions:
                raise ValueError(f"{label} position {pos} is not an occupied site")
        if self.sender_pos == self.receiver_pos:
            raise ValueError("sender and receiver must be different sites")

    @property
    def n_sites(self) -> int:
        return len(self.positions)

    @property
    def sender_index(self) -> int:
        """Index of the sender in the occupied-site ordering."""
        return self.positions.index(self.sender_pos)

    @property
    def receiver_index(self) -> int:
        """Index of the receiver in the occupied-site ordering."""
        return self.positions.index(self.receiver_pos)


def build_chain_geometry(
    span: int,
    sender_pos: int = 1,
    receiver_pos: int | None = None,
    double_hole: bool = False,
) -> ChainGeometry:
    """Lay out a chain on lattice positions 1..span.

    With ``double_hole=True`` the sites adjacent to sender and receiver
    (sender_pos + 1 and receiver_pos - 1) are removed, which suppresses the
    dominant nearest-neighbour leakage channels at both ends.  When sender
    and receiver sit 2 apart the two holes coincide and a single site is
    removed.  Span, sender and receiver must be integers (``operator.index``),
    ``double_hole`` a boolean (``_flag``).
    """
    span = _integer(span, "span must be an integer")
    sender_pos = _integer(sender_pos, "sender_pos must be an integer")
    receiver_pos = span if receiver_pos is None else _integer(receiver_pos, "receiver_pos must be an integer")
    if not (1 <= sender_pos < receiver_pos <= span):
        raise ValueError(
            f"need 1 <= sender < receiver <= span "
            f"(got sender={sender_pos}, receiver={receiver_pos}, span={span})"
        )
    holes: set[int] = set()
    if _flag("double_hole", double_hole):
        if receiver_pos - sender_pos < 2:
            raise ValueError(
                "double-hole layout needs receiver - sender >= 2 "
                f"(got {receiver_pos - sender_pos})"
            )
        holes = {sender_pos + 1, receiver_pos - 1}
    positions = tuple(p for p in range(1, span + 1) if p not in holes)
    return ChainGeometry(positions, sender_pos, receiver_pos)


def _integer(value, message: str) -> int:
    """``operator.index(value)``, or a ValueError of ``message`` naming the value."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{message} (got {value!r})") from None


@dataclass(frozen=True)
class CouplingModel:
    """How pairwise couplings J_ij are generated from the geometry.

    kind = "power_law":       J_ij = strength_c / |p_i - p_j|**nu
    kind = "mirror_periodic": J_{i,i+1} = (lam / 2) * sqrt(i (N - i)), else 0
    kind = "custom":          entries taken verbatim from ``custom_matrix``

    A custom model holds a CouplingMatrix, checked here once if an array is
    given; any other kind takes none.  Every kind checks that nu, strength_c
    and lam are finite reals > 0, so every power-law coupling is finite.
    """

    kind: str = "power_law"
    nu: float = 3.0
    strength_c: float = 1.0
    lam: float = 2.0
    custom_matrix: CouplingMatrix | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.kind not in COUPLING_KINDS:
            raise ValueError(f"unknown coupling kind {self.kind!r}; expected one of {COUPLING_KINDS}")
        for name in ("nu", "strength_c", "lam"):
            if not 0.0 < _real(name, getattr(self, name)) < np.inf:
                raise ValueError(f"{name} must be > 0 and finite (got {getattr(self, name)})")
        if self.kind == "custom":
            if self.custom_matrix is None:
                raise ValueError("custom coupling model needs a custom_matrix")
            if not isinstance(self.custom_matrix, CouplingMatrix):
                object.__setattr__(self, "custom_matrix", CouplingMatrix(self.custom_matrix))
        elif self.custom_matrix is not None:
            raise ValueError(f"a {self.kind} coupling model takes no custom_matrix")

    @classmethod
    def power_law(cls, nu: float = 3.0, strength_c: float = 1.0) -> "CouplingModel":
        return cls(kind="power_law", nu=nu, strength_c=strength_c)

    @classmethod
    def mirror_periodic(cls, lam: float = 2.0) -> "CouplingModel":
        return cls(kind="mirror_periodic", lam=lam)

    @classmethod
    def custom(cls, matrix: np.ndarray | CouplingMatrix) -> "CouplingModel":
        return cls(kind="custom", custom_matrix=matrix)


@dataclass(frozen=True, eq=False)
class CouplingMatrix:
    """Symmetric matrix of pair couplings with an exactly zero diagonal.

    A float64 array is held itself, read-only, so the caller's array cannot be
    written past the check (a view's base still can); any other is copied.
    """

    entries: np.ndarray

    def __post_init__(self) -> None:
        entries = np.asarray(self.entries, dtype=np.float64)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise ValueError(f"coupling matrix must be square (got shape {entries.shape})")
        if not _asymmetry(entries) <= 0.0:
            if not np.isfinite(entries).all():
                raise ValueError("coupling matrix has non-finite entries")
            raise ValueError("coupling matrix must be exactly symmetric")
        _check_diagonal(entries)
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)

    def __reduce__(self):
        # pickle and copy.deepcopy rebuild through the constructor, so every copy is checked and read-only
        return (CouplingMatrix, (self.entries,))

    @property
    def n_sites(self) -> int:
        return self.entries.shape[0]


def _check_diagonal(entries: np.ndarray) -> None:
    if (np.diagonal(entries) != 0.0).any():
        raise ValueError("coupling matrix diagonal must be exactly zero")


def build_couplings(geometry: ChainGeometry, model: CouplingModel) -> CouplingMatrix:
    """Build the coupling matrix for a geometry under the given model (see CouplingModel).

    power_law takes the power once per lattice distance and gathers J from
    that table a panel of rows at a time, with no n x n distance matrix.
    mirror_periodic makes the hopping spectrum exactly linear, so the chain
    transfers a state perfectly at t = pi / lam.  custom returns the model's
    own CouplingMatrix, checked when the model was made, after checking its
    size against the geometry.
    """
    if model.kind == "power_law":
        pos = np.asarray(geometry.positions)
        table = _power_law_table(pos, model)
        entries = np.empty((pos.size, pos.size))
        for lo in range(0, pos.size, _PANEL_ROWS):
            entries[lo : lo + _PANEL_ROWS] = table[np.abs(pos[lo : lo + _PANEL_ROWS, None] - pos)]
        return CouplingMatrix(entries)
    if model.kind == "mirror_periodic":
        n = geometry.n_sites
        i = np.arange(1, n, dtype=np.float64)
        with np.errstate(over="ignore"):
            profile = 0.5 * model.lam * np.sqrt(i * (n - i))
        entries = np.zeros((n, n))
        entries[np.arange(n - 1), np.arange(1, n)] = profile
        entries[np.arange(1, n), np.arange(n - 1)] = profile
        return CouplingMatrix(entries)
    n = model.custom_matrix.n_sites
    if n != geometry.n_sites:
        raise ValueError(f"custom coupling matrix is {n}x{n} but the geometry has {geometry.n_sites} sites")
    return model.custom_matrix


def _power_law_table(pos: np.ndarray, model: CouplingModel) -> np.ndarray:
    """strength_c / d^nu by lattice distance d, 0 at d = 0; a d^nu past the float range gives 0, unwarned."""
    d = np.arange(1, pos[-1] - pos[0] + 1, dtype=np.float64)
    with np.errstate(over="ignore"):
        return np.concatenate(([0.0], model.strength_c / d**model.nu))


def load_coupling_matrix(path: str | Path) -> CouplingMatrix:
    """Read a coupling matrix from a whitespace-separated text file.

    Format: first non-empty line holds N, followed by N lines of N reals.
    Entries may deviate from exact symmetry by at most 1e-12 (they are
    symmetrized); the diagonal must be zero to the same tolerance.

    The file is read once, as UTF-8 with any leading byte-order mark
    skipped, and ``np.loadtxt`` reads the rows, so an entry is a real as
    NumPy reads it.  A wrong row count is reported before a bad row, and a
    bad row names its line.  Memory grows with the rows read, not with the
    N a header claims: about one N x N array.
    """
    with open(path, encoding="utf-8-sig") as file:
        # str.splitlines per line, so the lines and their numbers are those of the whole text's splitlines
        lines = enumerate(chain.from_iterable(map(str.splitlines, file)), start=1)
        rows = (numbered for numbered in lines if _HOLDS_A_TOKEN(numbered[1]))
        line_no, line = next(rows, (0, ""))
        if not line:
            raise ValueError(f"{path}: empty coupling file")
        try:
            (token,) = _tokens(line)
            n = int(_plain(token))
        except ValueError:
            raise ValueError(f"{path}:{line_no}: first line must hold a single integer N") from None
        if n < 2:
            raise ValueError(f"{path}:{line_no}: N must be >= 2 (got {n})")
        found, last, entries = 0, None, None

        def handed() -> Iterator[str]:
            # np.loadtxt takes one line at a time, so the last line handed over is the one it failed on
            nonlocal found, last
            for last in rows:
                found += 1
                yield last[1]
                if found == n:
                    return

        matrix_rows = handed()
        first = next(matrix_rows, None)
        if first is not None and len(_tokens(first)) == n:
            try:
                entries = np.loadtxt(chain((first,), matrix_rows), comments="#", ndmin=2)
            except ValueError:
                pass
        # the rows past those handed over are counted, not held
        found += sum(1 for _ in rows)
    if found != n:
        raise ValueError(f"{path}: expected {n} matrix rows, found {found}")
    if entries is None:
        line_no, line = last
        width = len(_tokens(line))
        if width != n:
            raise ValueError(f"{path}:{line_no}: expected {n} entries, found {width}")
        raise ValueError(f"{path}:{line_no}: entries must be real numbers")
    asymmetry = _asymmetry(entries)
    if not asymmetry <= 1e-12:
        if not np.isfinite(entries).all():
            raise ValueError(f"{path}: matrix entries must be finite")
        raise ValueError(f"{path}: matrix asymmetry {asymmetry:.3e} exceeds 1e-12")
    diag = np.max(np.abs(np.diagonal(entries)))
    if diag > 1e-12:
        raise ValueError(f"{path}: matrix diagonal magnitude {diag:.3e} exceeds 1e-12")
    # halved before the sum, so entries near the float maximum do not overflow; summed in place, a panel's
    # rows and columns from its first row on, which no later panel reads, so no second n x n array is made
    entries *= 0.5
    for lo in range(0, n, _PANEL_ROWS):
        panel = entries[lo : lo + _PANEL_ROWS, lo:] + entries[lo:, lo : lo + _PANEL_ROWS].T
        entries[lo : lo + _PANEL_ROWS, lo:] = panel
        entries[lo:, lo : lo + _PANEL_ROWS] = panel.T
    np.fill_diagonal(entries, 0.0)
    return CouplingMatrix(entries)


def _plain(token: str) -> str:
    """``token``, or a ValueError unless it is ASCII without "_", as ``np.loadtxt`` reads numbers.

    ``int`` and ``float`` alone would also read ``1_0`` and non-ASCII digits.
    """
    if not token.isascii() or "_" in token:
        raise ValueError(token)
    return token


def _tokens(line: str) -> list[str]:
    """The tokens of a coupling-file line before any "#", as ``str.split`` finds them."""
    return line.split("#", 1)[0].split()


def sector_hamiltonian(couplings: CouplingMatrix, include_zz_diagonal: bool = True) -> np.ndarray:
    """Restrict the interaction to states with exactly one excitation: a new read-only N x N array.

    Off-diagonal elements are the hopping amplitudes J_nm.  With the S^z S^z
    part kept, site n acquires the diagonal energy

        H_nn = 2 sum_{j != n} J_nj - sum_{i<j} J_ij

    This is an absolute energy, not one measured from the zero-excitation
    state: in the full 2^N matrix that vacuum sits at -sum_{i<j} J_ij, and
    its one-excitation block equals this matrix.  Measured from the vacuum
    the diagonal would be 2 sum_{j != n} J_nj.  Without the S^z S^z part
    the sector matrix is the bare hopping matrix of an XY chain.
    Couplings whose sums overflow the diagonal are a ValueError.
    """
    _flag("include_zz_diagonal", include_zz_diagonal)
    J = couplings.entries
    # a write since J's check: eigendecompose sees it unless it is on the diagonal, so that is checked here
    _check_diagonal(J)
    matrix = J.copy()
    if include_zz_diagonal:
        # finite couplings can still sum past the float range; _zz_diagonal judges that
        with np.errstate(over="ignore"):
            row_sums = J.sum(axis=1)
        np.fill_diagonal(matrix, _zz_diagonal(row_sums))
    matrix.setflags(write=False)
    return matrix


def _flag(name: str, value) -> bool:
    """``value`` if it is True or False (a NumPy boolean too), else a ValueError naming ``name``, whatever its truth."""
    if not isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{name} must be True or False (got {value!r})")
    return value


def _zz_diagonal(row_sums: np.ndarray) -> np.ndarray:
    """The S^z S^z diagonal 2 sum_j J_nj - sum_{i<j} J_ij from J's row sums; a ValueError unless it is finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        diagonal = 2.0 * row_sums - 0.5 * row_sums.sum()
    if not np.isfinite(diagonal).all():
        raise ValueError("the couplings' row sums overflow: the diagonal 2 sum_j J_nj - sum_{i<j} J_ij is not finite")
    return diagonal


def _chain_sector(
    geometry: ChainGeometry, model: CouplingModel, include_zz_diagonal: bool = True
) -> np.ndarray | _ParityBlocks:
    """``sector_hamiltonian(build_couplings(geometry, model), include_zz_diagonal)``, for ``eigendecompose``.

    The one place that decides whether a chain is split.  A generated chain
    of at least MIRROR_SPLIT_MIN_SITES sites whose J equals its own site
    reversal exactly comes instead as the parity blocks of that matrix, bit
    for bit, folded from panels of J's first ceil(n/2) rows: every
    mirror-periodic chain, its panels rows of its J, and every power-law
    chain on mirror-symmetric positions (p_i + p_{n-1-i} the same for every
    i), its panels gathered from the distance table with no n x n J or H.
    Row n-1-i of J is row i reversed, so its sum is taken on a reversed
    copy, as ``J.sum(axis=1)`` takes it.  Custom couplings are never split.
    """
    pos = np.asarray(geometry.positions)
    n, m = pos.size, pos.size // 2
    mirror = model.kind == "mirror_periodic" or (
        model.kind == "power_law" and (pos + pos[::-1] == pos[0] + pos[-1]).all()
    )
    if not (mirror and n >= MIRROR_SPLIT_MIN_SITES):
        return sector_hamiltonian(build_couplings(geometry, model), include_zz_diagonal)
    J = build_couplings(geometry, model).entries if model.kind == "mirror_periodic" else None
    table = _power_law_table(pos, model) if J is None else None
    _flag("include_zz_diagonal", include_zz_diagonal)
    blocks, row_sums = _ParityBlocks(n), np.empty(n)
    for lo in range(0, n - m, _PANEL_ROWS):
        hi = min(lo + _PANEL_ROWS, n - m)
        panel = J[lo:hi] if table is None else table[np.abs(pos[lo:hi, None] - pos)]
        if include_zz_diagonal:
            k = min(len(panel), m - lo)
            # finite couplings can still sum past the float range; _zz_diagonal judges that
            with np.errstate(over="ignore"):
                row_sums[lo:hi] = panel.sum(axis=1)
                row_sums[n - lo - k : n - lo] = panel[:k, ::-1].copy().sum(axis=1)[::-1]
        blocks.fold(panel, lo)
    return blocks.checked(_zz_diagonal(row_sums) if include_zz_diagonal else None)
