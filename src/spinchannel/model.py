"""Chain geometries, coupling models, and Hamiltonians for spin-1/2 chains.

A chain is a set of spins pinned at integer lattice positions.  Two special
sites act as sender and receiver of a quantum state.  Every pair of spins
(i, j) interacts through an Ising-like exchange

    H = sum_{i != j} J_ij (S_i . S_j - 3 S_i^z S_j^z)

whose restriction to the single-excitation sector is an N x N matrix: the
hopping part moves the excitation between sites with amplitude J_ij, while
the S^z S^z part contributes a site-dependent diagonal.  The module builds
both the sector matrix and, for small N, the full 2^N Hamiltonian used as a
cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Full-space construction is exponential in the number of sites; past this
# size the 2^N x 2^N matrix is no longer a practical cross-check (at the cap
# the dense matrix takes 128 MiB, at 14 sites it would take 2 GiB).
FULL_SPACE_MAX_SITES = 12

COUPLING_KINDS = ("power_law", "mirror_periodic", "custom")


@dataclass(frozen=True)
class ChainGeometry:
    """Occupied lattice positions plus the sender/receiver assignment.

    Positions are 1-based integers on a regular lattice of unit spacing.
    Holes (removed sites) are simply absent from ``positions``.
    """

    positions: tuple[int, ...]
    sender_pos: int
    receiver_pos: int

    def __post_init__(self) -> None:
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
    removed.
    """
    if receiver_pos is None:
        receiver_pos = span
    if span < 2:
        raise ValueError(f"span must be >= 2 (got {span})")
    if not (1 <= sender_pos < receiver_pos <= span):
        raise ValueError(
            f"need 1 <= sender < receiver <= span "
            f"(got sender={sender_pos}, receiver={receiver_pos}, span={span})"
        )
    holes: set[int] = set()
    if double_hole:
        if receiver_pos - sender_pos < 2:
            raise ValueError(
                "double-hole layout needs receiver - sender >= 2 "
                f"(got {receiver_pos - sender_pos})"
            )
        holes = {sender_pos + 1, receiver_pos - 1}
    positions = tuple(p for p in range(1, span + 1) if p not in holes)
    return ChainGeometry(positions, sender_pos, receiver_pos)


@dataclass(frozen=True)
class CouplingModel:
    """How pairwise couplings J_ij are generated from the geometry.

    kind = "power_law":       J_ij = strength_c / (spacing_a * |p_i - p_j|)**nu
    kind = "mirror_periodic": J_{i,i+1} = (lam / 2) * sqrt(i (N - i)), else 0
    kind = "custom":          entries taken verbatim from ``custom_matrix``
    """

    kind: str
    nu: float = 3.0
    strength_c: float = 1.0
    spacing_a: float = 1.0
    lam: float = 2.0
    custom_matrix: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.kind not in COUPLING_KINDS:
            raise ValueError(f"unknown coupling kind {self.kind!r}; expected one of {COUPLING_KINDS}")
        if self.kind == "power_law":
            if self.nu <= 0:
                raise ValueError(f"nu must be > 0 (got {self.nu})")
            if self.strength_c <= 0:
                raise ValueError(f"strength_c must be > 0 (got {self.strength_c})")
            if self.spacing_a <= 0:
                raise ValueError(f"spacing_a must be > 0 (got {self.spacing_a})")
        elif self.kind == "mirror_periodic":
            if self.lam <= 0:
                raise ValueError(f"lam must be > 0 (got {self.lam})")
        elif self.kind == "custom":
            if self.custom_matrix is None:
                raise ValueError("custom coupling model needs a custom_matrix")

    @classmethod
    def power_law(cls, nu: float = 3.0, strength_c: float = 1.0, spacing_a: float = 1.0) -> "CouplingModel":
        return cls(kind="power_law", nu=nu, strength_c=strength_c, spacing_a=spacing_a)

    @classmethod
    def mirror_periodic(cls, lam: float = 2.0) -> "CouplingModel":
        return cls(kind="mirror_periodic", lam=lam)

    @classmethod
    def custom(cls, matrix: np.ndarray) -> "CouplingModel":
        return cls(kind="custom", custom_matrix=np.asarray(matrix, dtype=np.float64))


@dataclass(frozen=True)
class CouplingMatrix:
    """Symmetric matrix of pair couplings with an exactly zero diagonal."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        entries = np.asarray(self.entries, dtype=np.float64)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise ValueError(f"coupling matrix must be square (got shape {entries.shape})")
        if not np.all(np.isfinite(entries)):
            raise ValueError("coupling matrix has non-finite entries")
        if not np.array_equal(entries, entries.T):
            raise ValueError("coupling matrix must be exactly symmetric")
        if np.any(np.diagonal(entries) != 0.0):
            raise ValueError("coupling matrix diagonal must be exactly zero")
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)

    @property
    def n_sites(self) -> int:
        return self.entries.shape[0]


def power_law_couplings(geometry: ChainGeometry, model: CouplingModel) -> CouplingMatrix:
    """J_ij = C / (a d_ij)**nu with d_ij the lattice distance between sites.

    The power is taken once per distance d = 1..span-1 and gathered by the
    integer distance matrix; distance 0 (the diagonal) maps to 0.
    """
    if model.kind != "power_law":
        raise ValueError(f"expected a power_law model (got {model.kind!r})")
    pos = np.asarray(geometry.positions)
    dist = np.abs(pos[:, None] - pos[None, :])
    d = np.arange(1, pos[-1] - pos[0] + 1, dtype=np.float64)
    table = np.concatenate(([0.0], model.strength_c / (model.spacing_a * d) ** model.nu))
    return CouplingMatrix(table[dist])


def mirror_periodic_couplings(n_sites: int, lam: float = 2.0) -> CouplingMatrix:
    """Nearest-neighbour profile J_{i,i+1} = (lam/2) sqrt(i (N - i)), i = 1..N-1.

    This mirror-symmetric modulation makes the hopping spectrum exactly
    linear, so the chain transfers a state perfectly at t = pi / lam.
    """
    if n_sites < 2:
        raise ValueError(f"n_sites must be >= 2 (got {n_sites})")
    if lam <= 0:
        raise ValueError(f"lam must be > 0 (got {lam})")
    i = np.arange(1, n_sites, dtype=np.float64)
    profile = 0.5 * lam * np.sqrt(i * (n_sites - i))
    entries = np.zeros((n_sites, n_sites))
    entries[np.arange(n_sites - 1), np.arange(1, n_sites)] = profile
    entries[np.arange(1, n_sites), np.arange(n_sites - 1)] = profile
    return CouplingMatrix(entries)


def build_couplings(geometry: ChainGeometry, model: CouplingModel) -> CouplingMatrix:
    """Build the coupling matrix for a geometry under the given model."""
    if model.kind == "power_law":
        return power_law_couplings(geometry, model)
    if model.kind == "mirror_periodic":
        return mirror_periodic_couplings(geometry.n_sites, model.lam)
    # custom: entries are taken as-is; they must match the geometry size
    matrix = CouplingMatrix(model.custom_matrix)
    if matrix.n_sites != geometry.n_sites:
        raise ValueError(
            f"custom coupling matrix is {matrix.n_sites}x{matrix.n_sites} "
            f"but the geometry has {geometry.n_sites} sites"
        )
    return matrix


def load_coupling_matrix(path: str | Path) -> CouplingMatrix:
    """Read a coupling matrix from a whitespace-separated text file.

    Format: first non-empty line holds N, followed by N lines of N reals.
    Entries may deviate from exact symmetry by at most 1e-12 (they are
    symmetrized); the diagonal must be zero to the same tolerance.
    """
    tokens_per_line = []
    for line_no, line in enumerate(Path(path).read_text().splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if stripped:
            tokens_per_line.append((line_no, stripped.split()))
    if not tokens_per_line:
        raise ValueError(f"{path}: empty coupling file")
    header_no, header = tokens_per_line[0]
    if len(header) != 1:
        raise ValueError(f"{path}:{header_no}: first line must hold a single integer N")
    try:
        n = int(header[0])
    except ValueError:
        raise ValueError(f"{path}:{header_no}: first line must hold a single integer N") from None
    if n < 2:
        raise ValueError(f"{path}:{header_no}: N must be >= 2 (got {n})")
    rows = tokens_per_line[1:]
    if len(rows) != n:
        raise ValueError(f"{path}: expected {n} matrix rows, found {len(rows)}")
    entries = np.empty((n, n))
    for r, (line_no, tokens) in enumerate(rows):
        if len(tokens) != n:
            raise ValueError(f"{path}:{line_no}: expected {n} entries, found {len(tokens)}")
        try:
            entries[r] = [float(tok) for tok in tokens]
        except ValueError:
            raise ValueError(f"{path}:{line_no}: entries must be real numbers") from None
    if not np.all(np.isfinite(entries)):
        raise ValueError(f"{path}: matrix entries must be finite")
    asym = np.max(np.abs(entries - entries.T))
    if asym > 1e-12:
        raise ValueError(f"{path}: matrix asymmetry {asym:.3e} exceeds 1e-12")
    diag = np.max(np.abs(np.diagonal(entries)))
    if diag > 1e-12:
        raise ValueError(f"{path}: matrix diagonal magnitude {diag:.3e} exceeds 1e-12")
    entries = 0.5 * (entries + entries.T)
    np.fill_diagonal(entries, 0.0)
    return CouplingMatrix(entries)


@dataclass(frozen=True)
class SectorHamiltonian:
    """Single-excitation block of the interaction, as a real symmetric matrix."""

    matrix: np.ndarray
    include_zz_diagonal: bool

    def __post_init__(self) -> None:
        matrix = np.asarray(self.matrix, dtype=np.float64)
        matrix.setflags(write=False)
        object.__setattr__(self, "matrix", matrix)

    @property
    def n_sites(self) -> int:
        return self.matrix.shape[0]


def sector_hamiltonian(couplings: CouplingMatrix, include_zz_diagonal: bool = True) -> SectorHamiltonian:
    """Restrict the interaction to states with exactly one excitation.

    Off-diagonal elements are the hopping amplitudes J_nm.  With the S^z S^z
    part kept, site n acquires the diagonal energy

        H_nn = 2 sum_{j != n} J_nj - sum_{i<j} J_ij

    This is an absolute energy, not one measured from the zero-excitation
    state: in full_hamiltonian that vacuum sits at -sum_{i<j} J_ij, and the
    one-excitation block of the full matrix equals this matrix.  Measured
    from the vacuum the diagonal would be 2 sum_{j != n} J_nj.  Without the
    S^z S^z part the sector matrix is the bare hopping matrix of an XY chain.
    """
    J = couplings.entries
    matrix = J.copy()
    if include_zz_diagonal:
        row_sums = J.sum(axis=1)
        np.fill_diagonal(matrix, 2.0 * row_sums - 0.5 * row_sums.sum())
    return SectorHamiltonian(matrix, include_zz_diagonal)


def full_hamiltonian(couplings: CouplingMatrix, include_zz_diagonal: bool = True) -> np.ndarray:
    """The full 2^N matrix of sum_{i<j} J_ij (flip-flop - 4 S_i^z S_j^z), read-only.

    Basis states are bit strings; bit k set means site k carries an
    excitation.  The flip-flop term hops excitations between sites with
    amplitude J_ij, and the S^z S^z term (when kept) adds +J_ij for pairs
    with differing occupation and -J_ij for pairs with equal occupation.
    Intended for cross-checks against the sector matrix, so the size is
    capped at FULL_SPACE_MAX_SITES sites.
    """
    n = couplings.n_sites
    if n > FULL_SPACE_MAX_SITES:
        raise ValueError(
            f"full-space build is capped at {FULL_SPACE_MAX_SITES} sites (got {n})"
        )
    J = couplings.entries
    dim = 1 << n
    matrix = np.zeros((dim, dim))
    basis = np.arange(dim)
    diagonal = np.zeros(dim)
    for i in range(n):
        for j in range(i + 1, n):
            if J[i, j] == 0.0 and not include_zz_diagonal:
                continue
            bit_i = (basis >> i) & 1
            bit_j = (basis >> j) & 1
            differ = bit_i != bit_j
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
