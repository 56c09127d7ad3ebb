"""Shared builders for the test suite."""

from decimal import Decimal, localcontext

import numpy as np

import spinchannel as sc


def two_site_model(J: float) -> sc.CouplingModel:
    """A bare two-site chain with coupling J (exactly solvable)."""
    return sc.CouplingModel.custom(np.array([[0.0, J], [J, 0.0]]))


def dh_geometry(n_spins: int) -> sc.ChainGeometry:
    """Double-hole layout with n_spins occupied sites, ends as sender/receiver."""
    return sc.build_chain_geometry(n_spins + 2, 1, n_spins + 2, double_hole=True)


def geometry_matrix() -> list[tuple[str, sc.ChainGeometry, sc.CouplingModel]]:
    """The standing test matrix: complete, double-hole, and mirror chains."""
    dipolar = sc.CouplingModel.power_law()
    cases = []
    for n in (2, 3, 6, 10):
        cases.append((f"complete{n}", sc.build_chain_geometry(n), dipolar))
    for n in (4, 6, 10):
        cases.append((f"dh{n}", dh_geometry(n), dipolar))
    cases.append(("mirror10", sc.build_chain_geometry(10), sc.CouplingModel.mirror_periodic(lam=2.0)))
    return cases


def random_symmetric(n: int, rng: np.random.Generator) -> np.ndarray:
    raw = rng.normal(size=(n, n))
    return 0.5 * (raw + raw.T)


def random_couplings(n: int, rng: np.random.Generator) -> sc.CouplingMatrix:
    entries = np.abs(random_symmetric(n, rng)) + 0.1
    entries = 0.5 * (entries + entries.T)
    np.fill_diagonal(entries, 0.0)
    return sc.CouplingMatrix(entries)


# 2 pi to 64 significant digits; the string is converted exactly
_TWO_PI = Decimal("6.283185307179586476925286766559005768394338798750211641949889184615")


def reference_amplitudes(decomp: sc.SpectralDecomposition, from_index: int, times, to=None) -> np.ndarray:
    """``propagate`` on a 1-D array of times with every phase E_j t reduced mod 2 pi exactly.

    Each product of the two float64 values E_j and t is formed and reduced
    in 60-digit decimal arithmetic, so the phases are exact to float64
    rounding however large E_j t is; only the final cos/sin and the sum over
    j round.  The result has shape ``(len(times),) + shape(to)``, as
    ``propagate`` gives.
    """
    V = decomp.eigenvectors
    targets = V if to is None else V[np.asarray(to)]
    energies = [Decimal(e) for e in decomp.eigenvalues.tolist()]
    rows = []
    with localcontext() as ctx:
        ctx.prec = 60
        for t in np.asarray(times, dtype=np.float64).tolist():
            angles = np.array([float((e * Decimal(t)) % _TWO_PI) for e in energies])
            rows.append((V[from_index] * np.exp(-1j * angles)) @ targets.T)
    return np.array(rows)
