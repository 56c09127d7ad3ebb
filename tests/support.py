"""Shared builders for the test suite."""

import tracemalloc
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


def count_certifications(monkeypatch) -> list:
    """Record every CouplingMatrix whose entries get checked from now on."""
    certified = []
    check = sc.CouplingMatrix.__post_init__

    def counting(self):
        certified.append(self)
        check(self)

    monkeypatch.setattr(sc.CouplingMatrix, "__post_init__", counting)
    return certified


def count_scan_decompositions(monkeypatch) -> list:
    """Record every matrix the scans of ``experiments`` pass to ``eigendecompose`` from now on."""
    calls = []
    decompose = sc.experiments.eigendecompose

    def counting(hamiltonian):
        calls.append(hamiltonian)
        return decompose(hamiltonian)

    monkeypatch.setattr(sc.experiments, "eigendecompose", counting)
    return calls


def traced_peak(fn):
    """Call fn() under tracemalloc: its result, the peak bytes traced during the call, the bytes held after it."""
    tracemalloc.start()
    try:
        result = fn()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak, held


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


def transposed_mirror_test(matrix: np.ndarray) -> bool:
    """The mirror test ``eigendecompose`` used before its row-pair form.

    For symmetric H, H - P H P has the entries of A - A^T with A = H P, H
    with its columns reversed; the test bounds their magnitudes by the same
    tolerance, _MIRROR_TOLERANCE_EPS * eps * max|H|.
    """
    reversed_columns = matrix[:, ::-1]
    scale = max(float(matrix.max()), -float(matrix.min()))
    tolerance = sc.dynamics._MIRROR_TOLERANCE_EPS * np.finfo(np.float64).eps * scale
    return bool(np.abs(reversed_columns - reversed_columns.T).max() <= tolerance)


def array_probe_scores(decomp, terms, params, t, which) -> np.ndarray:
    """The probe scores ``_probe_scores`` gave before it worked on Python floats.

    The same formulas, each evaluated over the probes as one NumPy array
    expression: squares as ``**2``, the products Re(g* g') and Re(g* g'')
    one complex product each, and the rows chosen by ``np.where``.
    """
    metrics = sc.metrics
    g, slope_g, curvature_g = sc.dynamics._amplitude_derivatives(decomp, terms, t)
    conjugate = g.conjugate()
    m = g.real**2 + g.imag**2
    slope = 2.0 * (conjugate * slope_g).real
    curvature = 2.0 * ((conjugate * curvature_g).real + slope_g.real**2 + slope_g.imag**2)
    positive = m > 0.0
    l_ss, l_sr = np.divide(slope, m, out=np.zeros(m.shape), where=positive).T
    q_ss, q_sr = np.divide(curvature, m, out=np.zeros(m.shape), where=positive).T
    u = 0.5 * (l_ss + l_sr)
    mod_ss, mod_sr = np.abs(g).T
    c = metrics._concurrence(params, metrics._checked(mod_ss, "|f_ss|"), metrics._checked(mod_sr))
    fidelity = which == 0
    return np.array(
        (
            np.where(fidelity, metrics._fidelity(mod_sr), c),
            np.where(fidelity, slope[:, 1], c * u),
            np.where(fidelity, curvature[:, 1], c * (0.5 * (q_ss + q_sr) + l_ss * l_sr - u * u)),
        )
    )
