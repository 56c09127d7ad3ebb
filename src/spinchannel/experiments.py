"""Scan drivers: fidelity/concurrence versus time, and peak size scans.

A time scan evolves the single-excitation amplitudes on a uniform grid,
scores the whole grid at once with the metrics module (one array per
quantity), and refines the best grid peaks by golden-section search.  A
size scan repeats this over a range of chain sizes for complete and
double-hole layouts and keeps only the peak data, which is the quantity
that separates the two layouts as the chain grows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .dynamics import NumericsError, SpectralDecomposition, eigendecompose, propagate
from .metrics import (
    InitialStateParams,
    averaged_fidelity,
    concurrence_closed_form,
    leaked_weight,
    leakage_bound,
    spectral_overlaps,
    transfer_fidelity,
    two_qubit_effective,
)
from .model import ChainGeometry, CouplingModel, build_chain_geometry, build_couplings, sector_hamiltonian

DEFAULT_GRID_POINTS = 2000

# fraction of the dominant-pair transfer period covered by the default window
_WINDOW_PERIODS = 1.5

# grid peaks this close to the global grid maximum are all refined before the
# winner is chosen, so near-ties are resolved by refined values, not by which
# lobe the grid happened to sample closer to its top
_PEAK_TIE_BAND = 1e-3

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0

_CONFIGURATIONS = ("complete", "double_hole")


class Peak(NamedTuple):
    t: float
    value: float


@dataclass(frozen=True)
class TimeScanResult:
    """Scored time grid plus refined peaks and channel diagnostics.

    The grid is held as read-only columns, one entry per instant: times, the
    amplitudes f_ss and f_sr, the fidelity, averaged fidelity, concurrence
    and dispersion (the leaked weight 1 - |f_ss|^2 - |f_sr|^2).

    delta_eff, dominant_pair and dominant_pair_mass are None when the
    dominant spectral pair is degenerate (possible only when the scan window
    was fixed by other means).
    """

    times: np.ndarray
    f_ss: np.ndarray
    f_sr: np.ndarray
    fidelity: np.ndarray
    averaged_fidelity: np.ndarray
    concurrence: np.ndarray
    dispersion: np.ndarray
    peak_fidelity: Peak
    peak_concurrence: Peak
    t_max: float
    extended: bool
    n_sites: int
    delta_eff: float | None
    dominant_pair: tuple[int, int] | None
    dominant_pair_mass: float | None
    gamma_m: float


@dataclass(frozen=True)
class SizeScanRow:
    n_spins: int
    configuration: str
    max_concurrence: float
    t_at_max: float
    max_fidelity: float
    t_at_max_f: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.max_concurrence <= 1.0 and 0.0 <= self.max_fidelity <= 1.0):
            raise ValueError("peak values must lie in [0, 1]")


@dataclass(frozen=True)
class SizeScanResult:
    rows: tuple[SizeScanRow, ...]


def refine_peak(
    evaluator: Callable[[float], float],
    bracket: tuple[float, float],
    tol_width: float | None = None,
) -> Peak:
    """Golden-section maximization of ``evaluator`` inside ``bracket``.

    Shrinks the bracket to ``tol_width`` (default 1e-6 times the bracket's
    time scale) and returns the best point found.  On an exact tie between
    the two probes both ends are pulled in symmetrically, so a constant
    series resolves to the bracket midpoint.
    """
    t_lo, t_hi = float(bracket[0]), float(bracket[1])
    if not (t_hi > t_lo):
        raise ValueError(f"bracket must satisfy t_lo < t_hi (got {bracket})")
    if tol_width is None:
        tol_width = 1e-6 * max(abs(t_lo), abs(t_hi), 1.0)
    if tol_width <= 0.0:
        raise ValueError(f"tol_width must be > 0 (got {tol_width})")

    best_t = math.nan
    best_v = -math.inf

    def probe(t: float) -> float:
        nonlocal best_t, best_v
        value = float(evaluator(t))
        if not math.isfinite(value):
            raise NumericsError(f"series evaluator returned {value!r} at t={t!r}")
        if value > best_v:
            best_t, best_v = t, value
        return value

    a, b = t_lo, t_hi
    if b - a > tol_width:
        span = b - a
        n_iter = math.ceil(math.log(tol_width / span) / math.log(_INV_PHI))
        c = b - _INV_PHI * (b - a)
        d = a + _INV_PHI * (b - a)
        fc = probe(c)
        fd = probe(d)
        for _ in range(n_iter):
            if fc > fd:
                b, d, fd = d, c, fc
                c = b - _INV_PHI * (b - a)
                fc = probe(c)
            elif fd > fc:
                a, c, fc = c, d, fd
                d = a + _INV_PHI * (b - a)
                fd = probe(d)
            else:
                # exact tie: shrink symmetrically so plateaus keep their center
                a, b = c, d
                c = b - _INV_PHI * (b - a)
                d = a + _INV_PHI * (b - a)
                fc = probe(c)
                fd = probe(d)
            if b - a <= tol_width:
                break
    mid = 0.5 * (a + b)
    mid_value = probe(mid)
    if mid_value >= best_v:
        return Peak(mid, mid_value)
    return Peak(best_t, best_v)


def _interior_peak(
    times: np.ndarray,
    values: np.ndarray,
    evaluator: Callable[[float], float],
    tol_width: float,
) -> Peak | None:
    """Refine the near-maximal interior grid lobes and pick the winner.

    Every interior local maximum within _PEAK_TIE_BAND of the global grid
    maximum is refined; the largest refined value wins and exact ties go to
    the earliest lobe.  Returns None when the grid has no interior local
    maximum in the band (a series still rising at the window edge).
    """
    vmax = float(values.max())
    tie_cut = vmax - _PEAK_TIE_BAND * max(1.0, abs(vmax))
    last = len(values) - 1
    best: Peak | None = None
    k = 1
    while k < last:
        if values[k] >= values[k - 1] and values[k] >= values[k + 1] and values[k] >= tie_cut:
            refined = refine_peak(evaluator, (times[k - 1], times[k + 1]), tol_width)
            if refined.value < values[k]:
                refined = Peak(float(times[k]), float(values[k]))
            if best is None or refined.value > best.value:
                best = refined
            # a flat run is one lobe; jump to its right edge
            while k + 1 < last and values[k + 1] == values[k]:
                k += 1
        k += 1
    return best


def _score_grid(
    decomp: SpectralDecomposition,
    sender_index: int,
    receiver_index: int,
    params: InitialStateParams,
    times: np.ndarray,
) -> dict[str, np.ndarray]:
    """The TimeScanResult columns for one grid, as read-only arrays."""
    f_ss, f_sr = propagate(decomp, sender_index, times, to=(sender_index, receiver_index)).T
    # conservation first: a broken decomposition is a NumericsError, not a
    # metric's out-of-range ValueError
    leak = leaked_weight(f_ss, f_sr)
    columns = {
        "times": times,
        "f_ss": f_ss,
        "f_sr": f_sr,
        "fidelity": transfer_fidelity(f_sr),
        "averaged_fidelity": averaged_fidelity(f_sr),
        "concurrence": concurrence_closed_form(params, f_ss, f_sr),
        "dispersion": leak,
    }
    for column in columns.values():
        column.setflags(write=False)
    return columns


def time_scan(
    geometry: ChainGeometry,
    model: CouplingModel,
    include_zz_diagonal: bool = True,
    theta: float = math.pi,
    phi: float = 0.0,
    t_max: float | None = None,
    grid_points: int = DEFAULT_GRID_POINTS,
) -> TimeScanResult:
    """Score fidelity and concurrence on [0, t_max] and refine the peaks.

    When t_max is not given it defaults to 1.5 transfer periods of the
    dominant spectral pair (2*pi/lam for mirror-periodic chains, whose
    transfer time is known exactly).  A best value sitting on the right
    window edge triggers a single rescan over the doubled window.
    """
    if grid_points < 2:
        raise ValueError(f"grid_points must be >= 2 (got {grid_points})")
    if t_max is not None and not (t_max > 0.0):
        raise ValueError(f"t_max must be > 0 (got {t_max})")

    couplings = build_couplings(geometry, model)
    decomp = eigendecompose(sector_hamiltonian(couplings, include_zz_diagonal))
    s = geometry.sender_index
    r = geometry.receiver_index
    params = InitialStateParams(theta=theta, phi=phi)

    overlaps = spectral_overlaps(decomp, s, r)
    gamma_m, _bound = leakage_bound(overlaps)
    delta_eff: float | None
    dominant_pair: tuple[int, int] | None
    dominant_pair_mass: float | None
    try:
        prediction, _residuals, dominant_pair = two_qubit_effective(decomp, overlaps)
        delta_eff = prediction.delta
        sig_sq = overlaps.sigma**2
        dominant_pair_mass = float(sig_sq[dominant_pair[0]] + sig_sq[dominant_pair[1]])
    except NumericsError:
        if t_max is None and model.kind != "mirror_periodic":
            raise
        prediction = None
        delta_eff = None
        dominant_pair = None
        dominant_pair_mass = None

    if t_max is None:
        if model.kind == "mirror_periodic":
            t_max = 2.0 * math.pi / model.lam
        else:
            t_max = _WINDOW_PERIODS * prediction.transfer_time

    def fidelity_at(t: float) -> float:
        return transfer_fidelity(propagate(decomp, s, t, to=r))

    def concurrence_at(t: float) -> float:
        f_ss, f_sr = propagate(decomp, s, t, to=(s, r))
        return concurrence_closed_form(params, f_ss, f_sr)

    extended = False
    while True:
        times = np.linspace(0.0, t_max, grid_points)
        columns = _score_grid(decomp, s, r, params, times)
        f_values = columns["fidelity"]
        c_values = columns["concurrence"]
        tol_width = 1e-9 * t_max
        peak_f = _interior_peak(times, f_values, fidelity_at, tol_width)
        peak_c = _interior_peak(times, c_values, concurrence_at, tol_width)
        edge_beats = any(
            peak is None or values[-1] > peak.value
            for peak, values in ((peak_f, f_values), (peak_c, c_values))
        )
        if edge_beats and not extended:
            extended = True
            t_max = 2.0 * t_max
            continue
        if peak_f is None or f_values[-1] > peak_f.value:
            peak_f = Peak(float(times[-1]), float(f_values[-1]))
        if peak_c is None or c_values[-1] > peak_c.value:
            peak_c = Peak(float(times[-1]), float(c_values[-1]))
        break

    return TimeScanResult(
        **columns,
        peak_fidelity=peak_f,
        peak_concurrence=peak_c,
        t_max=float(t_max),
        extended=extended,
        n_sites=geometry.n_sites,
        delta_eff=delta_eff,
        dominant_pair=dominant_pair,
        dominant_pair_mass=dominant_pair_mass,
        gamma_m=gamma_m,
    )


def _layout_geometry(n_spins: int, configuration: str) -> ChainGeometry:
    if configuration == "complete":
        return build_chain_geometry(n_spins, 1, n_spins, double_hole=False)
    # double_hole: n_spins occupied sites on a span of n_spins + 2 positions
    return build_chain_geometry(n_spins + 2, 1, n_spins + 2, double_hole=True)


def size_scan(
    n_values: Iterable[int],
    model: CouplingModel,
    include_zz_diagonal: bool = True,
    configurations: Sequence[str] = _CONFIGURATIONS,
    theta: float = math.pi,
    phi: float = 0.0,
    grid_points: int = DEFAULT_GRID_POINTS,
) -> SizeScanResult:
    """Peak concurrence and fidelity versus chain size, one row per layout.

    n counts occupied spins in both layouts; the double-hole layout places
    them on a lattice span of n + 2 so sender and receiver sit at the ends
    with one hole inside each end of the chain.
    """
    if model.kind == "custom":
        raise ValueError("size scans need a generative coupling model, not a custom matrix")
    chosen = set(configurations)
    unknown = chosen - set(_CONFIGURATIONS)
    if unknown:
        raise ValueError(f"unknown configurations: {sorted(unknown)}; expected {_CONFIGURATIONS}")
    if not chosen:
        raise ValueError("configurations must not be empty")
    ordered = [c for c in _CONFIGURATIONS if c in chosen]
    rows = []
    for n in n_values:
        n = int(n)
        if n < 2:
            raise ValueError(f"every scanned size must be >= 2 (got {n})")
        for configuration in ordered:
            geometry = _layout_geometry(n, configuration)
            result = time_scan(
                geometry,
                model,
                include_zz_diagonal=include_zz_diagonal,
                theta=theta,
                phi=phi,
                grid_points=grid_points,
            )
            rows.append(
                SizeScanRow(
                    n_spins=n,
                    configuration=configuration,
                    max_concurrence=result.peak_concurrence.value,
                    t_at_max=result.peak_concurrence.t,
                    max_fidelity=result.peak_fidelity.value,
                    t_at_max_f=result.peak_fidelity.t,
                )
            )
    return SizeScanResult(tuple(rows))
