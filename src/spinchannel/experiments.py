"""Scan drivers: fidelity/concurrence versus time, and peak size scans.

A time scan evolves the single-excitation amplitudes on a uniform grid,
scores the whole grid at once with the metrics module (one array per
quantity), and refines the best grid peaks by golden-section search.  The
search runs every candidate lobe of the fidelity and of the concurrence in
lockstep, so each of its steps is one ``propagate`` call over all probes,
however many lobes there are.  A size scan repeats this over a range of
chain sizes for complete and double-hole layouts and keeps only the peak
data, which is the quantity that separates the two layouts as the chain
grows.
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

CONFIGURATIONS = ("complete", "double_hole")

# fraction of the dominant-pair transfer period covered by the default window
_WINDOW_PERIODS = 1.5

# grid peaks this close to the global grid maximum are all refined before the
# winner is chosen, so near-ties are resolved by refined values, not by which
# lobe the grid happened to sample closer to its top
_PEAK_TIE_BAND = 1e-3

# refined crests within this many eps * max(1, |value|) of each other tie, and
# the tie goes to the earliest lobe, so crests equal by symmetry do not trade
# places on last-bit rounding
_REFINED_TIE_ULPS = 4.0

_EPS = float(np.finfo(np.float64).eps)

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


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


def _refined_peaks(
    times: np.ndarray,
    series: Sequence[np.ndarray],
    evaluate: Callable[[np.ndarray, np.ndarray], np.ndarray],
    tol_width: float,
) -> list[Peak]:
    """The refined peak of each grid series, all lobes searched at once.

    A lobe is an interior local maximum within _PEAK_TIE_BAND of its
    series' grid maximum; a flat run counts once.  Every lobe of every
    series is refined in lockstep by golden-section search over
    [t_{k-1}, t_{k+1}] down to ``tol_width``; ``evaluate(t, which)`` scores
    probe t[i] on series which[i] and is called once per step.  A lobe
    makes one fresh probe per step, two on an exact tie, where both ends
    move in so a constant series resolves to the bracket midpoint.

    Per series, a grid point beats a worse refinement, and the last grid
    point joins the lobes as one more, unrefined, candidate, the only one
    at times[-1].  The earliest candidate within _REFINED_TIE_ULPS * eps *
    max(1, |v|) of the best value v wins, so crests equal up to rounding go
    to the earliest lobe, and the edge wins only by more than that band.
    """
    last = len(times) - 1
    lobes = []
    for values in series:
        vmax = float(values.max())
        tie_cut = vmax - _PEAK_TIE_BAND * max(1.0, abs(vmax))
        inner = values[1:last]
        crest = (inner >= values[: last - 1]) & (inner >= values[2:]) & (inner >= tie_cut)
        # a flat run of equal values is one lobe, kept at its first crest
        crest[1:] &= ~crest[:-1] | (inner[1:] != inner[:-1])
        lobes.append(np.flatnonzero(crest) + 1)
    which = np.repeat(np.arange(len(series)), [k.size for k in lobes])
    k = np.concatenate(lobes)
    if not k.size:
        return [Peak(float(times[-1]), float(values[-1])) for values in series]

    a, b = times[k - 1], times[k + 1]
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    best_t = np.full(k.size, np.nan)
    best_v = np.full(k.size, -np.inf)

    def probe(on_c: np.ndarray, on_d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Score c of the lobes on_c and d of the lobes on_d in one evaluate call."""
        t = np.concatenate((c[on_c], d[on_d]))
        scores = evaluate(t, which[np.concatenate((on_c, on_d))])
        bad = np.flatnonzero(~np.isfinite(scores))
        if bad.size:
            raise NumericsError(f"series evaluator returned {scores[bad[0]]!r} at t={t[bad[0]]!r}")
        # c probes count before d probes, as one lobe's own search sees them
        for owners, points, values in ((on_c, c, scores[: on_c.size]), (on_d, d, scores[on_c.size :])):
            better = values > best_v[owners]
            best_t[owners[better]] = points[owners[better]]
            best_v[owners[better]] = values[better]
        return scores[: on_c.size], scores[on_c.size :]

    # the brackets all span two grid steps, so they share one iteration count
    n_iter = math.ceil(math.log(tol_width / float((b - a).max())) / math.log(_INV_PHI))
    active = b - a > tol_width
    on = np.flatnonzero(active)
    fc, fd = np.full(k.size, -np.inf), np.full(k.size, -np.inf)
    fc[on], fd[on] = probe(on, on)
    for _ in range(n_iter):
        active &= b - a > tol_width
        if not active.any():
            break
        new_c = active & ~(fd > fc)
        new_d = active & ~(fc > fd)
        # fc > fd keeps [a, d], fd > fc keeps [c, b], a tie keeps [c, d]
        a, b = np.where(new_d, c, a), np.where(new_c, d, b)
        c, d = np.where(new_d, d, c), np.where(new_c, c, d)
        fc, fd = np.where(new_d, fd, fc), np.where(new_c, fc, fd)
        c = np.where(new_c, b - _INV_PHI * (b - a), c)
        d = np.where(new_d, a + _INV_PHI * (b - a), d)
        fc[new_c], fd[new_d] = probe(np.flatnonzero(new_c), np.flatnonzero(new_d))
    # the final midpoint competes as one more c probe and wins ties
    c = 0.5 * (a + b)
    mid_v, _ = probe(np.arange(k.size), np.arange(0))
    refined_t = np.where(mid_v >= best_v, c, best_t)
    # a grid point beats a worse refinement
    grid_v = np.concatenate([values[lobe] for values, lobe in zip(series, lobes)])
    refined_t = np.where(best_v < grid_v, times[k], refined_t)
    refined_v = np.maximum(best_v, grid_v)

    peaks = []
    for i, values in enumerate(series):
        t = np.append(refined_t[which == i], times[-1])
        v = np.append(refined_v[which == i], values[-1])
        top = float(v.max())
        first = int(np.argmax(v >= top - _REFINED_TIE_ULPS * _EPS * max(1.0, abs(top))))
        peaks.append(Peak(float(t[first]), float(v[first])))
    return peaks


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
        delta_eff, dominant_pair, dominant_pair_mass = two_qubit_effective(decomp, overlaps)
    except NumericsError:
        if t_max is None and model.kind != "mirror_periodic":
            raise
        delta_eff = dominant_pair = dominant_pair_mass = None

    if t_max is None:
        if model.kind == "mirror_periodic":
            t_max = 2.0 * math.pi / model.lam
        else:
            t_max = _WINDOW_PERIODS * (math.pi / delta_eff)

    def score_probes(t: np.ndarray, which: np.ndarray) -> np.ndarray:
        f_ss, f_sr = propagate(decomp, s, t, to=(s, r)).T
        return np.choose(which, (transfer_fidelity(f_sr), concurrence_closed_form(params, f_ss, f_sr)))

    extended = False
    while True:
        times = np.linspace(0.0, t_max, grid_points)
        columns = _score_grid(decomp, s, r, params, times)
        series = (columns["fidelity"], columns["concurrence"])
        peak_f, peak_c = _refined_peaks(times, series, score_probes, 1e-9 * t_max)
        if extended or times[-1] not in (peak_f.t, peak_c.t):
            break
        extended = True
        t_max = 2.0 * t_max

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
    configurations: Sequence[str] = CONFIGURATIONS,
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
    unknown = chosen - set(CONFIGURATIONS)
    if unknown:
        raise ValueError(f"unknown configurations: {sorted(unknown)}; expected {CONFIGURATIONS}")
    if not chosen:
        raise ValueError("configurations must not be empty")
    ordered = [c for c in CONFIGURATIONS if c in chosen]
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
