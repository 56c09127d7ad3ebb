"""Scan drivers: fidelity/concurrence versus time, and peak size scans.

A time scan scores a uniform grid of the single-excitation amplitudes, one
array per quantity, and refines the best grid peaks by safeguarded Newton
steps on the closed-form slope and curvature of each series, every lobe in
lockstep.  A size scan keeps only the peaks of time scans over chain sizes
in the complete and double-hole layouts, the data that separates the two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .dynamics import NumericsError, SpectralDecomposition, _amplitude_derivatives, _common_phase, _derivative_terms
from .dynamics import _phase_free_sums, _real, eigendecompose
from .metrics import InitialStateParams, _averaged_fidelity, _checked, _concurrence, _fidelity, _leak, leakage_bound
from .metrics import spectral_overlaps, two_qubit_effective
from .model import ChainGeometry, CouplingModel, _chain_sector, _integer, build_chain_geometry

DEFAULT_GRID_POINTS = 2000

CONFIGURATIONS = ("complete", "double_hole")

# fraction of the dominant-pair transfer period covered by the default window
_WINDOW_PERIODS = 1.5

# grid peaks within this fraction of the series' grid maximum are all refined
# before the winner is chosen, so near-ties are resolved by refined values, not
# by which lobe the grid happened to sample closer to its top
_PEAK_TIE_BAND = 1e-3

# refined crests within this many eps * max(1, |value|) of each other tie, and
# the tie goes to the earliest lobe, so crests equal by symmetry do not trade
# places on last-bit rounding
_REFINED_TIE_ULPS = 4.0

_EPS = float(np.finfo(np.float64).eps)


class Peak(NamedTuple):
    t: float
    value: float


@dataclass(frozen=True, eq=False)
class TimeScanResult:
    """Scored time grid plus refined peaks and channel diagnostics.

    The grid is held as read-only columns, one entry per instant: times, the
    fidelity, averaged fidelity, concurrence and dispersion (the leaked
    weight 1 - |f_ss|^2 - |f_sr|^2), which never exceeds dispersion_bound,
    the bound ``leakage_bound`` gives for all t.  They are the public
    metrics of the held phase-free sums g = exp(i Ebar t) f bit for bit,
    and within 4 eps of those of f.
    The amplitudes f_ss and f_sr, read-only columns too, are formed from g
    on first read, as ``propagate`` forms them; from then on the result
    holds both g and f, 16 * 2G bytes each for G instants.

    delta_eff, dominant_pair and dominant_pair_mass are None when the
    dominant spectral pair is degenerate (possible only when the scan window
    was fixed by other means).
    """

    times: np.ndarray
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
    dispersion_bound: float
    include_zz_diagonal: bool
    # g at (sender, sender) and (sender, receiver), shape (G, 2), and Ebar
    _sums: np.ndarray = field(repr=False)
    _midpoint: float = field(repr=False)

    f_ss = property(lambda self: self._amplitudes[:, 0])
    f_sr = property(lambda self: self._amplitudes[:, 1])

    @cached_property
    def _amplitudes(self) -> np.ndarray:
        amplitudes = _common_phase(self._midpoint, self.times, self._sums)
        amplitudes.setflags(write=False)
        return amplitudes


@dataclass(frozen=True)
class SizeScanRow:
    n_spins: int
    configuration: str
    max_concurrence: float
    t_at_max: float
    max_fidelity: float
    t_at_max_f: float


def _refined_peaks(
    times: np.ndarray,
    series: Sequence[np.ndarray],
    evaluate: Callable[[np.ndarray, np.ndarray], np.ndarray],
    tol_width: float,
) -> list[Peak]:
    """The refined peak of each grid series (all of one length), all lobes searched at once.

    A lobe is an interior local maximum of at least (1 - _PEAK_TIE_BAND)
    times its series' grid maximum; a flat run counts once.  All lobes are
    refined in lockstep by a safeguarded Newton iteration on [t_{k-1},
    t_{k+1}]: ``evaluate(t, which)``, called once per step, returns three
    rows, the value, slope and curvature of series which[i] at probe t[i].
    A lobe starts at its bracket midpoint; each slope's sign moves one end
    of its bracket to the probe.  The next probe is the Newton point
    t - slope / curvature when the curvature is negative and that point lies
    in the bracket, ends included, else the bracket midpoint.  A lobe stops
    when its next probe is t itself (a constant series stays at its
    midpoint), when its last step or its bracket is within ``tol_width``, or
    after the steps bisection needs to bring the widest bracket within
    ``tol_width``.  Its best starts at its grid point; each probe no worse replaces it.

    A series' candidates are its lobes' bests in time order, then its last
    grid point, unrefined.  The earliest candidate within _REFINED_TIE_ULPS
    * eps * max(1, |v|) of the best value v wins, so crests equal up to
    rounding go to the earliest lobe, and the edge wins only by more than
    that band.
    """
    values = np.array(series)
    last = len(times) - 1
    floor = values.max(axis=1, keepdims=True) * (1.0 - _PEAK_TIE_BAND)
    inner = values[:, 1:last]
    crest = (inner >= values[:, : last - 1]) & (inner >= values[:, 2:]) & (inner >= floor)
    # a flat run of equal values is one lobe, kept at its first crest
    crest[:, 1:] &= ~crest[:, :-1] | (inner[:, 1:] != inner[:, :-1])
    # the flat index's quotient is the series, the remainder the crest's index in inner
    which, k = np.divmod(crest.ravel().nonzero()[0], last - 1)
    k += 1
    a, b = times[k - 1], times[k + 1]
    # per lobe: bracket ends a, b, probe t, last step, best t and value, and its series
    rows = np.array((a, b, 0.5 * (a + b), np.full(k.size, np.inf), times[k], values[which, k]))
    lobes = [[*row, i] for row, i in zip(rows.T.tolist(), which.tolist())]
    steps = 1 + max(0, math.ceil(math.log2(float((b - a).max()) / tol_width))) if lobes else 0
    running = lobes
    for _ in range(steps):
        probes = np.array([lobe[2] for lobe in running])
        scores = np.asarray(evaluate(probes, np.array([lobe[6] for lobe in running])))
        if not np.isfinite(scores).all():
            i = int(np.argmin(np.isfinite(scores).all(axis=0)))
            raise NumericsError(f"series evaluator returned {tuple(scores[:, i])!r} at t={probes[i]!r}")
        still = []
        # a few lobes per step: Python floats cost less here than NumPy calls on tiny arrays
        for lobe, value, slope, curvature in zip(running, *scores.tolist()):
            a, b, t, step, best_t, best_v, _ = lobe
            if value >= best_v:
                best_t, best_v = t, value
            # the slope's sign tells which side of t the crest lies on
            if slope > 0.0:
                a = t
            elif slope < 0.0:
                b = t
            newton = t - slope / curvature if curvature < 0.0 else math.nan
            following = newton if a <= newton <= b else 0.5 * (a + b)
            lobe[:6] = a, b, following, abs(following - t), best_t, best_v
            if following != t and step > tol_width and b - a > tol_width:
                still.append(lobe)
        running = still
        if not running:
            break

    peaks = []
    for i, edge in enumerate(values[:, -1].tolist()):
        candidates = [(best_t, best_v) for *_, best_t, best_v, j in lobes if j == i] + [(float(times[-1]), edge)]
        top = max(v for _, v in candidates)
        least = top - _REFINED_TIE_ULPS * _EPS * max(1.0, abs(top))
        peaks.append(Peak(*next(c for c in candidates if c[1] >= least)))
    return peaks


def _score_grid(
    decomp: SpectralDecomposition,
    sender_index: int,
    receiver_index: int,
    params: InitialStateParams,
    times: np.ndarray,
) -> dict[str, np.ndarray]:
    """The TimeScanResult columns for one grid, the phase-free sums among them, as read-only arrays."""
    sums = _phase_free_sums(decomp, sender_index, times, np.array((sender_index, receiver_index)))
    g_ss, g_sr = sums.T
    mod_ss, mod_sr = np.abs(g_ss), np.abs(g_sr)
    # conservation first, a NumericsError for a broken decomposition: it
    # bounds each modulus by sqrt(1 + 1e-10), so the moduli need no other check
    leak = _leak(mod_ss, mod_sr)
    columns = {
        "times": times,
        "_sums": sums,
        "fidelity": _fidelity(mod_sr),
        "averaged_fidelity": _averaged_fidelity(mod_sr),
        "concurrence": _concurrence(params, mod_ss, mod_sr),
        "dispersion": leak,
    }
    for column in columns.values():
        column.setflags(write=False)
    return columns


def _probe_scores(
    decomp: SpectralDecomposition,
    terms: tuple[np.ndarray, np.ndarray],
    params: InitialStateParams,
    t: np.ndarray,
    which: np.ndarray,
) -> np.ndarray:
    """Value, slope and curvature (rows) of fidelity (which 0) or concurrence (which 1) at each t.

    From g, g', g'' at sender and receiver, m = |g|^2 has m' = 2 Re(g* g')
    and m'' = 2 Re(g* g'') + 2 |g'|^2.  F is m at the receiver.  With
    l = m'/m and q = m''/m, C = k sqrt(m_ss m_sr) has C' = C u, where
    u = (l_ss + l_sr) / 2, and C'' = C ((q_ss + q_sr) / 2 + l_ss l_sr - u^2).
    ``terms`` is ``_derivative_terms(decomp, s, (s, r))`` for sender s and receiver r.
    """
    g, dg, _ = derivatives = _amplitude_derivatives(decomp, terms, t)
    # Re(g* g') and Re(g* g''): NumPy's complex product rounds unlike its formula on Python floats
    re_dg, re_d2g = (g.conjugate() * derivatives[1:]).real.tolist()
    mod_ss, mod_sr = np.abs(g).T
    concurrence = _concurrence(params, _checked(mod_ss, "|f_ss|"), _checked(mod_sr))
    columns = which.tolist(), g.tolist(), dg.tolist(), re_dg, re_d2g, _fidelity(mod_sr).tolist(), concurrence.tolist()
    scores = []
    # Python floats cost less than NumPy calls on a step's few probes; x * x, as x ** 2 rounds through pow
    for i, (g_ss, g_sr), (d_ss, d_sr), (p_ss, p_sr), (r_ss, r_sr), f, c in zip(*columns, strict=True):
        curvature_sr = 2.0 * (r_sr + d_sr.real * d_sr.real + d_sr.imag * d_sr.imag)
        if i == 0:
            scores.append((f, 2.0 * p_sr, curvature_sr))
            continue
        curvature_ss = 2.0 * (r_ss + d_ss.real * d_ss.real + d_ss.imag * d_ss.imag)
        m_ss = g_ss.real * g_ss.real + g_ss.imag * g_ss.imag
        m_sr = g_sr.real * g_sr.real + g_sr.imag * g_sr.imag
        # where m = 0 so is C, and its derivatives are taken as 0
        l_ss, q_ss = (2.0 * p_ss / m_ss, curvature_ss / m_ss) if m_ss > 0.0 else (0.0, 0.0)
        l_sr, q_sr = (2.0 * p_sr / m_sr, curvature_sr / m_sr) if m_sr > 0.0 else (0.0, 0.0)
        u = 0.5 * (l_ss + l_sr)
        scores.append((c, c * u, c * (0.5 * (q_ss + q_sr) + l_ss * l_sr - u * u)))
    return np.array(scores).reshape(-1, 3).T


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
    grid_points = _integer(grid_points, "grid_points must be an integer")
    if grid_points < 2:
        raise ValueError(f"grid_points must be >= 2 (got {grid_points})")
    if t_max is not None and not (0.0 < _real("t_max", t_max) < math.inf):
        raise ValueError(f"t_max must be > 0 and finite (got {t_max})")
    params = InitialStateParams(theta=theta, phi=phi)

    # a temporary, so what eigh does not need is freed before it runs
    decomp = eigendecompose(_chain_sector(geometry, model, include_zz_diagonal))
    s = geometry.sender_index
    r = geometry.receiver_index
    overlaps = spectral_overlaps(decomp, s, r)
    gamma_m, dispersion_bound = leakage_bound(overlaps)
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

    evaluate = partial(_probe_scores, decomp, _derivative_terms(decomp, s, (s, r)), params)
    extended = False
    while True:
        times = np.linspace(0.0, t_max, grid_points)
        columns = _score_grid(decomp, s, r, params, times)
        series = (columns["fidelity"], columns["concurrence"])
        peak_f, peak_c = _refined_peaks(times, series, evaluate, 1e-9 * t_max)
        if extended or times[-1] not in (peak_f.t, peak_c.t):
            break
        extended = True
        t_max = 2.0 * t_max

    return TimeScanResult(
        **columns,
        _midpoint=decomp._midpoint,
        peak_fidelity=peak_f,
        peak_concurrence=peak_c,
        t_max=float(t_max),
        extended=extended,
        n_sites=geometry.n_sites,
        delta_eff=delta_eff,
        dominant_pair=dominant_pair,
        dominant_pair_mass=dominant_pair_mass,
        gamma_m=gamma_m,
        dispersion_bound=dispersion_bound,
        include_zz_diagonal=bool(include_zz_diagonal),
    )


def size_scan(
    n_values: Iterable[int],
    model: CouplingModel,
    include_zz_diagonal: bool = True,
    configurations: Sequence[str] = CONFIGURATIONS,
    theta: float = math.pi,
    phi: float = 0.0,
    grid_points: int = DEFAULT_GRID_POINTS,
) -> tuple[SizeScanRow, ...]:
    """Peak concurrence and fidelity versus chain size, as a tuple of rows.

    One row per size and layout, by size, then in CONFIGURATIONS order.  n
    counts occupied spins; the double-hole layout places them on a span of
    n + 2 positions, sender and receiver at the ends.  The model must be
    generative, the configurations a sequence of CONFIGURATIONS names (not
    a bare string) and the sizes a non-empty list of integers
    (``operator.index``) of at least 2, all checked before any scan;
    time_scan checks theta, phi and grid_points at the first scan.
    """
    if model.kind == "custom":
        raise ValueError("size_scan cannot use a custom coupling matrix")
    if isinstance(configurations, str):
        # set() would read a bare name letter by letter
        raise ValueError(f"configurations must be a sequence such as ('double_hole',) (got {configurations!r})")
    chosen = set(configurations)
    unknown = chosen - set(CONFIGURATIONS)
    if unknown:
        raise ValueError(f"unknown configurations: {sorted(unknown)}; expected {CONFIGURATIONS}")
    if not chosen:
        raise ValueError("configurations must not be empty")
    ordered = [c for c in CONFIGURATIONS if c in chosen]
    sizes = []
    for n in n_values:
        sizes.append(_integer(n, "every scanned size must be an integer"))
        if sizes[-1] < 2:
            raise ValueError(f"every scanned size must be >= 2 (got {n})")
    if not sizes:
        raise ValueError("n_values must not be empty")
    rows = []
    for n in sizes:
        for configuration in ordered:
            double_hole = configuration == "double_hole"
            result = time_scan(
                build_chain_geometry(n + 2 if double_hole else n, double_hole=double_hole),
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
    return tuple(rows)
