"""Time scans, peak refinement, and size scans."""

import dataclasses
import math
import re

import numpy as np
import pytest

import spinchannel as sc
from spinchannel import cli, dynamics, experiments
from spinchannel.experiments import _refined_peaks
from support import (
    array_probe_scores,
    count_certifications,
    count_scan_decompositions,
    dh_geometry,
    random_couplings,
    reference_amplitudes,
    traced_peak,
    two_site_model,
)


# ---------------------------------------------------------------- peak refinement


def _refine_one(times, evaluator, tol_width):
    """The refined peak of one series: evaluator maps an array of times to
    the rows value, slope and curvature."""
    times = np.asarray(times, dtype=float)
    (peak,) = _refined_peaks(times, (evaluator(times)[0],), lambda t, which: evaluator(t), tol_width)
    return peak


def test_refine_peak_known_maximizer():
    # the one lobe's bracket is the grid neighbors (2.5, 3.8)
    peak = _refine_one(
        [2.5, 3.15, 3.8],
        lambda t: (np.sin(t / 2.0) ** 2, 0.5 * np.sin(t), 0.5 * np.cos(t)),
        1e-6 * 3.8,
    )
    assert abs(peak.t - math.pi) <= 1e-5
    assert peak.value == pytest.approx(1.0, abs=1e-10)


def test_refine_peak_constant_series_returns_midpoint():
    peak = _refine_one(
        [1.0, 2.5, 3.0], lambda t: (np.full(t.shape, 0.25), np.zeros(t.shape), np.zeros(t.shape)), 1e-6 * 3.0
    )
    assert peak.t == pytest.approx(2.0, abs=1e-6)
    assert peak.value == 0.25


def test_refine_peak_two_site_concurrence():
    J = 0.5
    geo = sc.build_chain_geometry(2)
    coupl = sc.build_couplings(geo, two_site_model(J))
    decomp = sc.eigendecompose(sc.sector_hamiltonian(coupl, True))
    params = sc.InitialStateParams()

    terms = dynamics._derivative_terms(decomp, 0, (0, 1))

    def concurrence_at(t):
        return experiments._probe_scores(decomp, terms, params, t, np.ones(t.shape, dtype=int))

    half_period = math.pi / (2.0 * 2.0 * J)  # T/2 with T = pi/(2J)
    times = [half_period - 0.4, half_period + 0.1, half_period + 0.4]
    peak = _refine_one(times, concurrence_at, 1e-6 * (half_period + 0.4))
    assert abs(peak.t - half_period) <= 1e-5
    assert peak.value == pytest.approx(1.0, abs=1e-12)


def test_refine_peak_rejects_bad_input():
    times, values = np.array([0.0, 0.5, 1.0]), np.array([0.0, 1.0, 0.0])
    for bad in range(3):
        scores = np.zeros((3, 1))
        scores[bad] = math.inf
        with pytest.raises(sc.NumericsError):
            _refined_peaks(times, (values,), lambda t, which: scores, 1e-6)


def test_refined_peaks_of_two_series_with_interleaved_lobes():
    # each series is the upper envelope of parabolas h - (t - p)^2 / 32 on a
    # grid of step 1/2, so every probe, Newton point and crest value is exact
    alpha = 1.0 / 32.0
    h = 0.8
    tied = np.nextafter(np.nextafter(np.nextafter(h, 1.0), 1.0), 1.0)
    pieces = (
        # lobes at 4.625 and on the grid point 8.5, then a rise to 0.9 at the last grid point
        ((4.625, 0.8999), (8.5, 0.8998), (11.0, 0.9 + alpha)),
        # crests at 2.125 and on the grid point 7.0, the later one 3 ulps higher
        ((2.125, h), (7.0, tied)),
    )
    calls = []

    def evaluate(t, which):
        calls.append(list(zip(t.tolist(), which.tolist())))
        rows = []
        for time, series in zip(t.tolist(), which.tolist()):
            p, top = max(pieces[series], key=lambda piece: piece[1] - alpha * (time - piece[0]) ** 2)
            rows.append((top - alpha * (time - p) ** 2, -2.0 * alpha * (time - p), -2.0 * alpha))
        return np.array(rows).T

    times = np.linspace(0.0, 10.0, 21)
    series = [evaluate(times, np.full(times.size, i))[0] for i in (0, 1)]
    calls.clear()
    peak_f, peak_c = _refined_peaks(times, series, evaluate, 1e-9 * 10.0)
    # the grid-point crests stop after one step, the others after two
    assert calls == [[(4.5, 0), (8.5, 0), (2.0, 1), (7.0, 1)], [(4.625, 0), (2.125, 1)]]
    # series 0: both lobes stay below its last grid point
    assert peak_f == (10.0, series[0][-1])
    # series 1: the later crest is higher, but within the tie band, so the earlier one wins
    assert peak_c == (2.125, h)


def test_probe_scores_slope_and_curvature_match_differences():
    rng = np.random.default_rng(5)
    decomp = sc.eigendecompose(sc.sector_hamiltonian(random_couplings(8, rng)))
    params = sc.InitialStateParams(theta=2.0, phi=0.3)
    t = rng.uniform(0.5, 20.0, size=6)
    h = 1e-3
    terms = dynamics._derivative_terms(decomp, 0, (0, 7))
    for which in (0, 1):
        pick = np.full(t.shape, which)
        value, slope, curvature = experiments._probe_scores(decomp, terms, params, t, pick)
        far_below, below, above, far_above = (
            experiments._probe_scores(decomp, terms, params, t + k * h, pick)[0] for k in (-2, -1, 1, 2)
        )
        # fourth-order central differences
        d1 = (far_below - 8.0 * below + 8.0 * above - far_above) / (12.0 * h)
        d2 = (-far_below + 16.0 * below - 30.0 * value + 16.0 * above - far_above) / (12.0 * h * h)
        assert np.max(np.abs(slope - d1)) <= 1e-6 * np.max(np.abs(slope))
        assert np.max(np.abs(curvature - d2)) <= 1e-6 * np.max(np.abs(curvature))


def test_probe_scores_are_bit_for_bit_those_of_the_array_formulas():
    # squares as x ** 2 or Re(g* g') as a sum of float products each differ in
    # the last bit on a few of these probe sets
    rng = np.random.default_rng(20)
    cases = []
    for _ in range(400):
        n = int(rng.integers(6, 15))
        s, r = rng.choice(n, size=2, replace=False).tolist()
        cases.append((sc.eigendecompose(sc.sector_hamiltonian(random_couplings(n, rng))), s, r, 30.0))
    geo = dh_geometry(200)
    decomp = sc.eigendecompose(sc.model._chain_sector(geo, sc.CouplingModel.power_law()))
    s, r = geo.sender_index, geo.receiver_index
    delta, _pair, _mass = sc.two_qubit_effective(decomp, sc.spectral_overlaps(decomp, s, r))
    cases += [(decomp, s, r, experiments._WINDOW_PERIODS * math.pi / delta)] * 100
    for decomp, s, r, t_max in cases:
        terms = dynamics._derivative_terms(decomp, s, (s, r))
        params = sc.InitialStateParams(theta=float(rng.uniform(0.0, math.pi)))
        t = rng.uniform(0.0, t_max, size=5)
        which = rng.integers(0, 2, size=5)
        expected = array_probe_scores(decomp, terms, params, t, which)
        scores = experiments._probe_scores(decomp, terms, params, t, which)
        assert scores.shape == expected.shape
        assert scores.tobytes() == expected.tobytes(), (decomp.n, s, r, t, which)


# ---------------------------------------------------------------- time_scan


def test_time_scan_two_site_exact_times():
    J = 0.5
    result = sc.time_scan(sc.build_chain_geometry(2), two_site_model(J))
    T = math.pi / (2.0 * J)
    assert abs(result.peak_fidelity.t - T) <= 1e-5
    assert result.peak_fidelity.value == pytest.approx(1.0, abs=1e-9)
    assert abs(result.peak_concurrence.t - T / 2.0) <= 1e-5
    assert result.peak_concurrence.value == pytest.approx(1.0, abs=1e-9)
    assert result.delta_eff == pytest.approx(2.0 * J, rel=1e-12)
    assert not result.extended


def test_time_scan_symmetric_edge_crest_does_not_extend():
    # the default window of a two-site chain ends on a concurrence crest equal
    # by symmetry to the first; last-bit rounding must not extend it
    rng = np.random.default_rng(7)
    for k in range(40):
        J = float(rng.uniform(0.1, 3.0))
        result = sc.time_scan(
            sc.build_chain_geometry(2),
            two_site_model(J),
            include_zz_diagonal=bool(k % 2),
            theta=float(rng.uniform(0.1, math.pi)),
            phi=float(rng.uniform(0.0, 6.0)),
            grid_points=int(rng.integers(20, 2000)),
        )
        assert not result.extended
        assert abs(result.peak_concurrence.t - math.pi / (4.0 * J)) <= 1e-6


def test_time_scan_dh_ten_site_peaks():
    result = sc.time_scan(dh_geometry(10), sc.CouplingModel.power_law())
    assert result.peak_fidelity.value >= 0.99
    assert result.peak_concurrence.value >= 0.99
    # entanglement peaks at half the transfer time
    ratio = result.peak_concurrence.t / (result.peak_fidelity.t / 2.0)
    assert abs(ratio - 1.0) <= 0.05
    assert result.dominant_pair_mass >= 0.99


def test_time_scan_mirror_periodic_contrast():
    result = sc.time_scan(
        sc.build_chain_geometry(10),
        sc.CouplingModel.mirror_periodic(lam=2.0),
        include_zz_diagonal=False,
    )
    assert abs(result.peak_fidelity.t - math.pi / 2.0) <= 1e-6
    assert result.peak_fidelity.value == pytest.approx(1.0, abs=1e-9)
    assert result.peak_concurrence.value <= 0.1


def test_interior_peak_ulp_tie_goes_to_earliest_crest():
    # crests at t = 1 (height 1) and t = 3 (one ulp higher)
    higher = float(np.nextafter(1.0, 2.0))

    def scores(t):
        first = t < 2.0
        return (
            np.where(first, 1.0 - (t - 1.0) ** 2, higher - (t - 3.0) ** 2),
            np.where(first, -2.0 * (t - 1.0), -2.0 * (t - 3.0)),
            np.full(t.shape, -2.0),
        )

    peak = _refine_one(np.linspace(0.0, 4.0, 41), scores, 1e-9)
    assert peak.t == pytest.approx(1.0, abs=1e-6)


def test_time_scan_mirror_symmetric_crests_report_earliest():
    # concurrence crests at pi/4 and 3pi/4 are equal by symmetry
    result = sc.time_scan(
        sc.build_chain_geometry(10),
        sc.CouplingModel.mirror_periodic(lam=2.0),
        include_zz_diagonal=False,
        theta=1.1,
        phi=0.4,
    )
    assert result.peak_concurrence.t == pytest.approx(math.pi / 4.0, abs=1e-6)


def test_time_scan_window_extension():
    J = 0.5
    T = math.pi / (2.0 * J)
    result = sc.time_scan(sc.build_chain_geometry(2), two_site_model(J), t_max=0.5 * T)
    assert result.extended
    assert result.t_max == pytest.approx(T, rel=1e-12)
    assert result.peak_fidelity.value == pytest.approx(1.0, abs=1e-9)


def test_time_scan_peaks_dominate_samples():
    for geo, model, zz in (
        (dh_geometry(6), sc.CouplingModel.power_law(), True),
        (sc.build_chain_geometry(7), sc.CouplingModel.power_law(), True),
        (sc.build_chain_geometry(2), two_site_model(2.0), True),
        (sc.build_chain_geometry(14), sc.CouplingModel.mirror_periodic(lam=1.0), False),
    ):
        result = sc.time_scan(geo, model, include_zz_diagonal=zz)
        f_best = result.fidelity.max()
        c_best = result.concurrence.max()
        assert result.peak_fidelity.value >= f_best
        assert result.peak_concurrence.value >= c_best
        # each peak is its own series at its reported time, not the other one
        decomp = sc.eigendecompose(sc.model._chain_sector(geo, model, zz))
        s, r = geo.sender_index, geo.receiver_index
        t_f, t_c = result.peak_fidelity.t, result.peak_concurrence.t
        f_sr = sc.propagate(decomp, s, t_f, to=r)
        assert result.peak_fidelity.value == pytest.approx(sc.transfer_fidelity(f_sr), abs=1e-12)
        f_ss, f_sr = sc.propagate(decomp, s, t_c, to=(s, r))
        c_at = sc.concurrence_closed_form(sc.InitialStateParams(), f_ss, f_sr)
        assert result.peak_concurrence.value == pytest.approx(c_at, abs=1e-12)


def _count_evaluations(monkeypatch):
    """Record every grid-sum and derivative-helper call a time scan makes."""
    calls = []
    for name in ("_phase_free_sums", "_amplitude_derivatives"):
        real = getattr(experiments, name)

        def counting(*args, _real=real, _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(experiments, name, counting)
    return calls


def test_propagate_calls_per_scan_do_not_grow_with_lobes(monkeypatch):
    # each Newton step scores all lobes in one derivative-helper call; over
    # 40 pi the 14-site mirror chain has 28 lobes of F and C within the band
    calls = _count_evaluations(monkeypatch)
    for t_max, bound in ((None, 32), (40.0 * math.pi, 8)):
        calls.clear()
        result = sc.time_scan(
            sc.build_chain_geometry(14),
            sc.CouplingModel.mirror_periodic(lam=1.0),
            include_zz_diagonal=False,
            t_max=t_max,
        )
        assert not result.extended
        assert len(calls) <= bound, t_max


def test_refinement_steps_per_window_on_double_hole_chains(monkeypatch):
    calls = _count_evaluations(monkeypatch)
    for n in range(6, 15):
        calls.clear()
        result = sc.time_scan(dh_geometry(n), sc.CouplingModel.power_law())
        windows = 2 if result.extended else 1
        assert calls.count("_amplitude_derivatives") <= 10 * windows, n


def test_refinement_stops_on_a_crest_at_its_bracket_end(monkeypatch):
    # mirror chains reach F = 1 at pi / lam; once a probe lands there to
    # rounding, the Newton point sits on the bracket end and ends the search
    calls = _count_evaluations(monkeypatch)
    for n in range(6, 15):
        calls.clear()
        result = sc.time_scan(
            sc.build_chain_geometry(n), sc.CouplingModel.mirror_periodic(lam=2.0), include_zz_diagonal=False
        )
        assert result.peak_fidelity.t == pytest.approx(math.pi / 2.0, abs=1e-9)
        assert calls.count("_amplitude_derivatives") <= 4, n


def test_time_scan_peaks_are_local_maxima():
    # a reported peak sits on a crest of its own series: no neighbor at
    # +-h = 1e-3 grid steps is higher
    model = sc.CouplingModel.power_law()
    params = sc.InitialStateParams()
    for n in range(9, 15):
        geo = sc.build_chain_geometry(n)
        result = sc.time_scan(geo, model)
        decomp = sc.eigendecompose(sc.model._chain_sector(geo, model))
        s, r = geo.sender_index, geo.receiver_index
        h = 1e-3 * (result.times[1] - result.times[0])
        for peak, score in (
            (result.peak_fidelity, lambda f_ss, f_sr: sc.transfer_fidelity(f_sr)),
            (result.peak_concurrence, lambda f_ss, f_sr: sc.concurrence_closed_form(params, f_ss, f_sr)),
        ):
            around = score(*sc.propagate(decomp, s, peak.t + np.array([-h, 0.0, h]), to=(s, r)).T)
            assert np.all(around[[0, 2]] <= around[1] + 1e-12), (n, peak)


def test_time_scan_zero_theta_concurrence_stays_at_first_crest():
    # theta = 0 sends no excitation: C is 0 everywhere, one flat lobe at
    # times[1] that refinement leaves at its bracket midpoint
    result = sc.time_scan(dh_geometry(6), sc.CouplingModel.power_law(), theta=0.0)
    assert result.peak_concurrence.value == 0.0
    assert result.peak_concurrence.t == result.times[1]


def test_time_scan_sample_fields_are_consistent():
    result = sc.time_scan(dh_geometry(4), sc.CouplingModel.power_law(), grid_points=200)
    columns = (
        result.times,
        result.f_ss,
        result.f_sr,
        result.fidelity,
        result.averaged_fidelity,
        result.concurrence,
        result.dispersion,
    )
    assert all(column.shape == (200,) and not column.flags.writeable for column in columns)
    assert result.times[0] == 0.0
    assert result.times[-1] == pytest.approx(result.t_max, rel=1e-15)
    params = sc.InitialStateParams()
    for k in range(0, 200, 37):
        f_ss, f_sr = complex(result.f_ss[k]), complex(result.f_sr[k])
        assert result.fidelity[k] == pytest.approx(abs(f_sr) ** 2, abs=1e-12)
        assert result.concurrence[k] == pytest.approx(
            sc.concurrence_closed_form(params, f_ss, f_sr), abs=1e-12
        )
        total = abs(f_ss) ** 2 + abs(f_sr) ** 2 + result.dispersion[k]
        assert total == pytest.approx(1.0, abs=1e-10)
        assert result.dispersion[k] <= result.dispersion_bound + 1e-12
    # the prefix bound never exceeds its empty prefix (1) nor its full one (at most n_sites * gamma_m)
    assert 0.0 <= result.dispersion_bound <= min(1.0, result.n_sites * result.gamma_m) * (1.0 + 1e-12)


def _scan_chains():
    """Complete, double-hole, mirror and seeded-disorder chains of 6 to 14 spins, and a 202-position double hole."""
    rng = np.random.default_rng(8)
    dipolar = sc.CouplingModel.power_law()
    for n in range(6, 15):
        yield f"complete{n}", sc.build_chain_geometry(n), dipolar
        yield f"dh{n}", dh_geometry(n), dipolar
        yield f"mirror{n}", sc.build_chain_geometry(n), sc.CouplingModel.mirror_periodic(lam=2.0)
        geo = sc.build_chain_geometry(n)
        scale = np.triu(1.0 + rng.uniform(-0.2, 0.2, size=(n, n)), 1)
        yield f"disorder{n}", geo, sc.CouplingModel.custom(sc.build_couplings(geo, dipolar).entries * (scale + scale.T))
    yield "dh202", dh_geometry(200), dipolar


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def test_time_scan_columns_are_the_public_metrics_of_their_amplitudes():
    # the columns are scored on the phase-free sums g = exp(i Ebar t) f, so they are the metrics of g bit
    # for bit; exp(-i Ebar t) moves the last bits of |f|, and the metrics of f sat at most 3.5 eps
    # (dispersion; fidelity 3, concurrence 2.5, averaged fidelity 1) from them over these 37 chains
    bound = 4.0 * np.finfo(np.float64).eps
    for k, (label, geo, model) in enumerate(_scan_chains()):
        params = sc.InitialStateParams(theta=(math.pi, 2.0, 0.7)[k % 3])
        result = sc.time_scan(geo, model, theta=params.theta)
        metrics = {
            "fidelity": lambda ss, sr: sc.transfer_fidelity(sr),
            "averaged_fidelity": lambda ss, sr: sc.averaged_fidelity(sr),
            "concurrence": lambda ss, sr: sc.concurrence_closed_form(params, ss, sr),
            "dispersion": sc.leaked_weight,
        }
        for name, metric in metrics.items():
            column = getattr(result, name)
            assert _same_bits(column, metric(*result._sums.T)), (label, name)
            assert np.max(np.abs(column - metric(result.f_ss, result.f_sr))) <= bound, (label, name)


def test_scans_that_read_only_peaks_never_form_the_amplitudes(monkeypatch):
    def refusing(*args, **kwargs):
        raise RuntimeError("the common phase was applied")

    model = sc.CouplingModel.power_law()
    with monkeypatch.context() as patch:
        for module in (dynamics, experiments):
            patch.setattr(module, "_common_phase", refusing)
        sc.time_scan(dh_geometry(8), model)
        sc.size_scan([5, 6], model)
        with pytest.raises(RuntimeError, match="the common phase was applied"):
            sc.time_scan(dh_geometry(8), model).f_sr
    # read, the amplitudes are propagate's, bit for bit, on a dense chain and on a mirror split, formed once
    calls = []
    phase = experiments._common_phase
    monkeypatch.setattr(experiments, "_common_phase", lambda *args: calls.append(args) or phase(*args))
    for geo, split in ((sc.build_chain_geometry(10), False), (dh_geometry(200), True)):
        calls.clear()
        result = sc.time_scan(geo, model)
        decomp = sc.eigendecompose(sc.model._chain_sector(geo, model))
        assert (decomp._signs is not None) == split
        s, r = geo.sender_index, geo.receiver_index
        f_ss, f_sr = sc.propagate(decomp, s, result.times, to=(s, r)).T
        assert _same_bits(result.f_ss, f_ss) and _same_bits(result.f_sr, f_sr), geo.n_sites
        assert not (result.f_ss.flags.writeable or result.f_sr.flags.writeable)
        assert len(calls) == 1


@pytest.mark.parametrize(("positions", "dh"), [(10, False), (202, True)], ids=["complete10_dense", "dh202_split"])
def test_no_output_reads_an_eigenvector_sign(monkeypatch, tmp_path, positions, dh):
    # a column of V keeps the sign eigh gave it, so flipping any set of columns may change no output
    geo = sc.build_chain_geometry(positions, double_hole=dh)
    config = cli.parse_config(f"mode = diagnostics\npositions = {positions}\ndh = {str(dh).lower()}\nout = diag\n")
    flipped = []

    def flipping(hamiltonian):
        d = sc.eigendecompose(hamiltonian)
        flip = np.random.default_rng(positions).choice([-1.0, 1.0], size=d.n)
        flip[0] = -1.0
        flipped.append(d._signs is not None)
        return sc.SpectralDecomposition(d.eigenvalues, d._held * flip, _signs=d._signs)

    def outputs():
        result = sc.time_scan(geo, sc.CouplingModel.power_law(), theta=2.0)
        # the amplitudes are properties, not fields, so they are named
        values = [getattr(result, field.name) for field in dataclasses.fields(result)] + [result.f_ss, result.f_sr]
        # arrays bit for bit, every other value by its repr, which is exact for floats
        scan = [value.tobytes() if isinstance(value, np.ndarray) else repr(value) for value in values]
        return scan, cli.run(config, out_dir=tmp_path, quiet=True)[0].read_bytes()

    expected = outputs()
    monkeypatch.setattr(experiments, "eigendecompose", flipping)
    monkeypatch.setattr(cli, "eigendecompose", flipping)
    assert outputs() == expected
    assert flipped == [dh, dh]  # both runs read the flipped decomposition, split only on the long chain


def test_probe_values_are_the_public_metrics_of_propagated_amplitudes():
    params = sc.InitialStateParams(theta=2.0)
    for label, geo, model in _scan_chains():
        if not label.endswith(("10", "202")):
            continue
        decomp = sc.eigendecompose(sc.model._chain_sector(geo, model))
        s, r = geo.sender_index, geo.receiver_index
        # not a progression, so propagate evaluates each time directly
        t = (2.0 * math.pi / decomp._half_width) * np.array([3.7, 0.4, 11.2, 5.05, 0.0])
        f_ss, f_sr = sc.propagate(decomp, s, t, to=(s, r)).T
        terms = dynamics._derivative_terms(decomp, s, (s, r))
        for which, expected in ((0, sc.transfer_fidelity(f_sr)), (1, sc.concurrence_closed_form(params, f_ss, f_sr))):
            value = experiments._probe_scores(decomp, terms, params, t, np.full(t.size, which))[0]
            assert np.max(np.abs(value - expected)) <= 1e-15, (label, which)


def test_a_broken_decomposition_scores_as_a_numerics_error():
    # |f_ss| = 4 at t = 0: the leak check runs before any metric's range check
    decomp = sc.SpectralDecomposition(np.array([0.0, 1.0, 2.0]), 2.0 * np.eye(3))
    with pytest.raises(sc.NumericsError, match="leaked weight out of range"):
        experiments._score_grid(decomp, 0, 2, sc.InitialStateParams(), np.linspace(0.0, 1.0, 5))


def test_a_scan_whose_probes_go_nan_is_a_numerics_error(monkeypatch, tmp_path, capsys):
    # the grid is scored as usual; every refinement probe is NaN
    def broken(decomp, terms, t):
        return np.full((3, len(t), 2), complex(math.nan, math.nan))

    monkeypatch.setattr(experiments, "_amplitude_derivatives", broken)
    with pytest.raises(sc.NumericsError, match="nan"):
        sc.time_scan(dh_geometry(10), sc.CouplingModel.power_law())
    config_path = tmp_path / "run.conf"
    config_path.write_text("mode = time_scan\npositions = 12\ndh = true\n")
    assert cli.main([str(config_path), "--out", str(tmp_path / "results"), "--quiet"]) == 3
    assert capsys.readouterr().err.startswith("numerical failure: ")
    assert not (tmp_path / "results").exists()


def test_time_scan_dispersion_column_on_long_double_hole_chain():
    # 200 positions, 198 occupied, t up to 2.1e7 where |E_j| t reaches 5e9 rad.
    # The dispersion column (the clipped leak) equals the full-vector sum on
    # the same grid; the columns and scalar calls match a reference that
    # reduces every E_j t mod 2 pi exactly.  Moduli only: the common phase
    # exp(-i Ebar t) is uncertain to ~1e-6 rad at these times.
    geo = dh_geometry(198)
    model = sc.CouplingModel.power_law()
    result = sc.time_scan(geo, model, grid_points=10)
    decomp = sc.eigendecompose(sc.model._chain_sector(geo, model))
    s, r = geo.sender_index, geo.receiver_index
    assert result.times.shape == (10,)
    grid = sc.propagate(decomp, s, result.times)
    reference = reference_amplitudes(decomp, s, result.times)
    for k, t in enumerate(result.times.tolist()):
        assert result.dispersion[k] == pytest.approx(sc.dispersion(grid[k], s, r), abs=1e-12)
        assert result.dispersion[k] == pytest.approx(sc.dispersion(reference[k], s, r), abs=5e-11)
        for column, site in ((result.f_ss, s), (result.f_sr, r)):
            expected = abs(reference[k, site])
            assert abs(column[k]) == pytest.approx(expected, abs=1e-8)
            assert abs(sc.propagate(decomp, s, t, to=site)) == pytest.approx(expected, abs=1e-8)


def test_a_custom_mirror_chain_takes_one_dense_eigh(monkeypatch):
    # custom couplings are diagonalized as given, even when they equal their own site reversal; the
    # same couplings as a power-law model take the parity blocks.  On this chain the peaks move by
    # 8.6e-11 at most; on others the dense eigh's mixing of the dominant pair moves them further
    geo = dh_geometry(100)
    dipolar = sc.CouplingModel.power_law()
    split = sc.time_scan(geo, dipolar)
    shapes = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(dynamics.np.linalg, "eigh", lambda matrix: shapes.append(matrix.shape) or eigh(matrix))
    dense = sc.time_scan(geo, sc.CouplingModel.custom(sc.build_couplings(geo, dipolar)))
    assert shapes == [(100, 100)]
    for peak in ("peak_fidelity", "peak_concurrence"):
        assert abs(getattr(dense, peak).value - getattr(split, peak).value) <= 1e-9, peak


def test_time_scan_moduli_at_large_phase_on_1000_position_chain():
    # the default window reaches t ~ 2.7e9, where |E_j| t ~ 3e12 rad
    geo = dh_geometry(998)
    model = sc.CouplingModel.power_law()
    result = sc.time_scan(geo, model)
    decomp = sc.eigendecompose(sc.model._chain_sector(geo, model))
    s, r = geo.sender_index, geo.receiver_index
    every_37th = slice(None, None, 37)
    reference = reference_amplitudes(decomp, s, result.times[every_37th], to=(s, r))
    for column, expected in ((result.f_ss, reference[:, 0]), (result.f_sr, reference[:, 1])):
        assert np.max(np.abs(np.abs(column[every_37th]) - np.abs(expected))) <= 2e-6


def test_time_scan_fine_grid_memory_on_202_position_chain():
    # 200000 grid points on 200 spins: a grid-by-spectrum phase block would take 640 MB
    geo = dh_geometry(200)
    result, peak, _ = traced_peak(lambda: sc.time_scan(geo, sc.CouplingModel.power_law(), grid_points=200000))
    assert result.times.size == 200000
    assert peak < 64e6


def test_time_scan_frees_the_couplings_before_diagonalizing():
    # the 1000-position double-hole chain is built straight into its two half-size blocks,
    # 0.5 * 8 n^2 bytes, with no n x n J or H; each block is freed once eigh has read it
    geo = dh_geometry(998)
    n = geo.n_sites
    _, peak, _ = traced_peak(lambda: sc.time_scan(geo, sc.CouplingModel.power_law()))
    # measured: 1.006 * 8 n^2 (1.003 at 2000 positions), the blocks' eigenvectors and the half
    # rows of V they are copied into; it was 2.003 * 8 n^2 with J and H built, 2.51 * 8 n^2 with
    # H held through eigh, and 3.76 * 8 n^2 with J held too
    assert peak <= 1.05 * 8 * n * n


def test_time_scan_theta_scales_concurrence():
    geo = sc.build_chain_geometry(2)
    full = sc.time_scan(geo, two_site_model(1.0))
    half = sc.time_scan(geo, two_site_model(1.0), theta=math.pi / 2.0)
    # C is proportional to sin^2(theta/2): pi/2 gives half the peak
    assert half.peak_concurrence.value == pytest.approx(
        0.5 * full.peak_concurrence.value, rel=1e-9
    )


def test_time_scan_grid_doubling_stability():
    # Peak *values* must be grid-stable.  Peak *times* may hop between
    # neighboring fast-oscillation crests of nearly identical height (the
    # envelope varies slowly), so they get no tight agreement requirement.
    base = sc.time_scan(dh_geometry(10), sc.CouplingModel.power_law())
    fine = sc.time_scan(dh_geometry(10), sc.CouplingModel.power_law(), grid_points=4000)
    assert base.peak_concurrence.value == pytest.approx(fine.peak_concurrence.value, abs=2e-3)
    assert base.peak_fidelity.value == pytest.approx(fine.peak_fidelity.value, abs=2e-3)
    assert base.t_max == fine.t_max


def test_time_scan_determinism():
    a = sc.time_scan(dh_geometry(6), sc.CouplingModel.power_law())
    b = sc.time_scan(dh_geometry(6), sc.CouplingModel.power_law())
    assert a.peak_fidelity == b.peak_fidelity
    assert a.peak_concurrence == b.peak_concurrence
    for name in ("times", "f_ss", "f_sr", "fidelity", "averaged_fidelity", "concurrence", "dispersion"):
        assert np.array_equal(getattr(a, name), getattr(b, name))


def test_time_scan_validates_arguments():
    geo = sc.build_chain_geometry(2)
    with pytest.raises(ValueError):
        sc.time_scan(geo, two_site_model(1.0), grid_points=1)
    with pytest.raises(ValueError):
        sc.time_scan(geo, two_site_model(1.0), t_max=0.0)
    with pytest.raises(ValueError):
        sc.time_scan(geo, two_site_model(1.0), theta=4.0)


def test_time_scan_checks_theta_before_diagonalizing(monkeypatch):
    calls = []
    decompose = experiments.eigendecompose

    def counting(hamiltonian):
        calls.append(hamiltonian)
        return decompose(hamiltonian)

    monkeypatch.setattr(experiments, "eigendecompose", counting)
    with pytest.raises(ValueError, match="theta"):
        sc.time_scan(sc.build_chain_geometry(4), sc.CouplingModel.power_law(), theta=9.0)
    assert calls == []


@pytest.mark.parametrize(
    ("name", "value"), [("t_max", "1"), ("t_max", np.array([5.0])), ("phi", "0"), ("theta", "3"), ("theta", 1j)]
)
def test_time_scan_rejects_angles_and_windows_that_are_not_real_before_diagonalizing(monkeypatch, name, value):
    calls = count_scan_decompositions(monkeypatch)
    with pytest.raises(ValueError, match=f"{name} must be a real number \\(got {re.escape(repr(value))}\\)"):
        sc.time_scan(sc.build_chain_geometry(4), sc.CouplingModel.power_law(), **{name: value})
    assert calls == []


@pytest.mark.parametrize("scan", ["time_scan", "size_scan"])
def test_scans_reject_a_zz_flag_that_is_not_a_boolean_before_diagonalizing(monkeypatch, scan):
    calls = count_scan_decompositions(monkeypatch)
    model = sc.CouplingModel.power_law()
    for bad in ("no", 1, 0, None):
        message = f"include_zz_diagonal must be True or False \\(got {re.escape(repr(bad))}\\)"
        with pytest.raises(ValueError, match=message):
            if scan == "time_scan":
                sc.time_scan(sc.build_chain_geometry(4), model, include_zz_diagonal=bad)
            else:
                sc.size_scan([4, 5], model, include_zz_diagonal=bad)
    assert calls == []


def test_time_scan_checks_grid_points_before_diagonalizing(monkeypatch):
    calls = []
    decompose = experiments.eigendecompose

    def counting(hamiltonian):
        calls.append(hamiltonian)
        return decompose(hamiltonian)

    monkeypatch.setattr(experiments, "eigendecompose", counting)
    geo, model = sc.build_chain_geometry(4), sc.CouplingModel.power_law()
    for bad in (2.5, 5.0, np.float64(5), "5"):
        with pytest.raises(ValueError, match=f"grid_points must be an integer \\(got {re.escape(repr(bad))}\\)"):
            sc.time_scan(geo, model, grid_points=bad)
    assert calls == []
    assert sc.time_scan(geo, model, grid_points=np.int64(5)).times.shape == (5,)
    assert len(calls) == 1


def test_time_scan_rejects_an_infinite_window():
    with pytest.raises(ValueError, match="finite"):
        sc.time_scan(sc.build_chain_geometry(2), two_site_model(1.0), t_max=math.inf)


def test_time_scan_certifies_no_custom_matrix(monkeypatch):
    # a custom model holds a checked CouplingMatrix, so scanning it again
    # and again builds none
    model = sc.CouplingModel.custom(random_couplings(6, np.random.default_rng(3)).entries)
    certified = count_certifications(monkeypatch)
    for _ in range(3):
        sc.time_scan(sc.build_chain_geometry(6), model)
    assert certified == []


def test_time_scan_degenerate_gap_needs_explicit_window():
    geo = sc.build_chain_geometry(2)
    zero = sc.CouplingModel.custom(np.zeros((2, 2)))
    with pytest.raises(sc.NumericsError):
        sc.time_scan(geo, zero)
    result = sc.time_scan(geo, zero, t_max=1.0)
    assert result.delta_eff is None
    assert result.peak_fidelity.value == 0.0


# ---------------------------------------------------------------- size_scan


def test_size_scan_row_layout():
    result = sc.size_scan(range(6, 13), sc.CouplingModel.power_law())
    assert len(result) == 14
    assert [row.n_spins for row in result[:4]] == [6, 6, 7, 7]
    assert [row.configuration for row in result[:2]] == ["complete", "double_hole"]
    for row in result:
        assert 0.0 <= row.max_concurrence <= 1.0
        assert 0.0 <= row.max_fidelity <= 1.0


def test_size_scan_two_site_complete_is_exact():
    result = sc.size_scan([2], sc.CouplingModel.power_law(), configurations=("complete",))
    row = result[0]
    assert row.max_concurrence == pytest.approx(1.0, abs=1e-9)
    assert row.max_fidelity == pytest.approx(1.0, abs=1e-9)


def test_size_scan_dh_beats_complete():
    result = sc.size_scan(range(6, 11), sc.CouplingModel.power_law())
    by_key = {(row.n_spins, row.configuration): row for row in result}
    for n in range(6, 11):
        assert (
            by_key[(n, "double_hole")].max_concurrence
            >= by_key[(n, "complete")].max_concurrence
        )


def test_size_scan_validates_input():
    with pytest.raises(ValueError):
        sc.size_scan([1], sc.CouplingModel.power_law())
    with pytest.raises(ValueError):
        sc.size_scan([4], sc.CouplingModel.power_law(), configurations=("ring",))
    with pytest.raises(ValueError):
        sc.size_scan([4], sc.CouplingModel.power_law(), configurations=())
    # a bare name is not read letter by letter
    with pytest.raises(ValueError, match=re.escape("such as ('double_hole',) (got 'double_hole')")):
        sc.size_scan([6], sc.CouplingModel.power_law(), configurations="double_hole")
    with pytest.raises(ValueError, match="size_scan cannot use a custom coupling matrix"):
        sc.size_scan([4], sc.CouplingModel.custom(np.zeros((4, 4))))
    # no scan would check grid_points or theta, so the empty list itself is rejected
    with pytest.raises(ValueError, match="n_values must not be empty"):
        sc.size_scan([], sc.CouplingModel.power_law(), grid_points=1, theta=9.0)
    with pytest.raises(ValueError, match="n_values must not be empty"):
        sc.size_scan(range(5, 5), sc.CouplingModel.power_law())


def test_size_scan_checks_every_size_before_scanning(monkeypatch):
    calls = []
    scan = experiments.time_scan

    def counting(*args, **kwargs):
        calls.append(args)
        return scan(*args, **kwargs)

    monkeypatch.setattr(experiments, "time_scan", counting)
    with pytest.raises(ValueError, match=r"every scanned size must be >= 2 \(got 1\)"):
        sc.size_scan([6, 1], sc.CouplingModel.power_law())
    assert calls == []


def test_size_scan_rejects_sizes_that_are_not_integers(monkeypatch):
    calls = []
    monkeypatch.setattr(experiments, "time_scan", lambda *args, **kwargs: calls.append(args))
    # a size that is not an integer is named, not truncated, before any scan
    for bad, shown in ((6.7, "6.7"), (6.0, "6.0"), ("6", "'6'"), (np.float64(6.0), "6.0")):
        with pytest.raises(ValueError, match=rf"every scanned size must be an integer \(got .*{re.escape(shown)}\)"):
            sc.size_scan([6, bad], sc.CouplingModel.power_law())
    assert calls == []
    monkeypatch.undo()
    # NumPy integers pass, as Python integers
    (row,) = sc.size_scan([np.int64(6)], sc.CouplingModel.power_law(), configurations=("complete",))
    assert type(row.n_spins) is int and row.n_spins == 6
