"""Time scans, peak refinement, and size scans."""

import math

import numpy as np
import pytest

import spinchannel as sc
from spinchannel.experiments import _interior_peak
from support import dh_geometry, two_site_model


# ---------------------------------------------------------------- refine_peak


def test_refine_peak_known_maximizer():
    peak = sc.refine_peak(lambda t: math.sin(t / 2.0) ** 2, (2.5, 3.8))
    assert abs(peak.t - math.pi) <= 1e-5
    assert peak.value == pytest.approx(1.0, abs=1e-10)


def test_refine_peak_constant_series_returns_midpoint():
    peak = sc.refine_peak(lambda t: 0.25, (1.0, 3.0))
    assert peak.t == pytest.approx(2.0, abs=1e-6)
    assert peak.value == 0.25


def test_refine_peak_two_site_concurrence():
    J = 0.5
    geo = sc.build_chain_geometry(2)
    coupl = sc.build_couplings(geo, two_site_model(J))
    decomp = sc.eigendecompose(sc.sector_hamiltonian(coupl, True))
    params = sc.InitialStateParams()

    def concurrence_at(t):
        f_ss, f_sr = sc.propagate(decomp, 0, t, to=(0, 1))
        return sc.concurrence_closed_form(params, f_ss, f_sr)

    half_period = math.pi / (2.0 * 2.0 * J)  # T/2 with T = pi/(2J)
    peak = sc.refine_peak(concurrence_at, (half_period - 0.4, half_period + 0.4))
    assert abs(peak.t - half_period) <= 1e-5
    assert peak.value == pytest.approx(1.0, abs=1e-12)


def test_refine_peak_rejects_bad_input():
    with pytest.raises(ValueError):
        sc.refine_peak(lambda t: t, (2.0, 1.0))
    with pytest.raises(ValueError):
        sc.refine_peak(lambda t: t, (1.0, 2.0), tol_width=0.0)
    with pytest.raises(sc.NumericsError):
        sc.refine_peak(lambda t: math.inf, (0.0, 1.0))


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

    def evaluator(t):
        return 1.0 - (t - 1.0) ** 2 if t < 2.0 else higher - (t - 3.0) ** 2

    times = np.linspace(0.0, 4.0, 41)
    values = np.array([evaluator(t) for t in times])
    peak = _interior_peak(times, values, evaluator, 1e-9)
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
    for geo, model in (
        (dh_geometry(6), sc.CouplingModel.power_law()),
        (sc.build_chain_geometry(7), sc.CouplingModel.power_law()),
        (sc.build_chain_geometry(2), two_site_model(2.0)),
    ):
        result = sc.time_scan(geo, model)
        f_best = result.fidelity.max()
        c_best = result.concurrence.max()
        assert result.peak_fidelity.value >= f_best
        assert result.peak_concurrence.value >= c_best


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


def test_time_scan_dispersion_column_on_long_double_hole_chain():
    # 200 positions, 198 occupied: the dispersion column (the clipped leak)
    # must agree with the direct sum over the full amplitude vector, and the
    # amplitude columns with scalar propagation
    geo = dh_geometry(198)
    model = sc.CouplingModel.power_law()
    result = sc.time_scan(geo, model, grid_points=10)
    decomp = sc.eigendecompose(sc.sector_hamiltonian(sc.build_couplings(geo, model)))
    s, r = geo.sender_index, geo.receiver_index
    assert result.times.shape == (10,)
    for k, t in enumerate(result.times.tolist()):
        amps = sc.propagate(decomp, s, t)
        assert result.dispersion[k] == pytest.approx(sc.dispersion(amps, s, r), abs=1e-12)
        assert result.f_ss[k] == pytest.approx(sc.propagate(decomp, s, t, to=s), abs=1e-12)
        assert result.f_sr[k] == pytest.approx(sc.propagate(decomp, s, t, to=r), abs=1e-12)


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
    assert len(result.rows) == 14
    assert [row.n_spins for row in result.rows[:4]] == [6, 6, 7, 7]
    assert [row.configuration for row in result.rows[:2]] == ["complete", "double_hole"]
    for row in result.rows:
        assert 0.0 <= row.max_concurrence <= 1.0
        assert 0.0 <= row.max_fidelity <= 1.0


def test_size_scan_two_site_complete_is_exact():
    result = sc.size_scan([2], sc.CouplingModel.power_law(), configurations=("complete",))
    row = result.rows[0]
    assert row.max_concurrence == pytest.approx(1.0, abs=1e-9)
    assert row.max_fidelity == pytest.approx(1.0, abs=1e-9)


def test_size_scan_dh_beats_complete():
    result = sc.size_scan(range(6, 11), sc.CouplingModel.power_law())
    by_key = {(row.n_spins, row.configuration): row for row in result.rows}
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
    with pytest.raises(ValueError):
        sc.size_scan([4], sc.CouplingModel.custom(np.zeros((4, 4))))
