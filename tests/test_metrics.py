"""Fidelities, concurrence (both routes), dispersion, and spectral overlaps."""

import math

import numpy as np
import pytest

import spinchannel as sc
from support import dh_geometry, two_site_model


def _decomp_for(geometry, model, include_zz=True):
    J = sc.build_couplings(geometry, model)
    return sc.eigendecompose(sc.sector_hamiltonian(J, include_zz))


def _averaged_fidelity_quadrature(modulus: float) -> float:
    """Independent route: average the output overlap over the input sphere.

    For an input with polar angle theta the overlap against the ideal output
    is c^2 (1 - s^2 m^2) + 2 c^2 s^2 m + s^4 m^2 with c = cos(theta/2),
    s = sin(theta/2); in u = cos(theta) this is a quadratic polynomial, so
    3-point Gauss-Legendre integrates it exactly.
    """
    nodes, weights = np.polynomial.legendre.leggauss(3)
    total = 0.0
    for u, w in zip(nodes, weights):
        c_sq = 0.5 * (1.0 + u)
        s_sq = 0.5 * (1.0 - u)
        overlap = (
            c_sq * (1.0 - s_sq * modulus**2)
            + 2.0 * c_sq * s_sq * modulus
            + s_sq**2 * modulus**2
        )
        total += w * overlap
    return 0.5 * total


# ---------------------------------------------------------------- fidelities


def test_transfer_fidelity_values():
    assert sc.transfer_fidelity(1.0 + 0.0j) == 1.0
    assert sc.transfer_fidelity((1.0 + 1.0j) / 2.0) == pytest.approx(0.5, rel=1e-15)
    assert sc.transfer_fidelity(0.0j) == 0.0
    with pytest.raises(ValueError):
        sc.transfer_fidelity(1.5 + 0.0j)


def test_transfer_fidelity_clamps_rounding_noise():
    assert sc.transfer_fidelity(1.0 + 1e-11) == 1.0


@pytest.mark.parametrize(
    "score",
    [
        sc.transfer_fidelity,
        sc.averaged_fidelity,
        lambda f: sc.concurrence_closed_form(sc.InitialStateParams(), f, 0.5),
        lambda f: sc.concurrence_closed_form(sc.InitialStateParams(), 0.5, f),
    ],
)
def test_scores_reject_moduli_beyond_tolerance(score):
    assert 0.0 <= score(np.array([0.5, 1.0 + 5e-11])).max() <= 1.0
    with pytest.raises(ValueError, match="beyond tolerance"):
        score(np.array([0.5, 1.0 + 2e-10]))


def test_averaged_fidelity_values():
    assert sc.averaged_fidelity(1.0 + 0.0j) == pytest.approx(1.0, abs=1e-15)
    assert sc.averaged_fidelity(0.0j) == 0.5
    expected = 1.0 / 12.0 + math.sqrt(2.0) / 6.0 + 0.5
    assert sc.averaged_fidelity(1.0 / math.sqrt(2.0)) == pytest.approx(expected, abs=1e-15)
    # frozen value computed by the quadrature below
    assert sc.averaged_fidelity(1.0 / math.sqrt(2.0)) == pytest.approx(
        0.819035593728849, abs=1e-15
    )


def test_averaged_fidelity_matches_quadrature():
    for modulus in (0.0, 0.25, 1.0 / math.sqrt(2.0), 0.9, 1.0):
        assert sc.averaged_fidelity(modulus) == pytest.approx(
            _averaged_fidelity_quadrature(modulus), abs=1e-14
        )


# ---------------------------------------------------------------- initial state


def test_initial_state_params_validation():
    sc.InitialStateParams(theta=0.0, phi=0.0)
    sc.InitialStateParams(theta=math.pi, phi=6.28)
    with pytest.raises(ValueError):
        sc.InitialStateParams(theta=-0.1)
    with pytest.raises(ValueError):
        sc.InitialStateParams(theta=3.2)
    with pytest.raises(ValueError):
        sc.InitialStateParams(theta=1.0, phi=2.0 * math.pi)


# ---------------------------------------------------------------- concurrence


def test_concurrence_closed_form_examples():
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    params = sc.InitialStateParams(theta=math.pi)
    assert sc.concurrence_closed_form(params, inv_sqrt2, inv_sqrt2) == pytest.approx(
        1.0, abs=1e-15
    )
    assert sc.concurrence_closed_form(sc.InitialStateParams(theta=0.0), 1.0, 1.0) == 0.0
    assert sc.concurrence_closed_form(params, 1.0, 0.0) == 0.0


def test_concurrence_monotone_in_theta():
    previous = -1.0
    for theta in np.linspace(0.0, math.pi, 40):
        value = sc.concurrence_closed_form(
            sc.InitialStateParams(theta=float(theta)), 0.8, 0.55
        )
        assert value >= previous
        previous = value


def test_concurrence_rejects_oversized_amplitudes():
    params = sc.InitialStateParams()
    with pytest.raises(ValueError):
        sc.concurrence_closed_form(params, 1.2, 1.0)


def test_wootters_oracle_bell_state():
    params = sc.InitialStateParams(theta=math.pi)
    amps = np.zeros(4, dtype=complex)
    amps[0] = amps[3] = 1.0 / math.sqrt(2.0)
    assert sc.wootters_concurrence_oracle(params, amps, 0, 3) == pytest.approx(1.0, abs=1e-12)


def test_wootters_oracle_separable_state():
    params = sc.InitialStateParams(theta=math.pi)
    amps = np.zeros(4, dtype=complex)
    amps[0] = 1.0
    assert sc.wootters_concurrence_oracle(params, amps, 0, 3) == pytest.approx(0.0, abs=1e-12)


def test_wootters_oracle_rejects_unnormalized_input():
    params = sc.InitialStateParams()
    amps = np.zeros(3, dtype=complex)
    amps[0] = 0.9
    with pytest.raises(ValueError):
        sc.wootters_concurrence_oracle(params, amps, 0, 2)


def test_wootters_oracle_agrees_with_closed_form():
    rng = np.random.default_rng(41)
    geo = dh_geometry(6)
    decomp = _decomp_for(geo, sc.CouplingModel.power_law())
    s, r = geo.sender_index, geo.receiver_index
    for _ in range(25):
        t = float(rng.uniform(0.0, 300.0))
        params = sc.InitialStateParams(
            theta=float(rng.uniform(0.0, math.pi)),
            phi=float(rng.uniform(0.0, 2.0 * math.pi)),
        )
        amps = sc.propagate(decomp, s, t)
        closed = sc.concurrence_closed_form(params, amps[s], amps[r])
        oracle = sc.wootters_concurrence_oracle(params, amps, s, r)
        assert oracle == pytest.approx(closed, abs=1e-10)


# ---------------------------------------------------------------- dispersion


def test_dispersion_zero_at_time_zero():
    geo = sc.build_chain_geometry(6)
    decomp = _decomp_for(geo, sc.CouplingModel.power_law())
    amps = sc.propagate(decomp, 0, 0.0)
    assert sc.dispersion(amps, 0, 5) <= 1e-14


def test_dispersion_identically_zero_for_two_sites():
    geo = sc.build_chain_geometry(2)
    decomp = _decomp_for(geo, two_site_model(0.8))
    for t in (0.0, 1.0, 13.7):
        amps = sc.propagate(decomp, 0, t)
        assert sc.dispersion(amps, 0, 1) == 0.0


def test_dispersion_complement_identity():
    geo = sc.build_chain_geometry(9)
    decomp = _decomp_for(geo, sc.CouplingModel.power_law())
    rng = np.random.default_rng(43)
    for t in rng.uniform(0.0, 200.0, size=8):
        amps = sc.propagate(decomp, 0, float(t))
        direct = sc.dispersion(amps, 0, 8)
        complement = 1.0 - abs(amps[0]) ** 2 - abs(amps[8]) ** 2
        assert direct == pytest.approx(complement, abs=1e-10)


def test_dispersion_complete_positive_and_above_dh():
    # at its own concurrence peak, the complete chain leaks a strictly
    # positive weight into the channel while the double-hole chain stays low
    values = {}
    for label, geo in (("complete", sc.build_chain_geometry(10)), ("dh", dh_geometry(10))):
        result = sc.time_scan(geo, sc.CouplingModel.power_law())
        decomp = _decomp_for(geo, sc.CouplingModel.power_law())
        amps = sc.propagate(decomp, geo.sender_index, result.peak_concurrence.t)
        values[label] = sc.dispersion(amps, geo.sender_index, geo.receiver_index)
    assert values["complete"] > 0.0
    assert values["dh"] < values["complete"]


# ---------------------------------------------------------------- spectral overlaps


def test_spectral_overlaps_two_sites():
    geo = sc.build_chain_geometry(2)
    overlaps = sc.spectral_overlaps(_decomp_for(geo, two_site_model(1.0)), 0, 1)
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    assert np.allclose(np.abs(overlaps.sigma), inv_sqrt2, atol=1e-15)
    assert np.allclose(np.abs(overlaps.rho), inv_sqrt2, atol=1e-15)
    assert np.all(overlaps.gamma_sq == 0.0)


def test_spectral_overlaps_normalization():
    geo = dh_geometry(8)
    decomp = _decomp_for(geo, sc.CouplingModel.power_law())
    overlaps = sc.spectral_overlaps(decomp, geo.sender_index, geo.receiver_index)
    per_j = overlaps.sigma**2 + overlaps.rho**2 + overlaps.gamma_sq
    assert np.max(np.abs(per_j - 1.0)) <= 1e-10
    assert np.sum(overlaps.gamma_sq) == pytest.approx(overlaps.n - 2, abs=1e-10)
    assert np.sum(overlaps.sigma**2) == pytest.approx(1.0, abs=1e-10)
    assert np.sum(overlaps.rho**2) == pytest.approx(1.0, abs=1e-10)


def test_spectral_overlaps_type_rejects_inconsistent_weights():
    with pytest.raises(ValueError):
        sc.SpectralOverlaps(np.array([1.0, 0.5]), np.array([0.0, 0.5]), np.array([0.0, 0.0]))


def test_leakage_bound_two_sites():
    geo = sc.build_chain_geometry(2)
    overlaps = sc.spectral_overlaps(_decomp_for(geo, two_site_model(0.5)), 0, 1)
    gamma_m, bound = sc.leakage_bound(overlaps)
    assert gamma_m == 0.0
    assert bound == 0.0


def test_leakage_bound_flat_channel_weights():
    # sigma_j^2 = rho_j^2 = 1/N with gamma_sq_j = (N-2)/N gives
    # gamma_M = (N-2)/N, the extremal flat configuration
    n = 8
    sigma = np.full(n, 1.0 / math.sqrt(n))
    gamma_sq = np.full(n, (n - 2) / n)
    overlaps = sc.SpectralOverlaps(sigma, sigma.copy(), gamma_sq)
    gamma_m, bound = sc.leakage_bound(overlaps)
    assert gamma_m == pytest.approx((n - 2) / n, rel=1e-14)
    assert bound == pytest.approx(n - 2, rel=1e-14)


def test_leakage_bound_dh_below_complete():
    dipolar = sc.CouplingModel.power_law()
    dh = sc.spectral_overlaps(_decomp_for(dh_geometry(10), dipolar), 0, 9)
    complete = sc.spectral_overlaps(_decomp_for(sc.build_chain_geometry(10), dipolar), 0, 9)
    assert sc.leakage_bound(dh)[0] < sc.leakage_bound(complete)[0]


# ---------------------------------------------------------------- two-qubit picture


def test_two_qubit_effective_exact_two_sites():
    J = 0.7
    geo = sc.build_chain_geometry(2)
    decomp = _decomp_for(geo, two_site_model(J))
    overlaps = sc.spectral_overlaps(decomp, 0, 1)
    delta, pair, mass = sc.two_qubit_effective(decomp, overlaps)
    assert delta == pytest.approx(2.0 * J, rel=1e-12)
    assert math.pi / delta == pytest.approx(math.pi / (2.0 * J), rel=1e-12)
    assert math.pi / (2.0 * delta) == pytest.approx(math.pi / (4.0 * J), rel=1e-12)
    assert pair == (0, 1)
    assert mass == pytest.approx(1.0, abs=1e-14)
    assert np.max(sc.structure_residuals(overlaps)) <= 1e-14


def test_two_qubit_effective_dominant_mass():
    dipolar = sc.CouplingModel.power_law()
    decomp_dh = _decomp_for(dh_geometry(10), dipolar)
    overlaps_dh = sc.spectral_overlaps(decomp_dh, 0, 9)
    _, pair, mass_dh = sc.two_qubit_effective(decomp_dh, overlaps_dh)
    sig_sq = overlaps_dh.sigma**2
    assert mass_dh == sig_sq[pair[0]] + sig_sq[pair[1]]
    assert mass_dh >= 0.99

    mirror = sc.CouplingModel.mirror_periodic(lam=2.0)
    decomp_m = _decomp_for(sc.build_chain_geometry(10), mirror, include_zz=False)
    overlaps_m = sc.spectral_overlaps(decomp_m, 0, 9)
    _, pair_m, mass_m = sc.two_qubit_effective(decomp_m, overlaps_m)
    sig_sq_m = overlaps_m.sigma**2
    assert mass_m == sig_sq_m[pair_m[0]] + sig_sq_m[pair_m[1]]
    # recorded contrast: the engineered chain spreads sender weight over
    # many eigenvectors instead of a single dominant pair
    assert mass_m < 0.9


def test_two_qubit_effective_degenerate_pair():
    decomp = sc.eigendecompose(np.zeros((3, 3)))
    overlaps = sc.spectral_overlaps(decomp, 0, 2)
    with pytest.raises(sc.NumericsError):
        sc.two_qubit_effective(decomp, overlaps)


def test_structure_residual_consistency_check():
    # when every eigenvector splits evenly between sender and receiver,
    # gamma_M recomputed through (1 - gamma_sq)/2 matches the direct sum
    dipolar = sc.CouplingModel.power_law()
    for geo in (sc.build_chain_geometry(6), dh_geometry(6), sc.build_chain_geometry(10)):
        decomp = _decomp_for(geo, dipolar)
        overlaps = sc.spectral_overlaps(decomp, geo.sender_index, geo.receiver_index)
        residuals = sc.structure_residuals(overlaps)
        assert np.max(residuals) <= 1e-8  # mirror-symmetric layouts
        gamma_m, _ = sc.leakage_bound(overlaps)
        recomputed = float(np.sum((1.0 - overlaps.gamma_sq) / 2.0 * overlaps.gamma_sq))
        assert recomputed == pytest.approx(gamma_m, abs=1e-8)
