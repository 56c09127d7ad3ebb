"""Fidelities, concurrence (both routes), dispersion, and spectral overlaps."""

import math
import re

import numpy as np
import pytest

import spinchannel as sc
from oracles import full_space_concurrence
from spinchannel import experiments
from spinchannel.model import _chain_sector
from support import dh_geometry, two_site_model


def _decomp_for(geometry, model, include_zz=True):
    return sc.eigendecompose(_chain_sector(geometry, model, include_zz))


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


@pytest.mark.parametrize(
    ("name", "value"),
    [
        ("theta", "1"),
        ("theta", None),
        ("theta", np.array([1.0])),
        ("theta", True),
        ("phi", "0"),
        ("phi", 1j),
        # NumPy compares these with floats, yet they are not real numbers
        ("phi", np.complex128(0.5)),
        ("phi", np.False_),
    ],
)
def test_initial_state_params_reject_angles_that_are_not_real(name, value):
    with pytest.raises(ValueError, match=f"{name} must be a real number \\(got {re.escape(repr(value))}\\)"):
        sc.InitialStateParams(**{name: value})


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
    # each modulus within 1, but 2 |f_ss| |f_sr| = 1.125 is not a concurrence
    with pytest.raises(ValueError, match="concurrence value"):
        sc.concurrence_closed_form(params, 0.75, 0.75)


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


@pytest.mark.parametrize(
    ("amps", "sender", "receiver", "fragment"),
    [
        (np.eye(2, dtype=complex), 0, 1, "flat vector"),
        (np.ones(1, dtype=complex), 0, 1, "at least 2 sites"),
        (np.array([1.0, 0.0, 0.0], dtype=complex), 1, 1, "must differ"),
        (np.array([1.0, 0.0, 0.0], dtype=complex), 0, 3, "receiver_index=3 out of range"),
    ],
)
def test_wootters_oracle_rejects_bad_input(amps, sender, receiver, fragment):
    with pytest.raises(ValueError, match=fragment):
        sc.wootters_concurrence_oracle(sc.InitialStateParams(), amps, sender, receiver)


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


def test_wootters_oracle_matches_the_full_space_partial_trace():
    # random states, not only those of a chain; the 2^n reference runs up to 12 sites
    rng = np.random.default_rng(43)
    for _ in range(400):
        n = int(rng.integers(2, 13))
        amps = rng.normal(size=n) + 1j * rng.normal(size=n)
        amps /= np.linalg.norm(amps)
        s, r = (int(i) for i in rng.choice(n, size=2, replace=False))
        params = sc.InitialStateParams(
            theta=float(rng.uniform(0.0, math.pi)),
            phi=float(rng.uniform(0.0, 2.0 * math.pi)),
        )
        oracle = sc.wootters_concurrence_oracle(params, amps, s, r)
        assert abs(oracle - full_space_concurrence(params, amps, s, r)) <= 1e-14, (n, s, r)


def test_wootters_oracle_agrees_with_closed_form_at_1000_positions():
    # the concurrence does not depend on the chain's size; a 2^998 state vector could not be built
    geo = dh_geometry(998)
    decomp = _decomp_for(geo, sc.CouplingModel.power_law())
    s, r = geo.sender_index, geo.receiver_index
    delta, _pair, _mass = sc.two_qubit_effective(decomp, sc.spectral_overlaps(decomp, s, r))
    t_max = experiments._WINDOW_PERIODS * math.pi / delta
    rng = np.random.default_rng(47)
    # the entangling time, where C peaks, and random times in the default scan window
    times = [math.pi / (2.0 * delta)] + list(rng.uniform(0.0, t_max, size=23))
    for t in times:
        params = sc.InitialStateParams(
            theta=float(rng.uniform(0.0, math.pi)),
            phi=float(rng.uniform(0.0, 2.0 * math.pi)),
        )
        amps = sc.propagate(decomp, s, t)
        closed = sc.concurrence_closed_form(params, amps[s], amps[r])
        oracle = sc.wootters_concurrence_oracle(params, amps, s, r)
        assert abs(oracle - closed) <= 1e-10, t


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


def test_leaked_weight_rejects_nan_amplitudes():
    # every comparison with NaN is false, so NaN must count as out of range
    with pytest.raises(sc.NumericsError, match="nan"):
        sc.leaked_weight(np.array([0.5, math.nan]), np.array([0.5, 0.5]))


@pytest.mark.parametrize(
    ("metric", "label"),
    [
        (lambda: sc.transfer_fidelity(math.nan), "|f_sr|"),
        (lambda: sc.averaged_fidelity(np.array([0.5, complex(math.nan, 0.0)])), "|f_sr|"),
        (lambda: sc.concurrence_closed_form(sc.InitialStateParams(), math.nan, 0.5), "|f_ss|"),
        (lambda: sc.concurrence_closed_form(sc.InitialStateParams(), 0.5, np.array([math.nan])), "|f_sr|"),
    ],
    ids=["fidelity", "averaged_fidelity", "concurrence_ss", "concurrence_sr"],
)
def test_metrics_take_a_nan_amplitude_as_leaked_weight_does(metric, label):
    # a broken decomposition, not a value to report
    with pytest.raises(sc.NumericsError, match=f"^{re.escape(label)} is nan$"):
        metric()


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


@pytest.mark.parametrize(
    ("sender", "receiver", "fragment"), [(0, 2, "receiver_index=2 out of range"), (1, 1, "must differ")]
)
def test_spectral_overlaps_rejects_bad_indices(sender, receiver, fragment):
    decomp = _decomp_for(sc.build_chain_geometry(2), two_site_model(1.0))
    with pytest.raises(ValueError, match=fragment):
        sc.spectral_overlaps(decomp, sender, receiver)


def test_spectral_overlaps_type_rejects_inconsistent_weights():
    with pytest.raises(ValueError):
        sc.SpectralOverlaps(np.array([1.0, 0.5]), np.array([0.0, 0.5]), np.array([0.0, 0.0]))


@pytest.mark.parametrize(
    ("sigma", "rho", "gamma_sq", "pattern"),
    [
        ([1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0], r"^sigma, rho, gamma_sq must have equal length$"),
        # each eigenvector's weights sum to 1, but the sender's add up to 2
        ([1.0, 1.0], [0.0, 0.0], [0.0, 0.0], r"^sum of sigma weights = 2\.0, expected 1\.0 within 1e-10$"),
    ],
)
def test_spectral_overlaps_type_rejects_mismatched_lengths_and_totals(sigma, rho, gamma_sq, pattern):
    with pytest.raises(ValueError, match=pattern):
        sc.SpectralOverlaps(np.array(sigma), np.array(rho), np.array(gamma_sq))


@pytest.mark.parametrize(
    ("sigma", "gamma_sq", "pattern"),
    [
        # a NaN compares false with every bound, so no sum rule may read "> tolerance"
        ([math.nan, 1.0, 0.0], [0.0, 0.0, 1.0], r"^per-eigenvector weights do not sum to 1 within 1e-10$"),
        # every sum rule holds, but leakage_bound would take the square root of -0.5
        ([1.0, 0.0, 0.0], [-0.5, 0.5, 1.0], r"^gamma_sq weights must be >= 0 \(got -0\.5 at j = 0\)$"),
    ],
    ids=["nan", "negative"],
)
def test_spectral_overlaps_type_rejects_nan_and_negative_weights(sigma, gamma_sq, pattern):
    rho = [math.sqrt(0.5), math.sqrt(0.5), 0.0]
    with pytest.raises(ValueError, match=pattern):
        sc.SpectralOverlaps(np.array(sigma), np.array(rho), np.array(gamma_sq))


@pytest.mark.parametrize(
    ("sender", "receiver", "message"),
    [
        (0, 3, "receiver_index=3 out of range for 3 sites"),
        (-1, 2, "sender_index=-1 out of range for 3 sites"),
        # one rule for both: the range first, then that the two differ
        (3, 3, "sender_index=3 out of range for 3 sites"),
        (1, 1, "sender and receiver indices must differ"),
        (0.5, 1, "sender_index=0.5 is not an integer"),
        (0, 2.0, "receiver_index=2.0 is not an integer"),
    ],
)
def test_spectral_overlaps_and_wootters_oracle_reject_an_index_pair_alike(sender, receiver, message):
    decomp = _decomp_for(sc.build_chain_geometry(3), sc.CouplingModel.power_law())
    amps = np.array([1.0, 0.0, 0.0], dtype=complex)
    with pytest.raises(ValueError, match=f"^{message}$"):
        sc.spectral_overlaps(decomp, sender, receiver)
    with pytest.raises(ValueError, match=f"^{message}$"):
        sc.wootters_concurrence_oracle(sc.InitialStateParams(), amps, sender, receiver)
    with pytest.raises(ValueError, match=f"^{message}$"):
        sc.dispersion(amps, sender, receiver)


def test_spectral_overlaps_read_a_bool_index_as_its_integer():
    # a bool is the integer 0 or 1, as operator.index reads it, not a mask of the rows
    decomp = _decomp_for(dh_geometry(8), sc.CouplingModel.power_law())
    expected = sc.spectral_overlaps(decomp, 1, 0)
    for sender, receiver in ((True, 0), (True, False), (np.int64(1), np.int64(0))):
        overlaps = sc.spectral_overlaps(decomp, sender, receiver)
        for name in ("sigma", "rho", "gamma_sq"):
            assert np.array_equal(getattr(overlaps, name), getattr(expected, name))
    amps = sc.propagate(decomp, 1, 2.5)
    assert sc.dispersion(amps, True, 0) == sc.dispersion(amps, 1, 0)


def test_spectral_overlaps_of_non_orthonormal_vectors_is_a_numerical_failure():
    # the weights of orthonormal columns always sum right, so a failed sum is
    # a broken decomposition, not a rejected input
    broken = sc.SpectralDecomposition(np.zeros(3), np.ones((3, 3)))
    with pytest.raises(sc.NumericsError, match="not orthonormal"):
        sc.spectral_overlaps(broken, 0, 2)


def test_leakage_bound_two_sites():
    geo = sc.build_chain_geometry(2)
    overlaps = sc.spectral_overlaps(_decomp_for(geo, two_site_model(0.5)), 0, 1)
    gamma_m, bound = sc.leakage_bound(overlaps)
    assert gamma_m == 0.0
    assert bound == 0.0


def test_leakage_bound_flat_channel_weights():
    # sigma_j^2 = rho_j^2 = 1/N with gamma_sq_j = (N-2)/N gives
    # gamma_M = (N-2)/N, the extremal flat configuration: the full prefix
    # reads (sum_j |sigma_j| gamma_j)^2 = N - 2 = N gamma_M, the empty one 1
    n = 8
    sigma = np.full(n, 1.0 / math.sqrt(n))
    gamma_sq = np.full(n, (n - 2) / n)
    overlaps = sc.SpectralOverlaps(sigma, sigma.copy(), gamma_sq)
    gamma_m, bound = sc.leakage_bound(overlaps)
    assert gamma_m == pytest.approx((n - 2) / n, rel=1e-14)
    assert bound == pytest.approx(1.0, rel=1e-14)


def test_leakage_bound_dh_below_complete():
    dipolar = sc.CouplingModel.power_law()
    dh = sc.spectral_overlaps(_decomp_for(dh_geometry(10), dipolar), 0, 9)
    complete = sc.spectral_overlaps(_decomp_for(sc.build_chain_geometry(10), dipolar), 0, 9)
    assert sc.leakage_bound(dh)[0] < sc.leakage_bound(complete)[0]


def _channel_dispersion_max(decomp, s, r, times):
    """The largest Gamma^2(t) over ``times``, summed over every site but s and r."""
    weights = np.abs(sc.propagate(decomp, s, times)) ** 2
    return float(np.max(weights.sum(axis=1) - weights[:, s] - weights[:, r]))


def test_leakage_bound_holds_on_a_dense_grid_and_never_exceeds_n_gamma_m():
    rng = np.random.default_rng(15)
    times = np.linspace(0.0, 60.0, 4001)
    worst = 0.0
    for trial in range(200):
        n = int(rng.integers(4, 15))
        if trial % 2:
            # any real symmetric H: the bound rests on orthonormality alone
            a = rng.normal(size=(n, n))
            decomp = sc.eigendecompose(a + a.T)
        else:
            positions = np.sort(rng.choice(np.arange(1, 2 * n), size=n, replace=False))
            model = sc.CouplingModel.power_law(nu=float(rng.uniform(1.0, 4.0)))
            geo = sc.ChainGeometry(tuple(positions.tolist()), int(positions[0]), int(positions[-1]))
            decomp = _decomp_for(geo, model, include_zz=bool(rng.integers(2)))
        s, r = (int(i) for i in rng.choice(n, size=2, replace=False))
        overlaps = sc.spectral_overlaps(decomp, s, r)
        gamma_m, bound = sc.leakage_bound(overlaps)
        largest = _channel_dispersion_max(decomp, s, r, times)
        assert largest <= bound + 1e-12
        assert bound <= min(1.0, n * gamma_m) * (1.0 + 1e-12)
        worst = max(worst, largest / bound)
    # the grid comes close to the bound on some chain, so the check has teeth
    assert worst > 0.99


def test_leakage_bound_stays_below_0_02_on_double_hole_chains_of_every_size():
    dipolar = sc.CouplingModel.power_law()
    for span in (12, 52, 202, 1000, 2000):
        geo = sc.build_chain_geometry(span, double_hole=True)
        s, r = geo.sender_index, geo.receiver_index
        decomp = sc.eigendecompose(_chain_sector(geo, dipolar))
        overlaps = sc.spectral_overlaps(decomp, s, r)
        gamma_m, bound = sc.leakage_bound(overlaps)
        # N * gamma_M grows with the chain (0.068 at 12 positions, 13.4 at 2000); the prefix bound does not
        assert 0.0196 < bound < 0.02
        assert bound < geo.n_sites * gamma_m
        if span <= 202:
            # over three transfer times of the dominant pair
            times = np.linspace(0.0, 3.0 * math.pi / sc.two_qubit_effective(decomp, overlaps)[0], 2001)
            assert _channel_dispersion_max(decomp, s, r, times) <= bound


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


def test_structure_residuals_are_the_mirror_imbalance():
    # sender and receiver off the mirror pair of a 10-site chain, so the imbalance is far from zero
    geo = sc.build_chain_geometry(10, 2, 8)
    overlaps = sc.spectral_overlaps(_decomp_for(geo, sc.CouplingModel.power_law()), 1, 7)
    residuals = sc.structure_residuals(overlaps)
    assert np.array_equal(residuals, np.abs(overlaps.sigma**2 - overlaps.rho**2))
    assert np.max(residuals) > 0.01
