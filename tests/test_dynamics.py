"""Eigendecomposition and single-excitation time evolution."""

import math

import numpy as np
import pytest

import spinchannel as sc
from support import dh_geometry, random_symmetric


def _dipolar_decomp(n=6, include_zz=True):
    geo = sc.build_chain_geometry(n)
    J = sc.build_couplings(geo, sc.CouplingModel.power_law())
    return sc.eigendecompose(sc.sector_hamiltonian(J, include_zz))


# ---------------------------------------------------------------- eigendecompose


def test_eigendecompose_identity():
    decomp = sc.eigendecompose(np.eye(2))
    assert np.array_equal(decomp.eigenvalues, [1.0, 1.0])


def test_eigendecompose_swap_matrix():
    decomp = sc.eigendecompose(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(decomp.eigenvalues, [-1.0, 1.0], atol=1e-15)
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    assert np.allclose(decomp.eigenvectors[:, 0], [inv_sqrt2, -inv_sqrt2], atol=1e-15)
    assert np.allclose(decomp.eigenvectors[:, 1], [inv_sqrt2, inv_sqrt2], atol=1e-15)


def test_eigendecompose_reconstruction():
    rng = np.random.default_rng(23)
    H = random_symmetric(10, rng)
    decomp = sc.eigendecompose(H)
    rebuilt = (decomp.eigenvectors * decomp.eigenvalues) @ decomp.eigenvectors.T
    assert np.max(np.abs(rebuilt - H)) <= 1e-10
    assert np.all(np.diff(decomp.eigenvalues) >= 0.0)
    gram = decomp.eigenvectors.T @ decomp.eigenvectors
    assert np.max(np.abs(gram - np.eye(10))) <= 1e-12


def test_eigendecompose_sign_convention():
    rng = np.random.default_rng(29)
    decomp = sc.eigendecompose(random_symmetric(8, rng))
    V = decomp.eigenvectors
    anchors = np.argmax(np.abs(V), axis=0)
    assert np.all(V[anchors, np.arange(8)] > 0.0)


def test_eigendecompose_accepts_wrapper_and_ndarray():
    geo = sc.build_chain_geometry(4)
    J = sc.build_couplings(geo, sc.CouplingModel.power_law())
    ham = sc.sector_hamiltonian(J)
    a = sc.eigendecompose(ham)
    b = sc.eigendecompose(ham.matrix)
    assert np.array_equal(a.eigenvalues, b.eigenvalues)
    assert np.array_equal(a.eigenvectors, b.eigenvectors)


def test_eigendecompose_rejects_bad_input():
    with pytest.raises(ValueError):
        sc.eigendecompose(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        sc.eigendecompose(np.array([[0.0, 1.0], [2.0, 0.0]]))
    with pytest.raises(ValueError):
        sc.eigendecompose(np.array([[np.nan, 0.0], [0.0, 1.0]]))


# ---------------------------------------------------------------- propagation


def test_propagator_at_time_zero():
    decomp = _dipolar_decomp()
    assert sc.propagate(decomp, 0, 0.0, to=0) == pytest.approx(1.0, abs=1e-14)
    assert abs(sc.propagate(decomp, 0, 0.0, to=5)) <= 1e-14


def test_unitarity_at_random_times():
    decomp = _dipolar_decomp(n=8)
    rng = np.random.default_rng(31)
    for t in rng.uniform(0.0, 500.0, size=10):
        amps = sc.propagate(decomp, 0, float(t))
        assert np.sum(np.abs(amps) ** 2) == pytest.approx(1.0, abs=1e-12)


def test_propagator_reciprocity():
    decomp = _dipolar_decomp(n=7)
    for t in (0.3, 2.9, 47.0):
        f_sr = sc.propagate(decomp, 0, t, to=6)
        f_rs = sc.propagate(decomp, 6, t, to=0)
        assert abs(f_sr - f_rs) <= 1e-13


def test_sector_amplitudes_match_propagator():
    decomp = _dipolar_decomp(n=5)
    t = 7.7
    amps = sc.propagate(decomp, 0, t)
    assert amps.shape == (5,)
    for n in range(5):
        assert amps[n] == pytest.approx(sc.propagate(decomp, 0, t, to=n), abs=1e-13)


def test_amplitude_series_matches_pointwise():
    decomp = _dipolar_decomp(n=6)
    times = np.linspace(0.0, 40.0, 50)
    series = sc.propagate(decomp, 0, times, to=(0, 5))
    assert series.shape == (50, 2)
    assert sc.propagate(decomp, 0, times).shape == (50, 6)
    assert sc.propagate(decomp, 0, times, to=5).shape == (50,)
    leak = sc.leaked_weight(series[:, 0], series[:, 1])
    for k in range(0, 50, 7):
        t = float(times[k])
        f_ss = sc.propagate(decomp, 0, t, to=0)
        f_sr = sc.propagate(decomp, 0, t, to=5)
        assert series[k, 0] == pytest.approx(f_ss, abs=1e-12)
        assert series[k, 1] == pytest.approx(f_sr, abs=1e-12)
        expected_leak = 1.0 - abs(f_ss) ** 2 - abs(f_sr) ** 2
        assert leak[k] == pytest.approx(expected_leak, abs=1e-10)


def test_amplitude_series_rejects_broken_decomposition():
    bad = sc.SpectralDecomposition(np.zeros(3), np.ones((3, 3)))
    f_ss, f_sr = sc.propagate(bad, 0, np.array([0.0, 1.0]), to=(0, 2)).T
    with pytest.raises(sc.NumericsError):
        sc.leaked_weight(f_ss, f_sr)


# ---------------------------------------------------------------- full space


def test_full_space_amplitude_matches_sector():
    geo = dh_geometry(4)
    J = sc.build_couplings(geo, sc.CouplingModel.power_law())
    sector = sc.eigendecompose(sc.sector_hamiltonian(J, True))
    full = sc.eigendecompose(sc.full_hamiltonian(J, True))
    s, r = geo.sender_index, geo.receiver_index
    for t in (0.0, 1.3, 89.0):
        a = sc.propagate(sector, s, t, to=r)
        b = sc.full_space_amplitude(full, s, r, t)
        assert a == pytest.approx(b, abs=1e-11)


def test_full_space_amplitude_validates_input():
    decomp = sc.eigendecompose(np.zeros((3, 3)))
    with pytest.raises(ValueError):
        sc.full_space_amplitude(decomp, 0, 1, 0.0)
    decomp4 = sc.eigendecompose(np.zeros((4, 4)))
    with pytest.raises(ValueError):
        sc.full_space_amplitude(decomp4, 0, 2, 0.0)
