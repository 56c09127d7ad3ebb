"""Eigendecomposition and single-excitation time evolution."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spinchannel as sc
from spinchannel import dynamics
from support import dh_geometry, random_couplings, random_symmetric

# the dense reference, bound before any test replaces np.linalg.eigh
_DENSE_EIGH = np.linalg.eigh


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


# ------------------------------------------------- mirror-symmetric split


@pytest.fixture
def eigh_shapes(monkeypatch):
    """Shapes of the matrices handed to np.linalg.eigh as dynamics sees it."""
    shapes = []

    def recording_eigh(matrix, *args, **kwargs):
        shapes.append(np.shape(matrix))
        return _DENSE_EIGH(matrix, *args, **kwargs)

    monkeypatch.setattr(dynamics.np.linalg, "eigh", recording_eigh)
    return shapes


def _dh_sector(span):
    geo = sc.build_chain_geometry(span, 1, span, double_hole=True)
    J = sc.build_couplings(geo, sc.CouplingModel.power_law())
    return geo, sc.sector_hamiltonian(J).matrix


def _assert_same_decomposition_as_dense(H, decomp):
    dense_values, _ = _DENSE_EIGH(H)
    E, V = decomp.eigenvalues, decomp.eigenvectors
    n = len(dense_values)
    assert np.max(np.abs(E - dense_values)) <= 1e-12 * np.max(np.abs(dense_values))
    assert np.max(np.abs(H @ V - V * E)) <= 1e-10
    assert np.max(np.abs(V.T @ V - np.eye(n))) <= 1e-12
    anchors = np.argmax(np.abs(V), axis=0)
    assert np.all(V[anchors, np.arange(n)] > 0.0)


@pytest.mark.parametrize("span, blocks", [(66, [(32, 32), (32, 32)]), (67, [(33, 33), (32, 32)])])
def test_mirror_split_matches_dense_eigh(eigh_shapes, span, blocks):
    _geo, H = _dh_sector(span)
    decomp = sc.eigendecompose(H)
    assert eigh_shapes == blocks
    _assert_same_decomposition_as_dense(H, decomp)


def test_mirror_split_full_space_matches_sector(eigh_shapes):
    # global spin flip maps basis index b to 2^7 - 1 - b, the index reversal
    J = sc.build_couplings(sc.build_chain_geometry(7), sc.CouplingModel.power_law())
    H = sc.full_hamiltonian(J, True)
    full = sc.eigendecompose(H)
    assert eigh_shapes == [(64, 64), (64, 64)]
    _assert_same_decomposition_as_dense(H, full)
    sector = sc.eigendecompose(sc.sector_hamiltonian(J, True))
    for t in (0.0, 1.3, 89.0):
        expected = sc.propagate(sector, 0, t, to=6)
        assert sc.full_space_amplitude(full, 0, 6, t) == pytest.approx(expected, abs=1e-11)


def test_nearly_mirror_symmetric_matrix_is_diagonalized_as_given(eigh_shapes):
    _geo, H = _dh_sector(102)
    H = H.copy()
    H[3, 10] += 1e-6
    H[10, 3] += 1e-6
    decomp = sc.eigendecompose(H)
    assert eigh_shapes == [(100, 100)]
    assert np.max(np.abs(decomp.eigenvalues - np.linalg.eigvalsh(H))) <= 1e-12


def test_mirror_split_keeps_dominant_pair_mirror_symmetric():
    # the pair's gap is ~1e-9 against |E| ~ 740; a dense eigh mixes it by ~2e-4
    geo, H = _dh_sector(1000)
    decomp = sc.eigendecompose(H)
    overlaps = sc.spectral_overlaps(decomp, geo.sender_index, geo.receiver_index)
    _delta, pair, _mass = sc.two_qubit_effective(decomp, overlaps)
    for j in pair:
        assert abs(overlaps.sigma[j] ** 2 - overlaps.rho[j] ** 2) <= 1e-12


def test_eigh_calls_per_chain(eigh_shapes):
    # long mirror chains take the split path; disordered and short ones do not
    sc.eigendecompose(_dh_sector(200)[1])
    assert eigh_shapes == [(99, 99), (99, 99)]

    eigh_shapes.clear()
    geo = sc.build_chain_geometry(100)
    dipolar = sc.build_couplings(geo, sc.CouplingModel.power_law()).entries
    noise = np.random.default_rng(41).uniform(-0.2, 0.2, size=dipolar.shape)
    disordered = dipolar * (1.0 + 0.5 * (noise + noise.T))
    J = sc.build_couplings(geo, sc.CouplingModel.custom(disordered))
    sc.eigendecompose(sc.sector_hamiltonian(J))
    assert eigh_shapes == [(100, 100)]

    eigh_shapes.clear()
    sc.eigendecompose(_dh_sector(12)[1])
    assert eigh_shapes == [(10, 10)]


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


def test_mirror_chain_transfer_amplitude_matches_closed_form_at_1000_sites():
    # f_1N(t) = (-i sin(lam t / 2))^(N - 1) on the mirror-periodic chain
    # (Christandl et al., PRL 92, 187902, 2004); the grid is a progression
    n, lam = 1000, 2.0
    J = sc.build_couplings(sc.build_chain_geometry(n), sc.CouplingModel.mirror_periodic(lam=lam))
    decomp = sc.eigendecompose(sc.sector_hamiltonian(J, False))
    times = np.linspace(0.0, 2.0 * math.pi / lam, 2000)

    def closed_form(t):
        return (-1j) ** ((n - 1) % 4) * np.sin(lam * t / 2.0) ** (n - 1)

    assert np.max(np.abs(sc.propagate(decomp, 0, times, to=n - 1) - closed_form(times))) <= 1e-12
    for t in [*times[::37].tolist(), *times[995:1005].tolist(), math.pi / lam]:
        assert abs(sc.propagate(decomp, 0, t, to=n - 1) - closed_form(t)) <= 1e-12


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(
    n=st.integers(2, 24),
    seed=st.integers(0, 2**32 - 1),
    t_max=st.floats(0.1, 5.0),
    shift=st.floats(-10.0, 10.0),
)
def test_propagation_invariants_on_random_couplings(n, seed, t_max, shift):
    # a linspace grid and sorted irregular times, so both ways of building the
    # phase block are checked.  The two eigh calls round |E| <~ 60 apart by
    # ~eps |E|, which t turns into phase: t <= 5 keeps that below ~3e-13.
    rng = np.random.default_rng(seed)
    H = sc.sector_hamiltonian(random_couplings(n, rng)).matrix
    decomp = sc.eigendecompose(H)
    shifted = sc.eigendecompose(H + shift * np.eye(n))
    s, r = sorted(rng.choice(n, size=2, replace=False).tolist())
    for times in (np.linspace(0.0, t_max, 60), np.sort(rng.uniform(0.0, t_max, 60))):
        amps = sc.propagate(decomp, s, times)
        assert np.max(np.abs(np.sum(np.abs(amps) ** 2, axis=1) - 1.0)) <= 1e-12
        assert np.max(np.abs(amps[:, r] - sc.propagate(decomp, r, times, to=s))) <= 1e-12
        assert np.max(np.abs(np.abs(sc.propagate(shifted, s, times)) - np.abs(amps))) <= 1e-12


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
