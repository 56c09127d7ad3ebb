import math

import numpy as np
import pytest

import reference


def mirror_chain(n, lam):
    return reference.ReferenceChain.from_couplings(reference.mirror_couplings(n, lam), False, 0, n - 1)


@pytest.mark.parametrize("n", [2, 5, 8, 11])
def test_mirror_chain_matches_closed_form(n):
    lam = 2.0
    chain = mirror_chain(n, lam)
    times = np.array([0.0, 0.1, 0.7, math.pi / lam, 2.3, 40.0])
    exact = (-1j * np.sin(lam * times / 2.0)) ** (n - 1)
    _f_ss, f_sr = chain.amplitudes(times)
    assert np.max(np.abs(f_sr - exact)) < 1e-12
    for t, value in zip(times, exact):
        assert abs(chain.amplitudes_exact(t)[1] - value) < 1e-12
        assert abs(chain.site_amplitudes_exact(t)[n - 1] - value) < 1e-12


def test_mirror_chain_window_maxima():
    n, lam = 9, 2.0
    chain = mirror_chain(n, lam)
    t_max = 2.0 * math.pi / lam
    assert reference.fidelity_window_max(chain, t_max) == pytest.approx(1.0, abs=1e-12)
    # |f_ss| |f_sr| = |sin(lam t) / 2|^(n-1), largest at lam t = pi / 2
    expected_c = 2.0 * 0.5 ** (n - 1)
    assert reference.concurrence_window_max(chain, t_max, math.pi) == pytest.approx(expected_c, rel=1e-10)


def test_sector_matrix_follows_the_documented_formula():
    J = reference.power_law_couplings([1, 2, 4])
    H = reference.sector_matrix(J, zz=True)
    np.testing.assert_array_equal(H - np.diag(np.diag(H)), J)
    np.testing.assert_allclose(np.diag(H), 2.0 * J.sum(axis=1))
    assert J[0, 2] == pytest.approx(1.0 / 27.0)


def test_window_max_finds_a_narrow_peak_between_samples():
    # one fast lobe; its top lies between grid points of a coarse grid
    series = lambda t: np.cos(5.0 * (np.asarray(t) - 1.2345)) ** 2
    assert reference.window_max(series, bandwidth=10.0, t_max=3.0) == pytest.approx(1.0, abs=1e-12)
