import math

import numpy as np
import pytest

import checks
import workloads


def flatten(inputs):
    chains = inputs.get("chains", []) + ([inputs["warmup"]] if "warmup" in inputs else [])
    return [(c.label, c.theta, c.phi, None if c.matrix is None else c.matrix.tobytes()) for c in chains] + [
        inputs["custom800"].tobytes() if "custom800" in inputs else None
    ]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_gives_identical_inputs(name):
    assert flatten(workloads.generate(name, 7)) == flatten(workloads.generate(name, 7))


@pytest.mark.parametrize("name", ["dh_large", "sweep_small", "cli_mix"])
def test_different_seeds_give_different_inputs(name):
    assert flatten(workloads.generate(name, 7)) != flatten(workloads.generate(name, 8))


def test_disordered_couplings_are_exactly_symmetric_with_zero_diagonal():
    J = workloads.disordered_dipolar(9, np.random.default_rng(0))
    np.testing.assert_array_equal(J, J.T)
    assert not np.any(np.diag(J))


def test_coupling_file_round_trips_through_the_package(tmp_path):
    import spinchannel

    J = workloads.disordered_dipolar(12, np.random.default_rng(3))
    path = tmp_path / "couplings.txt"
    workloads.write_coupling_file(path, J)
    np.testing.assert_array_equal(spinchannel.load_coupling_matrix(path).entries, J)


def test_checks_flag_a_wrong_mirror_peak():
    chain = workloads.Chain("mirror6", 6, coupling="mirror_periodic", zz=False)
    t = math.pi / workloads.MIRROR_LAMBDA
    good = checks.Report()
    checks.check_peaks(good, "m", checks.Peaks(chain, t, 1.0, t / 2.0, 2.0 * 0.5**5, 2.0 * t))
    assert good.problems == {}
    bad = checks.Report()
    checks.check_peaks(bad, "m", checks.Peaks(chain, t, 0.9, t / 2.0, 2.0 * 0.5**5, 2.0 * t))
    assert "m" in bad.problems
