import pytest

import run
import workloads


def test_op_medians_scale_each_time_by_its_own_probe():
    nominal = run.PROBE_NOMINAL_S
    # one op, three passes; the slow pass ran while the probe was twice as slow
    passes = [
        [("op", 1.0, None, nominal)],
        [("op", 2.0, None, 2.0 * nominal)],
        [("op", 1.2, None, nominal)],
    ]
    assert run.op_medians(passes) == [1.2]
    assert run.op_medians(passes, 1.0) == [pytest.approx(1.0)]
    # a partly sensitive workload follows the probe by the given power
    assert run.op_medians([[("op", 2.0, None, 4.0 * nominal)]], 0.5) == [pytest.approx(1.0)]


def test_every_workload_has_a_sensitivity():
    assert set(workloads.HOST_SENSITIVITY) == set(workloads.WORKLOADS)
    assert all(0.0 <= s <= 2.0 for s in workloads.HOST_SENSITIVITY.values())


def test_host_probe_takes_a_positive_time():
    assert run.host_probe() > 0.0
