import sys
import types

import pytest

from spans import Tracer, public_functions


def ticking_clock(*ticks):
    values = iter(ticks)
    return lambda: next(values)


def test_self_time_subtracts_child_spans():
    tracer = Tracer(clock=ticking_clock(0.0, 1.0, 3.0, 4.0, 7.0, 10.0))

    def inner():
        return 1

    traced_inner = tracer.wrap("layer.inner", inner)

    def outer():
        return traced_inner() + traced_inner()

    assert tracer.wrap("layer.outer", outer)() == 2
    table = tracer.table()
    assert table["layer.outer"] == {"calls": 1, "total_s": 10.0, "self_s": 5.0}
    assert table["layer.inner"] == {"calls": 2, "total_s": 5.0, "self_s": 5.0}
    assert tracer.top_level_durations().tolist() == [10.0]


def test_span_is_recorded_when_the_call_raises():
    tracer = Tracer(clock=ticking_clock(0.0, 2.0))

    def broken():
        raise RuntimeError("boom")

    with pytest.raises(RuntimeError):
        tracer.wrap("layer.broken", broken)()
    assert tracer.table()["layer.broken"]["total_s"] == 2.0


@pytest.fixture
def fake_package():
    package = types.ModuleType("fakepkg")
    mod_a = types.ModuleType("fakepkg.a")
    mod_b = types.ModuleType("fakepkg.b")
    exec(
        "def f():\n    return _helper()\n"
        "def _helper():\n    return 'a'\n"
        "class Thing:\n    pass\n",
        mod_a.__dict__,
    )
    mod_b.f = mod_a.f  # imported, as "from .a import f" would
    exec("def h():\n    return f() + 'b'\n", mod_b.__dict__)
    package.f, package.h = mod_a.f, mod_b.h
    modules = {"fakepkg": package, "fakepkg.a": mod_a, "fakepkg.b": mod_b}
    sys.modules.update(modules)
    yield package, mod_a, mod_b
    for key in modules:
        del sys.modules[key]


def test_discovery_wraps_each_public_function_once_and_rebinds_everywhere(fake_package):
    package, mod_a, mod_b = fake_package
    original_f = mod_a.f
    assert set(public_functions(mod_a)) == {"f"}
    assert set(public_functions(mod_b)) == {"h"}

    tracer = Tracer()
    names = tracer.install({"a": mod_a, "b": mod_b}, "fakepkg")
    assert sorted(names) == ["a.f", "b.h"]
    assert mod_a.f is mod_b.f is package.f
    assert mod_a.f is not original_f

    assert package.h() == "ab"
    table = tracer.table()
    assert table["a.f"]["calls"] == 1 and table["b.h"]["calls"] == 1
    # the call from b into a is a child span of b.h
    span_of_f = list(tracer.name_id).index(tracer.names.index("a.f"))
    assert tracer.names[tracer.name_id[tracer.parent[span_of_f]]] == "b.h"

    tracer.uninstall()
    assert mod_a.f is original_f and mod_b.f is original_f and package.f is original_f


def test_hook_sees_arguments_and_result():
    tracer = Tracer()

    def hook(counters, args, kwargs, result):
        counters["seen"] = (args, kwargs, result)

    tracer.wrap("layer.add", lambda x, y=0: x + y, hook)(2, y=3)
    assert tracer.counters["seen"] == ((2,), {"y": 3}, 5)


def test_hook_that_no_longer_fits_its_function_is_reported_not_zeroed():
    from layers import HOOKS

    tracer = Tracer()
    # eigendecompose now returns a bare array: the hook cannot count n^3
    changed = tracer.wrap("dynamics.eigendecompose", lambda matrix: [1.0, 2.0], HOOKS["dynamics.eigendecompose"])
    assert changed(None) == [1.0, 2.0]
    assert "dynamics.eigh_n3_computed" not in tracer.counters
    assert tracer.hook_errors["dynamics.eigendecompose"].startswith("AttributeError")


def test_spinchannel_cross_module_calls_are_wrapped():
    import spinchannel
    import spinchannel.cli
    from layers import LAYERS

    original = spinchannel.dynamics.sector_amplitudes
    tracer = Tracer()
    modules = {layer: getattr(spinchannel, layer) for layer in LAYERS}
    names = tracer.install(modules, "spinchannel")
    try:
        assert "dynamics.sector_amplitudes" in names
        assert "experiments.time_scan" in names
        assert not any(name.split(".")[1].startswith("_") for name in names)
        assert spinchannel.experiments.sector_amplitudes is not original
        geometry = spinchannel.build_chain_geometry(6)
        spinchannel.time_scan(geometry, spinchannel.CouplingModel.power_law(), grid_points=50)
    finally:
        tracer.uninstall()
    assert spinchannel.experiments.sector_amplitudes is original
    table = tracer.table()
    assert table["dynamics.sector_amplitudes"]["calls"] == 50
    assert table["experiments.time_scan"]["calls"] == 1
