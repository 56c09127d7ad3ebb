"""Config parsing, run outputs, and exit codes."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spinchannel as sc
from spinchannel.cli import MODES, ConfigError, RunConfig, main, parse_config, run


# ---------------------------------------------------------------- parsing


def test_parse_minimal_time_scan_defaults():
    config = parse_config("mode = time_scan\npositions = 10\ndh = true\n")
    assert config.mode == "time_scan"
    assert config.positions == 10
    assert config.sender == 1
    assert config.receiver == 10
    assert config.dh is True
    assert config.coupling == "power_law"
    assert config.nu == 3.0
    assert config.c == 1.0
    assert config.a == 1.0
    assert config.zz is True
    assert config.theta == math.pi
    assert config.phi == 0.0
    assert config.t_max is None
    assert config.grid_points == 2000
    assert config.out == "time_scan"


def test_parse_comments_and_spacing():
    config = parse_config(
        "# a full example\n"
        "mode = time_scan   # scan type\n"
        "\n"
        "positions=12\n"
        "  dh = true\n"
        "theta = 1.5\n"
        "out = fig2d\n"
    )
    assert config.positions == 12
    assert config.theta == 1.5
    assert config.out == "fig2d"


def test_parse_rejects_unknown_key():
    with pytest.raises(ConfigError, match="foo"):
        parse_config("mode = time_scan\npositions = 4\nfoo = 1\n")


def test_parse_rejects_key_from_other_mode():
    with pytest.raises(ConfigError, match="n_min"):
        parse_config("mode = time_scan\npositions = 4\nn_min = 2\n")


def test_parse_rejects_constraint_violations():
    with pytest.raises(ConfigError, match=r"nu must be > 0"):
        parse_config("mode = time_scan\npositions = 4\nnu = -1\n")
    with pytest.raises(ConfigError, match="theta"):
        parse_config("mode = time_scan\npositions = 4\ntheta = 9\n")
    with pytest.raises(ConfigError, match="grid_points"):
        parse_config("mode = time_scan\npositions = 4\ngrid_points = 1\n")
    with pytest.raises(ConfigError, match="sender"):
        parse_config("mode = time_scan\npositions = 4\nsender = 4\nreceiver = 2\n")
    with pytest.raises(ConfigError, match="receiver - sender"):
        parse_config("mode = time_scan\npositions = 4\nreceiver = 2\ndh = true\n")


def test_parse_rejects_malformed_lines():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config("just some words\n")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config("mode = time_scan\nmode = size_scan\npositions = 4\n")
    with pytest.raises(ConfigError, match="missing value"):
        parse_config("mode =\n")
    with pytest.raises(ConfigError, match="mode"):
        parse_config("positions = 4\n")
    with pytest.raises(ConfigError, match="true or false"):
        parse_config("mode = time_scan\npositions = 4\ndh = yes\n")


def test_parse_size_scan_keys():
    config = parse_config(
        "mode = size_scan\nn_min = 6\nn_max = 12\nconfigurations = double_hole\n"
    )
    assert config.n_min == 6
    assert config.n_max == 12
    assert config.configurations == ("double_hole",)
    with pytest.raises(ConfigError, match="n_min"):
        parse_config("mode = size_scan\nn_max = 8\n")
    with pytest.raises(ConfigError, match="n_max"):
        parse_config("mode = size_scan\nn_min = 9\nn_max = 8\n")
    with pytest.raises(ConfigError, match="configurations"):
        parse_config("mode = size_scan\nn_min = 4\nn_max = 6\nconfigurations = ring\n")


def test_parse_custom_coupling_constraints():
    config = parse_config(
        "mode = diagnostics\npositions = 3\ncoupling = custom\ncoupling_file = j.txt\n"
    )
    assert config.coupling_file == "j.txt"
    with pytest.raises(ConfigError, match="coupling_file"):
        parse_config("mode = diagnostics\npositions = 3\ncoupling = custom\n")
    with pytest.raises(ConfigError, match="coupling_file"):
        parse_config("mode = diagnostics\npositions = 3\ncoupling_file = j.txt\n")
    with pytest.raises(ConfigError, match="custom"):
        parse_config(
            "mode = size_scan\nn_min = 2\nn_max = 4\ncoupling = custom\ncoupling_file = j.txt\n"
        )


def test_parse_rejects_out_with_separators():
    with pytest.raises(ConfigError, match="out"):
        parse_config("mode = time_scan\npositions = 4\nout = a/b\n")


# RunConfig fields each mode reads; the config key is the field name except lam
_COMMON_FIELDS = ("mode", "coupling", "nu", "c", "a", "lam", "coupling_file", "zz", "out")
_MODE_FIELDS = {
    "time_scan": ("positions", "sender", "receiver", "dh", "theta", "phi", "t_max", "grid_points"),
    "size_scan": ("n_min", "n_max", "configurations", "theta", "phi", "grid_points"),
    "diagnostics": ("positions", "sender", "receiver", "dh"),
}
_STEMS = st.text(alphabet="abcxyz_019", min_size=1, max_size=8)
_POSITIVE = st.floats(min_value=1e-3, max_value=1e3)


def _render(config: RunConfig) -> list[str]:
    lines = []
    for name in _COMMON_FIELDS + _MODE_FIELDS[config.mode]:
        value = getattr(config, name)
        if value is None:
            continue
        if isinstance(value, bool):
            text = "true" if value else "false"
        elif isinstance(value, tuple):
            text = ",".join(value)
        else:
            text = repr(value) if isinstance(value, float) else str(value)
        lines.append(f"{'lambda' if name == 'lam' else name} = {text}")
    return lines


@st.composite
def _valid_configs(draw) -> RunConfig:
    mode = draw(st.sampled_from(MODES))
    kinds = ("power_law", "mirror_periodic") if mode == "size_scan" else ("power_law", "mirror_periodic", "custom")
    coupling = draw(st.sampled_from(kinds))
    fields = dict(
        mode=mode,
        coupling=coupling,
        nu=draw(_POSITIVE),
        c=draw(_POSITIVE),
        a=draw(_POSITIVE),
        lam=draw(_POSITIVE),
        coupling_file=draw(_STEMS) + ".txt" if coupling == "custom" else None,
        zz=draw(st.booleans()),
        out=draw(_STEMS),
    )
    if mode != "size_scan":
        positions = draw(st.integers(2, 40))
        dh = positions >= 3 and draw(st.booleans())
        gap = 2 if dh else 1
        sender = draw(st.integers(1, positions - gap))
        receiver = draw(st.integers(sender + gap, positions))
        fields.update(positions=positions, sender=sender, receiver=receiver, dh=dh)
    if mode != "diagnostics":
        fields.update(
            theta=draw(st.floats(0.0, math.pi)),
            phi=draw(st.floats(0.0, 2.0 * math.pi, exclude_max=True)),
            grid_points=draw(st.integers(2, 5000)),
        )
    if mode == "time_scan":
        fields["t_max"] = draw(st.none() | _POSITIVE)
    if mode == "size_scan":
        n_min = draw(st.integers(2, 20))
        layouts = draw(st.sampled_from([("complete",), ("double_hole",), ("complete", "double_hole")]))
        fields.update(n_min=n_min, n_max=draw(st.integers(n_min, 30)), configurations=layouts)
    return RunConfig(**fields)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(data=st.data())
def test_config_round_trips_through_text(data):
    # the rendering names every RunConfig field, so a new field cannot go unchecked
    names = {field.name for field in dataclasses.fields(RunConfig)}
    assert set(_COMMON_FIELDS).union(*_MODE_FIELDS.values()) == names
    config = data.draw(_valid_configs())
    lines = data.draw(st.permutations(_render(config)))
    assert parse_config("\n".join(lines) + "\n") == config


# ---------------------------------------------------------------- run outputs


def test_run_time_scan_writes_csv_and_summary(tmp_path):
    config = parse_config(
        "mode = time_scan\npositions = 12\ndh = true\ngrid_points = 300\nout = trace\n"
    )
    files = run(config, out_dir=tmp_path, quiet=True)
    assert [path.name for path in files] == ["trace.csv", "trace_summary.txt"]
    lines = files[0].read_text().splitlines()
    assert lines[0] == "t,re_f_ss,im_f_ss,re_f_sr,im_f_sr,fidelity,avg_fidelity,concurrence,dispersion"
    assert len(lines) == 301
    first = lines[1].split(",")
    assert first[0] == "0"
    assert float(first[1]) == pytest.approx(1.0, abs=1e-12)
    assert float(first[2]) == pytest.approx(0.0, abs=1e-12)
    summary = files[1].read_text()
    assert "peak_concurrence" in summary
    assert "delta_eff" in summary
    assert "gamma_m" in summary
    assert "dominant_pair_mass" in summary


def test_run_time_scan_concurrence_column_peaks_high(tmp_path):
    config = parse_config("mode = time_scan\npositions = 12\ndh = true\nout = dh10\n")
    files = run(config, out_dir=tmp_path, quiet=True)
    rows = [line.split(",") for line in files[0].read_text().splitlines()[1:]]
    concurrence = np.array([float(row[7]) for row in rows])
    assert concurrence.max() >= 0.99


def test_run_size_scan_row_count(tmp_path):
    config = parse_config(
        "mode = size_scan\nn_min = 6\nn_max = 12\ngrid_points = 400\nout = sizes\n"
    )
    files = run(config, out_dir=tmp_path, quiet=True)
    lines = files[0].read_text().splitlines()
    assert lines[0] == "n_spins,configuration,max_concurrence,t_at_max,max_fidelity,t_at_max_f"
    assert len(lines) == 15  # header + 14 rows
    assert lines[1].startswith("6,complete,")
    assert lines[2].startswith("6,double_hole,")


def test_run_diagnostics_two_sites(tmp_path):
    config = parse_config("mode = diagnostics\npositions = 2\nout = diag\n")
    files = run(config, out_dir=tmp_path, quiet=True)
    lines = files[0].read_text().splitlines()
    assert lines[0] == "j,E_j,sigma_sq,rho_sq,gamma_sq,residual"
    assert len(lines) == 3
    for line in lines[1:]:
        fields = line.split(",")
        assert fields[4] == "0"  # gamma_sq vanishes for two sites
        assert float(fields[2]) == pytest.approx(0.5, abs=1e-12)


def test_run_custom_coupling_file(tmp_path):
    matrix_path = tmp_path / "j.txt"
    matrix_path.write_text("2\n0.0 0.5\n0.5 0.0\n")
    config = parse_config(
        "mode = time_scan\npositions = 2\ncoupling = custom\n"
        f"coupling_file = {matrix_path}\ngrid_points = 500\nout = pair\n"
    )
    files = run(config, out_dir=tmp_path, quiet=True)
    summary = files[1].read_text()
    assert "delta_eff = 1" in summary


def test_run_cleans_up_partial_files(tmp_path):
    (tmp_path / "j.txt").write_text("2\n0.0 0.5\n0.5 0.0\n")
    config = parse_config(
        "mode = time_scan\npositions = 2\ncoupling = custom\n"
        f"coupling_file = {tmp_path / 'j.txt'}\ngrid_points = 50\nout = broken\n"
    )
    # make the second output path unwritable by occupying it with a directory
    (tmp_path / "broken_summary.txt").mkdir()
    with pytest.raises(OSError):
        run(config, out_dir=tmp_path, quiet=True)
    assert not (tmp_path / "broken.csv").exists()


def test_run_maps_bad_custom_matrix_to_config_error(tmp_path):
    bad = tmp_path / "j.txt"
    bad.write_text("2\n0.0 1.0\n2.0 0.0\n")
    config = parse_config(
        f"mode = time_scan\npositions = 2\ncoupling = custom\ncoupling_file = {bad}\n"
    )
    with pytest.raises(ConfigError):
        run(config, out_dir=tmp_path, quiet=True)


# ---------------------------------------------------------------- exit codes


def test_main_success_and_quiet(tmp_path, capsys):
    config_path = tmp_path / "run.conf"
    config_path.write_text("mode = diagnostics\npositions = 3\n")
    assert main([str(config_path), "--out", str(tmp_path / "results"), "--quiet"]) == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert (tmp_path / "results" / "diagnostics.csv").exists()


def test_main_reports_summary(tmp_path, capsys):
    config_path = tmp_path / "run.conf"
    config_path.write_text("mode = time_scan\npositions = 2\ngrid_points = 64\n")
    assert main([str(config_path), "--out", str(tmp_path)]) == 0
    captured = capsys.readouterr()
    assert "peak_fidelity" in captured.out


def test_main_missing_config_file(tmp_path, capsys):
    assert main([str(tmp_path / "absent.conf")]) == 2
    assert "config error" in capsys.readouterr().err


def test_main_invalid_config(tmp_path, capsys):
    config_path = tmp_path / "run.conf"
    config_path.write_text("mode = time_scan\npositions = 4\nnu = -3\n")
    assert main([str(config_path)]) == 2
    assert "nu" in capsys.readouterr().err


_TIME = "mode = time_scan\npositions = 4\n"
_SIZE = "mode = size_scan\nn_min = 4\nn_max = 6\n"


@pytest.mark.parametrize(
    ("text", "fragments"),
    [
        ("mode = time_scan\npositions = 1.5\n", ("line 2", "positions", "integer")),
        (_TIME + "nu = inf\n", ("line 3", "nu", "finite")),
        (_TIME + "coupling = ring\n", ("line 3", "coupling", "one of")),
        (_TIME + "coupling = mirror_periodic\nlambda = 0\n", ("lam", "must be > 0")),
        (_TIME + "phi = 7\n", ("phi must lie in",)),
        (_TIME + "t_max = 0\n", ("t_max must be > 0",)),
        ("mode = size_scan\nn_min = 1\nn_max = 4\n", ("n_min must be >= 2",)),
        ("mode = size_scan\nn_min = 5\nn_max = 4\n", ("n_max must be >= n_min",)),
        (_TIME + "out = a\\b\n", ("out must be a bare file stem",)),
        (_SIZE + "coupling = custom\ncoupling_file = j.txt\n", ("size_scan", "custom")),
        (_TIME + "coupling = mirror_periodic\nnu = -1\n", ("nu must be > 0",)),
        (
            _TIME + "foo = 1\nn_min = 2\n",
            ("line 3: unknown key 'foo'", "line 4: key 'n_min' does not apply to mode 'time_scan'"),
        ),
        # the test writes j.txt as a 3x3 matrix, which does not fit 4 sites
        (_TIME + "coupling = custom\ncoupling_file = j.txt\n", ("3x3", "4 sites")),
        ("mode = diagnostics\npositions = 4\ncoupling = custom\ncoupling_file = j.txt\n", ("3x3", "4 sites")),
    ],
)
def test_main_rejects_config_with_exit_2(tmp_path, capsys, text, fragments):
    (tmp_path / "j.txt").write_text("3\n0.0 1.0 0.0\n1.0 0.0 1.0\n0.0 1.0 0.0\n")
    config_path = tmp_path / "run.conf"
    config_path.write_text(text)
    assert main([str(config_path), "--out", str(tmp_path / "results"), "--quiet"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: ")
    assert captured.err.count("\n") == 1
    for fragment in fragments:
        assert fragment in captured.err
    assert not (tmp_path / "results").exists()


def test_main_numerical_failure(tmp_path, capsys):
    matrix_path = tmp_path / "zero.txt"
    matrix_path.write_text("2\n0.0 0.0\n0.0 0.0\n")
    config_path = tmp_path / "run.conf"
    config_path.write_text(
        "mode = time_scan\npositions = 2\ncoupling = custom\ncoupling_file = zero.txt\n"
    )
    assert main([str(config_path), "--out", str(tmp_path), "--quiet"]) == 3
    assert "numerical failure" in capsys.readouterr().err
    assert not (tmp_path / "time_scan.csv").exists()


@pytest.mark.parametrize("error", [MemoryError(), MemoryError("Unable to allocate 8.00 GiB for an array")])
def test_main_maps_memory_error_to_exit_3(tmp_path, capsys, monkeypatch, error):
    def exhausted(*args, **kwargs):
        raise error

    monkeypatch.setattr("spinchannel.cli.run", exhausted)
    config_path = tmp_path / "run.conf"
    config_path.write_text("mode = diagnostics\npositions = 3\n")
    assert main([str(config_path), "--quiet"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: ")
    assert "memory" in err
    assert err.count("\n") == 1


def test_main_resolves_coupling_file_relative_to_config(tmp_path, capsys):
    (tmp_path / "j.txt").write_text("2\n0.0 1.0\n1.0 0.0\n")
    config_path = tmp_path / "run.conf"
    config_path.write_text(
        "mode = diagnostics\npositions = 2\ncoupling = custom\ncoupling_file = j.txt\n"
    )
    out_dir = tmp_path / "elsewhere"
    assert main([str(config_path), "--out", str(out_dir), "--quiet"]) == 0
    assert (out_dir / "diagnostics.csv").exists()


def test_cli_output_is_deterministic(tmp_path):
    config_path = tmp_path / "run.conf"
    config_path.write_text(
        "mode = time_scan\npositions = 12\ndh = true\ngrid_points = 250\nout = rep\n"
    )
    assert main([str(config_path), "--out", str(tmp_path / "a"), "--quiet"]) == 0
    assert main([str(config_path), "--out", str(tmp_path / "b"), "--quiet"]) == 0
    first = (tmp_path / "a" / "rep.csv").read_bytes()
    second = (tmp_path / "b" / "rep.csv").read_bytes()
    assert first == second
