"""Config parsing, run outputs, and exit codes."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spinchannel as sc
from spinchannel import cli
from spinchannel.cli import MODES, ConfigError, RunConfig, main, parse_config, run
from support import count_certifications

SRC = Path(__file__).resolve().parent.parent / "src"


# ---------------------------------------------------------------- parsing


def test_parse_minimal_time_scan_defaults():
    # only the keys the file sets reach the library; out defaults to the mode
    config = parse_config("mode = time_scan\npositions = 10\ndh = true\n")
    assert config == RunConfig(mode="time_scan", out="time_scan", chain={"span": 10, "double_hole": True})


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
    assert config.chain == {"span": 12, "double_hole": True}
    assert config.scan == {"theta": 1.5}
    assert config.out == "fig2d"


def test_parse_rejects_unknown_key():
    with pytest.raises(ConfigError, match="foo"):
        parse_config("mode = time_scan\npositions = 4\nfoo = 1\n")


def test_parse_rejects_key_from_other_mode():
    with pytest.raises(ConfigError, match="n_min"):
        parse_config("mode = time_scan\npositions = 4\nn_min = 2\n")


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
    assert config.scan == {"configurations": ("double_hole",)}
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


def test_parse_rejects_out_with_separators():
    with pytest.raises(ConfigError, match="out"):
        parse_config("mode = time_scan\npositions = 4\nout = a/b\n")


_STEMS = st.text(alphabet="abcxyz_019", min_size=1, max_size=8)
_POSITIVE = st.floats(min_value=1e-3, max_value=1e3)
# keys every drawn config sets: those its mode requires, and out, whose default
# test_parse_minimal_time_scan_defaults checks
_REQUIRED = {"mode", "out", "positions", "n_min", "n_max"}


def _render(config: RunConfig) -> list[str]:
    """One line per value the config holds, each under the config key that ``cli._KEYS`` maps to it."""
    lines = []
    for key, (group, name, *_) in cli._KEYS.items():
        value = getattr(config, name) if group is None else getattr(config, group).get(name)
        if value is None:
            continue
        if isinstance(value, bool):
            text = "true" if value else "false"
        elif isinstance(value, tuple):
            text = ",".join(value)
        else:
            text = repr(value) if isinstance(value, float) else str(value)
        lines.append(f"{key} = {text}")
    return lines


@st.composite
def _valid_configs(draw) -> RunConfig:
    mode = draw(st.sampled_from(MODES))
    kinds = ("power_law", "mirror_periodic") if mode == "size_scan" else ("power_law", "mirror_periodic", "custom")
    coupling = draw(st.sampled_from(kinds))
    values = {
        "mode": mode,
        "coupling": coupling,
        "nu": draw(_POSITIVE),
        "c": draw(_POSITIVE),
        "lambda": draw(_POSITIVE),
        "zz": draw(st.booleans()),
        "out": draw(_STEMS),
    }
    if coupling == "custom":
        values["coupling_file"] = draw(_STEMS) + ".txt"
    if mode != "size_scan":
        positions = draw(st.integers(2, 40))
        dh = positions >= 3 and draw(st.booleans())
        gap = 2 if dh else 1
        sender = draw(st.integers(1, positions - gap))
        receiver = draw(st.integers(sender + gap, positions))
        values.update(positions=positions, sender=sender, receiver=receiver, dh=dh)
    if mode != "diagnostics":
        values.update(
            theta=draw(st.floats(0.0, math.pi)),
            phi=draw(st.floats(0.0, 2.0 * math.pi, exclude_max=True)),
            grid_points=draw(st.integers(2, 5000)),
        )
    if mode == "time_scan":
        values["t_max"] = draw(_POSITIVE)
    if mode == "size_scan":
        n_min = draw(st.integers(2, 20))
        layouts = draw(st.sampled_from([("complete",), ("double_hole",), ("complete", "double_hole")]))
        values.update(n_min=n_min, n_max=draw(st.integers(n_min, 30)), configurations=layouts)
    # every key of the mode is drawn, so a new key cannot go unchecked
    applies = {key for key, entry in cli._KEYS.items() if mode in entry[3]}
    assert set(values) == applies - ({"coupling_file"} if coupling != "custom" else set())
    # and any key the file need not set may be left out
    kept = _REQUIRED | ({"coupling", "coupling_file"} if coupling == "custom" else set())
    values = {key: value for key, value in values.items() if key in kept or draw(st.booleans())}
    fields = {"chain": {}, "model": {}, "scan": {}}
    for key, value in values.items():
        group, name = cli._KEYS[key][:2]
        (fields if group is None else fields[group])[name] = value
    return RunConfig(**fields)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(data=st.data())
def test_config_round_trips_through_text(data):
    config = data.draw(_valid_configs())
    lines = data.draw(st.permutations(_render(config)))
    assert parse_config("\n".join(lines) + "\n") == config


# a file of each mode, and a value other than the library's default for each key that sets a library argument
_BASES = {
    "time_scan": "mode = time_scan\npositions = 9\n",
    "size_scan": "mode = size_scan\nn_min = 4\nn_max = 5\n",
    "diagnostics": "mode = diagnostics\npositions = 9\n",
}
_SET = {
    "positions": "7",
    "sender": "2",
    "receiver": "8",
    "dh": "true",
    "coupling": "mirror_periodic",
    "nu": "2.5",
    "c": "0.5",
    "lambda": "3",
    "zz": "false",
    "theta": "2",
    "phi": "1",
    "t_max": "4",
    "grid_points": "50",
    "configurations": "double_hole",
}
# the library call each keyword group of RunConfig goes to, by mode
_CALLS = {
    "time_scan": {"chain": "build_chain_geometry", "model": "CouplingModel", "scan": "time_scan"},
    "size_scan": {"model": "CouplingModel", "scan": "size_scan"},
    "diagnostics": {"chain": "build_chain_geometry", "model": "CouplingModel", "scan": "_chain_sector"},
}


class _Scanned(Exception):
    """Raised in place of the scan, once every library call of a run has its arguments."""


def _library_calls(monkeypatch, tmp_path, text) -> dict[str, dict]:
    """The keyword arguments ``run`` hands each library call for a config text; the scan itself does not run."""
    calls = {}

    def recording(name):
        def record(*args, **kwargs):
            calls[name] = kwargs
            if name in ("time_scan", "size_scan", "_chain_sector"):
                raise _Scanned
            return getattr(sc, name)(*args, **kwargs)

        return record

    for name in ("build_chain_geometry", "CouplingModel", "time_scan", "size_scan", "_chain_sector"):
        monkeypatch.setattr(cli, name, recording(name))
    with pytest.raises(_Scanned):
        run(parse_config(text), out_dir=tmp_path, quiet=True)
    return calls


@pytest.mark.parametrize("mode", MODES)
def test_a_set_key_reaches_its_library_argument_and_an_omitted_key_passes_nothing(monkeypatch, tmp_path, mode):
    checked = 0
    for key, (group, name, parse, modes) in cli._KEYS.items():
        if group is None or mode not in modes:
            continue
        function = _CALLS[mode][group]
        omitted = "".join(line + "\n" for line in _BASES[mode].splitlines() if not line.startswith(f"{key} ="))
        calls = _library_calls(monkeypatch, tmp_path, omitted + f"{key} = {_SET[key]}\n")
        assert calls[function][name] == parse(_SET[key]), key
        if key == "positions":
            # the one library argument without a default is a key the mode requires
            with pytest.raises(ConfigError, match="requires the key 'positions'"):
                parse_config(omitted)
        else:
            assert name not in _library_calls(monkeypatch, tmp_path, omitted)[function], key
        checked += 1
    assert checked == {"time_scan": 13, "size_scan": 9, "diagnostics": 9}[mode]


# ---------------------------------------------------------------- run outputs


def test_csv_writes_each_value_as_a_summary_field_does():
    floats = [0.0, -0.0, 1.0 / 3.0, -2.5e-300, 5e-324, 1.7976931348623157e308, math.inf, -math.inf, math.nan]
    columns = {
        "f": floats,
        "i": list(range(-4, 5)),
        "big": [2**60, -(2**53) - 1, 0, 7, 8, 1, 2, 3, 4],
        "s": ["a", "b c", "", "x", "y", "z", "1", "2", "3"],
    }
    expected = "f,i,big,s\n" + "".join(",".join(map(cli._text, row)) + "\n" for row in zip(*columns.values()))
    assert cli._csv(columns) == expected
    assert cli._csv({"h": [], "g": []}) == "h,g\n"


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
    # booleans are written true/false
    summary_lines = summary.splitlines()
    assert "zz_diagonal = true" in summary_lines
    assert ("window_extended = true" in summary_lines) != ("window_extended = false" in summary_lines)


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


@pytest.mark.parametrize("mode", ["time_scan", "diagnostics"])
def test_run_builds_a_custom_coupling_matrix_once(tmp_path, monkeypatch, mode):
    calls = []
    build = sc.model.build_couplings

    def counting(geometry, model):
        calls.append(model.kind)
        return build(geometry, model)

    # the one caller, model._chain_sector, which both modes go through
    monkeypatch.setattr(sc.model, "build_couplings", counting)
    (tmp_path / "j.txt").write_text("3\n0.0 1.0 0.5\n1.0 0.0 1.0\n0.5 1.0 0.0\n")
    config = parse_config(
        f"mode = {mode}\npositions = 3\ncoupling = custom\ncoupling_file = {tmp_path / 'j.txt'}\n"
    )
    run(config, out_dir=tmp_path, quiet=True)
    assert calls == ["custom"]


@pytest.mark.parametrize("mode", ["time_scan", "diagnostics"])
def test_run_certifies_a_custom_coupling_matrix_once(tmp_path, monkeypatch, mode):
    certified = count_certifications(monkeypatch)
    (tmp_path / "j.txt").write_text("3\n0.0 1.0 0.5\n1.0 0.0 1.0\n0.5 1.0 0.0\n")
    config = parse_config(
        f"mode = {mode}\npositions = 3\ncoupling = custom\ncoupling_file = {tmp_path / 'j.txt'}\n"
    )
    run(config, out_dir=tmp_path, quiet=True)
    assert len(certified) == 1


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


def test_run_keeps_earlier_outputs_when_a_later_write_fails(tmp_path, monkeypatch):
    config = parse_config("mode = time_scan\npositions = 4\ngrid_points = 50\nout = out\n")
    (tmp_path / "out.csv").write_text("an earlier run\n")
    # the second file opened for writing fails, as on a full disk
    opened = Path.open
    writes = []

    def failing_open(self, mode="r", *args, **kwargs):
        if "w" in mode or "x" in mode:
            writes.append(self)
            if len(writes) == 2:
                raise OSError(28, "No space left on device")
        return opened(self, mode, *args, **kwargs)

    monkeypatch.setattr(Path, "open", failing_open)
    with pytest.raises(OSError):
        run(config, out_dir=tmp_path, quiet=True)
    monkeypatch.undo()
    assert (tmp_path / "out.csv").read_text() == "an earlier run\n"
    # and no temporary is left behind
    assert sorted(path.name for path in tmp_path.iterdir()) == ["out.csv"]


def test_run_replaces_earlier_outputs_and_leaves_no_temporaries(tmp_path):
    config = parse_config("mode = time_scan\npositions = 4\ngrid_points = 50\nout = out\n")
    (tmp_path / "out.csv").write_text("an earlier run\n")
    (tmp_path / "plain.txt").write_text("")
    written = run(config, out_dir=tmp_path, quiet=True)
    assert written == [tmp_path / "out.csv", tmp_path / "out_summary.txt"]
    assert sorted(path.name for path in tmp_path.iterdir()) == ["out.csv", "out_summary.txt", "plain.txt"]
    assert (tmp_path / "out.csv").read_text().startswith("t,re_f_ss,")
    # the outputs get the permissions of a file written in place
    for path in written:
        assert path.stat().st_mode == (tmp_path / "plain.txt").stat().st_mode


def test_run_maps_a_value_the_library_rejects_to_config_error(tmp_path):
    # parse_config does not check theta; the scan does, before any output
    config = RunConfig(mode="time_scan", out="time_scan", chain={"span": 4}, scan={"theta": 9.0})
    with pytest.raises(ConfigError, match="theta"):
        run(config, out_dir=tmp_path / "results", quiet=True)
    assert not (tmp_path / "results").exists()


def test_run_maps_bad_custom_matrix_to_config_error(tmp_path):
    bad = tmp_path / "j.txt"
    bad.write_text("2\n0.0 1.0\n2.0 0.0\n")
    config = parse_config(
        f"mode = time_scan\npositions = 2\ncoupling = custom\ncoupling_file = {bad}\n"
    )
    with pytest.raises(ConfigError):
        run(config, out_dir=tmp_path, quiet=True)


def _summary_fields(text):
    return dict(line.split(" = ", 1) for line in text.splitlines())


def test_main_mirror_periodic_transfers_perfectly(tmp_path):
    config_path = tmp_path / "run.conf"
    config_path.write_text(
        "mode = time_scan\npositions = 9\ncoupling = mirror_periodic\nlambda = 2\nzz = false\nout = mirror\n"
    )
    assert main([str(config_path), "--out", str(tmp_path), "--quiet"]) == 0
    summary = _summary_fields((tmp_path / "mirror_summary.txt").read_text())
    assert float(summary["peak_fidelity"]) >= 1.0 - 1e-12
    assert abs(float(summary["peak_fidelity_t"]) - math.pi / 2.0) <= 1e-6
    # the window is 2 pi / lambda, the exact transfer time pi / lambda doubled
    assert float(summary["t_max"]) == math.pi


def test_main_degenerate_pair_summary(tmp_path):
    # a fixed window scans a chain whose dominant pair has no gap; without
    # one, test_main_numerical_failure exits 3
    (tmp_path / "zero.txt").write_text("2\n0.0 0.0\n0.0 0.0\n")
    config_path = tmp_path / "run.conf"
    config_path.write_text(
        "mode = time_scan\npositions = 2\ncoupling = custom\ncoupling_file = zero.txt\nt_max = 1\nout = flat\n"
    )
    assert main([str(config_path), "--out", str(tmp_path), "--quiet"]) == 0
    summary = _summary_fields((tmp_path / "flat_summary.txt").read_text())
    assert summary["delta_eff"] == "degenerate"
    assert "dominant_pair" not in summary
    assert "dominant_pair_mass" not in summary


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
        # numbers are spelled as in a coupling file: int and float alone read these
        ("mode = time_scan\npositions = 1_000\n", ("line 2", "positions", "integer")),
        ("mode = time_scan\npositions = \u0662\u0660\n", ("line 2", "positions", "integer")),
        (_TIME + "theta = 1_0e-1\n", ("line 3", "theta", "real number")),
        (_TIME + "t_max = \u0661\u0660\n", ("line 3", "t_max", "real number")),
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
        (_TIME + "nu = abc\n", ("line 3", "nu", "real number")),
        (_TIME + "= 3\n", ("line 3", "missing key")),
        ("mode = diagnostics\n", ("diagnostics", "requires the key 'positions'")),
        # values only the library checks, once the run builds from them
        (_TIME + "nu = -1\n", ("nu must be > 0",)),
        (_TIME + "theta = 9\n", ("theta",)),
        (_TIME + "grid_points = 1\n", ("grid_points",)),
        (_TIME + "sender = 4\nreceiver = 2\n", ("sender",)),
        (_TIME + "receiver = 2\ndh = true\n", ("receiver - sender",)),
        (_SIZE + "theta = 9\n", ("theta",)),
        (_SIZE + "grid_points = 1\n", ("grid_points",)),
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


def test_main_rejects_undecodable_config_with_exit_2(tmp_path, capsys):
    config_path = tmp_path / "run.conf"
    config_path.write_bytes(b"mode = time_scan\npositions = 4\nout = \xff\n")
    assert main([str(config_path), "--out", str(tmp_path / "results"), "--quiet"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: ")
    assert captured.err.count("\n") == 1
    assert not (tmp_path / "results").exists()


def _module_main(tmp_path, text):
    """Run ``python -m spinchannel.cli`` on a config holding text."""
    (tmp_path / "run.conf").write_text(text)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-m", "spinchannel.cli", "run.conf", "--out", "results", "--quiet"],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_module_entry_point_runs_the_readme_example(tmp_path):
    done = _module_main(tmp_path, "mode = time_scan\npositions = 12\ndh = true\nout = bench\n")
    assert done.returncode == 0, done.stderr
    assert sorted(p.name for p in (tmp_path / "results").iterdir()) == ["bench.csv", "bench_summary.txt"]


def test_module_entry_point_rejects_a_bad_config_with_exit_2(tmp_path):
    done = _module_main(tmp_path, "mode = time_scan\npositions = 4\nfoo = 1\n")
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.startswith("config error:")
    assert done.stderr.count("\n") == 1
    assert "unknown key 'foo'" in done.stderr


def test_main_rejects_the_lattice_spacing_key_with_exit_2(tmp_path, capsys):
    # a lattice spacing a is folded into the strength: c = C / a^nu
    config_path = tmp_path / "run.conf"
    config_path.write_text("mode = time_scan\npositions = 4\na = 2\n")
    assert main([str(config_path), "--out", str(tmp_path / "results"), "--quiet"]) == 2
    assert capsys.readouterr().err == "config error: line 3: unknown key 'a'\n"
    assert not (tmp_path / "results").exists()


@pytest.mark.parametrize(
    ("text", "code", "err"),
    [
        # lambda / 2 sqrt(i (N - i)) overflows to inf, which the coupling matrix rejects
        (
            "mode = diagnostics\npositions = 6\ncoupling = mirror_periodic\nlambda = 1.7e308\n",
            2,
            "config error: coupling matrix has non-finite entries\n",
        ),
        # the same on a chain long enough for the mirror split
        (
            "mode = diagnostics\npositions = 100\ncoupling = mirror_periodic\nlambda = 1.7e308\n",
            2,
            "config error: coupling matrix has non-finite entries\n",
        ),
        # finite couplings whose spectrum overflows: one dense eigh, then the parity blocks
        (
            "mode = diagnostics\npositions = 40\nc = 1.5e308\nzz = false\n",
            3,
            "numerical failure: eigenvalue 0 of 40 is -inf: the spectrum overflows\n",
        ),
        (
            "mode = diagnostics\npositions = 70\nc = 1.5e308\nzz = false\n",
            3,
            "numerical failure: eigenvalue 0 of 70 is -inf: the spectrum overflows\n",
        ),
        # finite couplings whose sum folds past the float range
        (
            "mode = diagnostics\npositions = 70\nc = 1.7e308\nzz = false\n",
            3,
            "numerical failure: the mirror fold of H overflows: even block entry (33, 34) is inf\n",
        ),
        # d^2000 overflows for d >= 2, and 1 / inf = 0 is the right coupling there
        ("mode = time_scan\npositions = 4\nnu = 2000\ngrid_points = 100\n", 0, ""),
    ],
)
def test_module_entry_point_prints_no_floating_point_warnings(tmp_path, text, code, err):
    done = _module_main(tmp_path, text)
    assert (done.returncode, done.stdout, done.stderr) == (code, "", err)


def test_main_numerical_failure(tmp_path, capsys):
    matrix_path = tmp_path / "zero.txt"
    matrix_path.write_text("2\n0.0 0.0\n0.0 0.0\n")
    config_path = tmp_path / "run.conf"
    config_path.write_text(
        "mode = time_scan\npositions = 2\ncoupling = custom\ncoupling_file = zero.txt\n"
    )
    assert main([str(config_path), "--out", str(tmp_path), "--quiet"]) == 3
    err = capsys.readouterr().err
    assert "numerical failure" in err
    # the default window needs the dominant pair's gap, and it has none
    assert "degenerate" in err
    assert not (tmp_path / "time_scan.csv").exists()


def test_main_rejects_overflowing_coupling_file_with_exit_2(tmp_path, capsys):
    # every entry is finite, but each row of 19 sums past the float range
    rows = [" ".join("0" if i == k else "1e307" for k in range(20)) for i in range(20)]
    (tmp_path / "huge.txt").write_text("20\n" + "\n".join(rows) + "\n")
    config_path = tmp_path / "run.conf"
    config_path.write_text("mode = diagnostics\npositions = 20\ncoupling = custom\ncoupling_file = huge.txt\n")
    assert main([str(config_path), "--out", str(tmp_path / "results"), "--quiet"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "config error: the couplings' row sums overflow: "
        "the diagonal 2 sum_j J_nj - sum_{i<j} J_ij is not finite\n"
    )
    assert not (tmp_path / "results").exists()


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
