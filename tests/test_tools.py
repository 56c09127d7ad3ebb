"""The repository's tools: the line counter of tools/src_lines.py, the summary of tools/ab_pairs.py and the
encoding of tools/output_digest.py."""

import dataclasses
import importlib.util
import os
import sys
from pathlib import Path

import numpy as np
import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"

# line kinds: 1-2 module docstring, 9 class docstring, 12-15 a function
# docstring with a blank line inside, 7 and 17 comment-only, 4, 8, 11 and 16
# code (4 and 16 holding "#"), 3, 5, 6 and 10 blank
MODULE = '''"""A module docstring
on two lines."""

import os  # a code line with a comment


# a comment-only line
class Thing:
    """A class docstring."""

    def method(self):
        """A function docstring

        with a blank line inside.
        """
        return "#" + os.sep  # also code
        # an indented comment-only line
'''


def _tool(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _src_lines():
    return _tool("src_lines")


def test_src_lines_counts_each_kind(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(MODULE)
    counts = _src_lines().count(path)
    assert counts == {"code": 4, "docstring": 7, "comment": 2, "blank": 4, "all": 17}


def test_src_lines_totals_a_directory(tmp_path, capsys):
    for name in ("a.py", "b.py"):
        (tmp_path / name).write_text(MODULE)
    (tmp_path / "notes.txt").write_text("# not Python\n")
    assert _src_lines().main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["module", "all", "code", "docstring", "comment", "blank"]
    assert [line.split()[0] for line in lines[1:]] == [str(tmp_path / "a.py"), str(tmp_path / "b.py"), "total"]
    assert lines[-1].split()[1:] == ["34", "8", "14", "4", "8"]


def test_ab_pairs_summary_counts_wins_and_applies_the_claim_rule():
    parent = [0.036, 0.035, 0.037, 0.036, 0.038, 0.035, 0.036, 0.037, 0.036, 0.035]
    change = [0.034, 0.033, 0.034, 0.036, 0.035, 0.033, 0.034, 0.034, 0.033, 0.033]
    summary = _tool("ab_pairs").summarize(parent, change, "lower", 0.25)
    # the fourth pair ties, so the change wins 9 of 10 and loses none
    assert (summary["pairs"], summary["wins"], summary["losses"]) == (10, 9, 0)
    assert summary["parent"] == pytest.approx({"median": 0.036, "q1": 0.03525, "q3": 0.03675})
    assert summary["change"]["median"] == pytest.approx(0.034)
    # the medians differ by 0.002, more than the parent's quartile distance of 0.0015
    assert summary["gain"]
    assert summary["worse_fraction"] == pytest.approx(-0.002 / 0.036)
    assert summary["within_bound"]


def test_ab_pairs_summary_needs_nine_tenths_of_the_pairs_and_reads_the_direction():
    ab_pairs = _tool("ab_pairs")
    parent = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    # far lower medians but only 8 wins of 10: no gain claimed
    lower = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 9.5, 10.5]
    assert not ab_pairs.summarize(parent, lower, "lower", 0.25)["gain"]
    # every value higher, and higher is better, but by less than the parent's quartile distance
    higher = [p + 1.0 for p in parent]
    summary = ab_pairs.summarize(parent, higher, "higher", 0.25)
    assert summary["wins"] == 10
    assert not summary["gain"]
    # read as lower-is-better the same values are 18 % worse, within a 0.25 bound but not a 0.1 one
    assert ab_pairs.summarize(parent, higher, "lower", 0.25)["worse_fraction"] == pytest.approx(1.0 / 5.5)
    assert not ab_pairs.summarize(parent, higher, "lower", 0.1)["within_bound"]


def test_ab_pairs_refuses_trees_of_which_one_holds_a_bytecode_cache(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    (parent / "src" / "__pycache__").mkdir(parents=True)
    (change / "src").mkdir(parents=True)
    with pytest.raises(SystemExit, match="only the parent tree holds __pycache__"):
        _tool("ab_pairs").main([str(parent), str(change), "--workload", "sweep_small"])


BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _output_digest(monkeypatch):
    # loading the tool pins BLAS to one thread in os.environ; setenv records each variable, so it is restored
    # (or unset) after the test
    for name in BLAS_THREADS:
        monkeypatch.setenv(name, "0")
    return _tool("output_digest")


def test_output_digest_encodes_signed_zeros_shapes_and_dtypes(monkeypatch):
    encode = _output_digest(monkeypatch)._encode
    assert all(os.environ[name] == "1" for name in BLAS_THREADS)
    assert encode(0.0) != encode(-0.0)
    assert encode((1.0, 0.0)) != encode((1.0, -0.0))
    assert encode(np.array([0.0])) != encode(np.array([-0.0]))
    # equal bytes, different shape or dtype
    values = np.arange(4.0)
    assert encode(values) != encode(values.reshape(2, 2))
    assert np.zeros(2).tobytes() == np.zeros(2, dtype=np.int64).tobytes()
    assert encode(np.zeros(2)) != encode(np.zeros(2, dtype=np.int64))
    # a strided view encodes as its contiguous copy
    assert encode(values[::2]) == encode(values[::2].copy())


def test_output_digest_built_in_configs_run_and_set_every_key_the_benchmark_leaves_out(monkeypatch, tmp_path):
    from spinchannel import cli

    digest = _output_digest(monkeypatch)
    sys.path.insert(0, str(TOOLS.parent / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(TOOLS.parent / "perfbench"))
    texts = [text for text, _outputs in workloads.CLI_CONFIGS.values()] + list(digest.BUILT_IN.values())
    keys = {line.split("=", 1)[0].strip() for text in texts for line in text.splitlines()}
    assert keys == set(cli._KEYS)
    for label, text in digest.BUILT_IN.items():
        (tmp_path / f"{label}.conf").write_text(text)
        items = dict(digest._cli_lines(cli, tmp_path / f"{label}.conf", label, tmp_path / label))
        assert items[f"{label}/exit"] == b"0", label
        assert f"{label}/{cli.parse_config(text).out}.csv" in items, label


def test_output_digest_hashes_every_public_field_and_both_amplitudes(monkeypatch):
    import spinchannel as sc

    items = _output_digest(monkeypatch).SCAN_ITEMS
    public = {field.name for field in dataclasses.fields(sc.TimeScanResult) if not field.name.startswith("_")}
    assert len(set(items)) == len(items) and set(items) == public | {"f_ss", "f_sr"}
