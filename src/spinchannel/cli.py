"""Configuration-driven command line for the spin-chain channel scans.

Usage: spinchannel <config-path> [--out <dir>] [--quiet]

The configuration is a flat key=value text file ('#' starts a comment).
Depending on ``mode`` the run writes a time-scan CSV plus a summary block,
a size-scan CSV, or a per-eigenvector diagnostics table.  Exit codes:
0 success, 2 configuration error (any input the CLI or the library
rejects), 3 numerical failure or out of memory.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
import uuid
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .dynamics import NumericsError, eigendecompose
from .experiments import CONFIGURATIONS, SizeScanRow, size_scan, time_scan
from .metrics import leakage_bound, spectral_overlaps, structure_residuals
from .model import COUPLING_KINDS, CouplingModel, _chain_sector, _plain, build_chain_geometry, load_coupling_matrix

MODES = ("time_scan", "size_scan", "diagnostics")

_CHAIN_MODES = ("time_scan", "diagnostics")
_SCAN_MODES = ("time_scan", "size_scan")


class ConfigError(ValueError):
    """The run configuration is malformed or violates a constraint."""


@dataclass(frozen=True)
class RunConfig:
    """A parsed run: the CLI's own values, and the keyword arguments the file sets for each library call.

    ``chain`` goes to build_chain_geometry, ``model`` to CouplingModel and
    ``scan`` to the mode's scan: time_scan, size_scan, or for diagnostics
    ``model._chain_sector``, which builds the sector matrix as time_scan
    does.  A key the file omits is absent from its group, so the library's
    default applies; ``run`` has the library check every value.
    """

    mode: str
    out: str
    coupling_file: str | None = None
    n_min: int | None = None
    n_max: int | None = None
    chain: dict = field(default_factory=dict)
    model: dict = field(default_factory=dict)
    scan: dict = field(default_factory=dict)


# Value parsers: each turns the text after '=' into a field value or raises
# ValueError saying what the value must be.  Numbers are spelled as in a
# coupling file: ASCII, without '_'.


def _integer(text: str) -> int:
    try:
        return int(_plain(text))
    except ValueError:
        raise ValueError("must be an integer") from None


def _real(text: str) -> float:
    try:
        value = float(_plain(text))
    except ValueError:
        raise ValueError("must be a real number") from None
    if not math.isfinite(value):
        raise ValueError("must be finite")
    return value


def _flag(text: str) -> bool:
    if text.lower() not in ("true", "false"):
        raise ValueError("must be true or false")
    return text.lower() == "true"


def _one_of(choices: tuple[str, ...]):
    def parse(text: str) -> str:
        if text not in choices:
            raise ValueError(f"must be one of {', '.join(choices)}")
        return text

    return parse


def _layouts(text: str) -> tuple[str, ...]:
    names = {name.strip() for name in text.split(",")} - {""}
    if not names or not names <= set(CONFIGURATIONS):
        raise ValueError(f"must be a comma-separated subset of {','.join(CONFIGURATIONS)}")
    return tuple(name for name in CONFIGURATIONS if name in names)


# config key -> (RunConfig keyword group, or None for a field of the CLI's own;
# the library argument or field it sets; value parser; modes it applies to)
_KEYS = {
    "mode": (None, "mode", _one_of(MODES), MODES),
    "out": (None, "out", str, MODES),
    "coupling_file": (None, "coupling_file", str, MODES),
    "n_min": (None, "n_min", _integer, ("size_scan",)),
    "n_max": (None, "n_max", _integer, ("size_scan",)),
    "positions": ("chain", "span", _integer, _CHAIN_MODES),
    "sender": ("chain", "sender_pos", _integer, _CHAIN_MODES),
    "receiver": ("chain", "receiver_pos", _integer, _CHAIN_MODES),
    "dh": ("chain", "double_hole", _flag, _CHAIN_MODES),
    "coupling": ("model", "kind", _one_of(COUPLING_KINDS), MODES),
    "nu": ("model", "nu", _real, MODES),
    "c": ("model", "strength_c", _real, MODES),
    "lambda": ("model", "lam", _real, MODES),
    "zz": ("scan", "include_zz_diagonal", _flag, MODES),
    "theta": ("scan", "theta", _real, _SCAN_MODES),
    "phi": ("scan", "phi", _real, _SCAN_MODES),
    "t_max": ("scan", "t_max", _real, ("time_scan",)),
    "grid_points": ("scan", "grid_points", _integer, _SCAN_MODES),
    "configurations": ("scan", "configurations", _layouts, ("size_scan",)),
}


def _read_pairs(text: str) -> dict[str, tuple[int, str]]:
    """Config key -> (line number, value text), in line order."""
    pairs: dict[str, tuple[int, str]] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {line_no}: expected key=value, got {line!r}")
        key, _, value = (part.strip() for part in line.partition("="))
        if not key:
            raise ConfigError(f"line {line_no}: missing key before '='")
        if not value:
            raise ConfigError(f"line {line_no}: missing value for key {key!r}")
        if key in pairs:
            raise ConfigError(f"line {line_no}: duplicate key {key!r} (first assigned on line {pairs[key][0]})")
        pairs[key] = (line_no, value)
    return pairs


def _parse_value(key: str, line_no: int, value: str):
    try:
        return _KEYS[key][2](value)
    except ValueError as exc:
        raise ConfigError(f"line {line_no}: {key} {exc} (got {value!r})") from None


def parse_config(text: str) -> RunConfig:
    """Parse a key=value configuration document.

    Checks the syntax, the keys and the rules that name CLI keys alone
    (coupling_file iff custom, a bare out, the n_min..n_max range).  Every
    other value (couplings, Bloch angles, chain layout, grid, window) is
    checked by the library when ``run`` builds from it.
    """
    pairs = _read_pairs(text)
    if "mode" not in pairs:
        raise ConfigError(f"missing required key 'mode' (one of {', '.join(MODES)})")
    mode = _parse_value("mode", *pairs["mode"])
    groups: dict = {None: {"out": mode}, "chain": {}, "model": {}, "scan": {}}
    problems = []
    for key, (line_no, value) in pairs.items():
        if key not in _KEYS:
            problems.append(f"line {line_no}: unknown key {key!r}")
        elif mode not in _KEYS[key][3]:
            problems.append(f"line {line_no}: key {key!r} does not apply to mode {mode!r}")
        else:
            groups[_KEYS[key][0]][_KEYS[key][1]] = _parse_value(key, line_no, value)
    if problems:
        raise ConfigError("; ".join(problems))

    if mode in _CHAIN_MODES and "positions" not in pairs:
        raise ConfigError(f"mode {mode} requires the key 'positions'")
    if mode == "size_scan" and not ("n_min" in pairs and "n_max" in pairs):
        raise ConfigError("mode size_scan requires the keys 'n_min' and 'n_max'")
    config = RunConfig(**groups.pop(None), **groups)

    # constraints that only the CLI has
    custom = config.model.get("kind") == "custom"
    if custom and config.coupling_file is None:
        raise ConfigError("coupling_file is required when coupling = custom")
    if not custom and config.coupling_file is not None:
        raise ConfigError("coupling_file only applies when coupling = custom")
    if "/" in config.out or "\\" in config.out:
        raise ConfigError(f"out must be a bare file stem without path separators (got {config.out!r})")
    if mode == "size_scan" and config.n_min < 2:
        raise ConfigError(f"n_min must be >= 2 (got {config.n_min})")
    if mode == "size_scan" and config.n_max < config.n_min:
        raise ConfigError(f"n_max must be >= n_min (got n_min={config.n_min}, n_max={config.n_max})")
    return config


def _text(value) -> str:
    """One output field: strings as they are, booleans as true/false, numbers to 17 digits."""
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "true" if value else "false"
    return f"{value:.17g}"


def _csv(columns: dict) -> str:
    """A header of the names of ``columns`` (name -> list), then one line per row, each value as ``_text`` writes it.

    Every row goes through one %-format built from the kinds of the columns'
    first values: ``%.17g`` for numbers, ``%s`` for strings.
    """
    form = ",".join("%s" if c and isinstance(c[0], str) else "%.17g" for c in columns.values()) + "\n"
    return ",".join(columns) + "\n" + "".join(form % row for row in zip(*columns.values()))


def _summary(fields) -> str:
    return "".join(f"{key} = {_text(value)}\n" for key, value in fields)


def _time_scan_payload(config: RunConfig, model: CouplingModel, geometry) -> tuple[list[tuple[str, str]], str]:
    result = time_scan(geometry, model, **config.scan)
    columns = {
        "t": result.times,
        "re_f_ss": result.f_ss.real,
        "im_f_ss": result.f_ss.imag,
        "re_f_sr": result.f_sr.real,
        "im_f_sr": result.f_sr.imag,
        "fidelity": result.fidelity,
        "avg_fidelity": result.averaged_fidelity,
        "concurrence": result.concurrence,
        "dispersion": result.dispersion,
    }
    csv_text = _csv({name: column.tolist() for name, column in columns.items()})

    fields = [
        ("mode", "time_scan"),
        ("n_sites", result.n_sites),
        ("zz_diagonal", result.include_zz_diagonal),
        ("peak_fidelity", result.peak_fidelity.value),
        ("peak_fidelity_t", result.peak_fidelity.t),
        ("peak_concurrence", result.peak_concurrence.value),
        ("peak_concurrence_t", result.peak_concurrence.t),
    ]
    if result.delta_eff is None:
        fields.append(("delta_eff", "degenerate"))
    else:
        pair = result.dominant_pair
        fields.append(("delta_eff", result.delta_eff))
        fields.append(("dominant_pair", f"{pair[0] + 1},{pair[1] + 1}"))
        fields.append(("dominant_pair_mass", result.dominant_pair_mass))
    fields.append(("gamma_m", result.gamma_m))
    fields.append(("dispersion_bound", result.dispersion_bound))
    fields.append(("t_max", result.t_max))
    fields.append(("window_extended", result.extended))
    summary_text = _summary(fields)

    files = [(f"{config.out}.csv", csv_text), (f"{config.out}_summary.txt", summary_text)]
    return files, summary_text


def _size_scan_payload(config: RunConfig, model: CouplingModel) -> tuple[list[tuple[str, str]], str]:
    rows = size_scan(range(config.n_min, config.n_max + 1), model, **config.scan)
    names = [field.name for field in dataclasses.fields(SizeScanRow)]
    csv_text = _csv({name: [getattr(row, name) for row in rows] for name in names})
    fields = [("mode", "size_scan"), ("rows", len(rows)), ("n_range", f"{config.n_min}..{config.n_max}")]
    return [(f"{config.out}.csv", csv_text)], _summary(fields)


def _diagnostics_payload(config: RunConfig, model: CouplingModel, geometry) -> tuple[list[tuple[str, str]], str]:
    # a temporary, so what eigh does not need is freed before it runs
    decomp = eigendecompose(_chain_sector(geometry, model, **config.scan))
    overlaps = spectral_overlaps(decomp, geometry.sender_index, geometry.receiver_index)
    residuals = structure_residuals(overlaps)
    gamma_m, bound = leakage_bound(overlaps)
    # square entry by entry: squaring the arrays can round the last bit differently
    csv_text = _csv(
        {
            "j": range(1, overlaps.n + 1),
            "E_j": decomp.eigenvalues.tolist(),
            "sigma_sq": [x**2 for x in overlaps.sigma.tolist()],
            "rho_sq": [x**2 for x in overlaps.rho.tolist()],
            "gamma_sq": overlaps.gamma_sq.tolist(),
            "residual": residuals.tolist(),
        }
    )
    fields = [("mode", "diagnostics"), ("n_sites", geometry.n_sites), ("gamma_m", gamma_m)]
    fields.append(("dispersion_bound", bound))
    return [(f"{config.out}.csv", csv_text)], _summary(fields)


def run(config: RunConfig, out_dir: str | Path = ".", quiet: bool = False) -> list[Path]:
    """Execute a parsed configuration and write its output files.

    The library checks each value as this builds the geometry, the model
    and the scan; its ValueError, or an OSError reading a coupling file, is
    re-raised as ConfigError.  Everything is computed before anything is
    written, so a rejected input or a numerical failure leaves no files
    behind.  Each payload is written to a temporary file in the output
    directory, and only once all are written is each moved into place with
    os.replace, so no target is ever left truncated.  An OSError on the way
    removes the temporaries and every target already replaced.
    """
    try:
        if config.mode in _CHAIN_MODES:
            geometry = build_chain_geometry(**config.chain)
        matrix = None if config.coupling_file is None else load_coupling_matrix(config.coupling_file)
        model = CouplingModel(**config.model, custom_matrix=matrix)
        if config.mode == "time_scan":
            files, report = _time_scan_payload(config, model, geometry)
        elif config.mode == "size_scan":
            files, report = _size_scan_payload(config, model)
        else:
            files, report = _diagnostics_payload(config, model, geometry)
    except (OSError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc

    out_path = Path(out_dir)
    out_path.mkdir(parents=True, exist_ok=True)
    staged: list[Path] = []
    written: list[Path] = []
    try:
        for name, payload in files:
            staged.append(out_path / f".{name}.{uuid.uuid4().hex[:12]}.tmp")
            # "x": a new file, made with the permissions write_text would give the target
            with staged[-1].open("x") as handle:
                handle.write(payload)
        for (name, _payload), temporary in zip(files, staged):
            os.replace(temporary, out_path / name)
            written.append(out_path / name)
    except OSError:
        # a failed run leaves neither its temporaries nor a target it replaced
        for path in staged + written:
            try:
                path.unlink(missing_ok=True)
            except OSError:
                pass
        raise
    if not quiet:
        for path in written:
            print(f"wrote {path}")
        print(report, end="")
    return written


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="spinchannel",
        description=(
            "Spin-chain channel scans: transfer fidelity and concurrence over "
            "time, peak values over chain size, and spectral diagnostics."
        ),
    )
    parser.add_argument("config", help="path to a key=value run configuration file")
    parser.add_argument("--out", default=".", help="output directory (default: current directory)")
    parser.add_argument("--quiet", action="store_true", help="suppress progress and summary output")
    args = parser.parse_args(argv)

    config_path = Path(args.config)
    try:
        config = parse_config(config_path.read_text())
        if config.coupling_file is not None:
            # relative to the config file; joining keeps an absolute path as it is
            config = dataclasses.replace(config, coupling_file=str(config_path.parent / config.coupling_file))
        # the library's finiteness checks judge an overflow; NumPy need not warn of it
        with np.errstate(all="ignore"):
            run(config, out_dir=args.out, quiet=args.quiet)
    except (ValueError, OSError) as exc:
        # ConfigError, UnicodeDecodeError and every value the library rejects
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"numerical failure: out of memory {exc}".rstrip(), file=sys.stderr)
        return 3
    except (NumericsError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
