"""Configuration-driven command line for the spin-chain channel scans.

Usage: spinchannel <config-path> [--out <dir>] [--quiet]

The configuration is a flat key=value text file ('#' starts a comment).
Depending on ``mode`` the run writes a time-scan CSV plus a summary block,
a size-scan CSV, or a per-eigenvector diagnostics table.  Exit codes:
0 success, 2 configuration error, 3 numerical failure or out of memory.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from dataclasses import dataclass
from pathlib import Path

from .dynamics import NumericsError, eigendecompose
from .experiments import CONFIGURATIONS, DEFAULT_GRID_POINTS, size_scan, time_scan
from .metrics import InitialStateParams, leakage_bound, spectral_overlaps, structure_residuals
from .model import (
    COUPLING_KINDS,
    CouplingModel,
    build_chain_geometry,
    build_couplings,
    load_coupling_matrix,
    sector_hamiltonian,
)

MODES = ("time_scan", "size_scan", "diagnostics")

_CHAIN_MODES = ("time_scan", "diagnostics")
_SCAN_MODES = ("time_scan", "size_scan")


class ConfigError(ValueError):
    """The run configuration is malformed or violates a constraint."""


@dataclass(frozen=True)
class RunConfig:
    """Fully validated run description with all defaults applied."""

    mode: str
    coupling: str = "power_law"
    nu: float = 3.0
    c: float = 1.0
    a: float = 1.0
    lam: float = 2.0
    coupling_file: str | None = None
    zz: bool = True
    out: str = "run"
    positions: int | None = None
    sender: int = 1
    receiver: int | None = None
    dh: bool = False
    theta: float = math.pi
    phi: float = 0.0
    t_max: float | None = None
    grid_points: int = DEFAULT_GRID_POINTS
    n_min: int | None = None
    n_max: int | None = None
    configurations: tuple[str, ...] = CONFIGURATIONS


# Value parsers: each turns the text after '=' into a field value or raises
# ValueError saying what the value must be.


def _integer(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError("must be an integer") from None


def _real(text: str) -> float:
    try:
        value = float(text)
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


# config key -> (RunConfig field, value parser, modes the key applies to);
# a key left out of the file keeps the field's default
_KEYS = {
    "mode": ("mode", _one_of(MODES), MODES),
    "coupling": ("coupling", _one_of(COUPLING_KINDS), MODES),
    "nu": ("nu", _real, MODES),
    "c": ("c", _real, MODES),
    "a": ("a", _real, MODES),
    "lambda": ("lam", _real, MODES),
    "coupling_file": ("coupling_file", str, MODES),
    "zz": ("zz", _flag, MODES),
    "out": ("out", str, MODES),
    "positions": ("positions", _integer, _CHAIN_MODES),
    "sender": ("sender", _integer, _CHAIN_MODES),
    "receiver": ("receiver", _integer, _CHAIN_MODES),
    "dh": ("dh", _flag, _CHAIN_MODES),
    "theta": ("theta", _real, _SCAN_MODES),
    "phi": ("phi", _real, _SCAN_MODES),
    "t_max": ("t_max", _real, ("time_scan",)),
    "grid_points": ("grid_points", _integer, _SCAN_MODES),
    "n_min": ("n_min", _integer, ("size_scan",)),
    "n_max": ("n_max", _integer, ("size_scan",)),
    "configurations": ("configurations", _layouts, ("size_scan",)),
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
        return _KEYS[key][1](value)
    except ValueError as exc:
        raise ConfigError(f"line {line_no}: {key} {exc} (got {value!r})") from None


def parse_config(text: str) -> RunConfig:
    """Parse and validate a key=value configuration document.

    Domain constraints (couplings, Bloch angles, chain layout) are checked by
    the library constructors; their ValueError is re-raised as ConfigError.
    """
    pairs = _read_pairs(text)
    if "mode" not in pairs:
        raise ConfigError(f"missing required key 'mode' (one of {', '.join(MODES)})")
    mode = _parse_value("mode", *pairs["mode"])
    values = {}
    problems = []
    for key, (line_no, value) in pairs.items():
        if key not in _KEYS:
            problems.append(f"line {line_no}: unknown key {key!r}")
        elif mode not in _KEYS[key][2]:
            problems.append(f"line {line_no}: key {key!r} does not apply to mode {mode!r}")
        else:
            values[_KEYS[key][0]] = _parse_value(key, line_no, value)
    if problems:
        raise ConfigError("; ".join(problems))

    values.setdefault("out", mode)
    if mode in _CHAIN_MODES:
        if "positions" not in values:
            raise ConfigError(f"mode {mode} requires the key 'positions'")
        values.setdefault("receiver", values["positions"])
    if mode == "size_scan" and not ("n_min" in values and "n_max" in values):
        raise ConfigError("mode size_scan requires the keys 'n_min' and 'n_max'")
    config = RunConfig(**values)

    # constraints that only the CLI has, or that a scan checks only when it runs
    if config.coupling == "custom" and config.coupling_file is None:
        raise ConfigError("coupling_file is required when coupling = custom")
    if config.coupling != "custom" and config.coupling_file is not None:
        raise ConfigError("coupling_file only applies when coupling = custom")
    if config.coupling == "custom" and mode == "size_scan":
        raise ConfigError("size_scan cannot use a custom coupling matrix")
    if "/" in config.out or "\\" in config.out:
        raise ConfigError(f"out must be a bare file stem without path separators (got {config.out!r})")
    if config.grid_points < 2:
        raise ConfigError(f"grid_points must be >= 2 (got {config.grid_points})")
    if config.t_max is not None and config.t_max <= 0.0:
        raise ConfigError(f"t_max must be > 0 (got {_text(config.t_max)})")
    if mode == "size_scan" and config.n_min < 2:
        raise ConfigError(f"n_min must be >= 2 (got {config.n_min})")
    if mode == "size_scan" and config.n_max < config.n_min:
        raise ConfigError(f"n_max must be >= n_min (got n_min={config.n_min}, n_max={config.n_max})")

    # both generative models are built whatever `coupling` is, so every value is checked
    try:
        CouplingModel.power_law(nu=config.nu, strength_c=config.c, spacing_a=config.a)
        CouplingModel.mirror_periodic(lam=config.lam)
        InitialStateParams(theta=config.theta, phi=config.phi)
        if mode in _CHAIN_MODES:
            _geometry(config)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return config


def _coupling_model(config: RunConfig) -> CouplingModel:
    if config.coupling == "power_law":
        return CouplingModel.power_law(nu=config.nu, strength_c=config.c, spacing_a=config.a)
    if config.coupling == "mirror_periodic":
        return CouplingModel.mirror_periodic(lam=config.lam)
    matrix = load_coupling_matrix(config.coupling_file)
    return CouplingModel.custom(matrix.entries)


def _geometry(config: RunConfig):
    return build_chain_geometry(
        config.positions, config.sender, config.receiver, double_hole=config.dh
    )


def _text(value) -> str:
    """One output field: strings as they are, booleans as true/false, numbers to 17 digits."""
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "true" if value else "false"
    return f"{value:.17g}"


def _csv(header: str, rows) -> str:
    return header + "\n" + "".join(",".join(map(_text, row)) + "\n" for row in rows)


def _summary(fields) -> str:
    return "".join(f"{key} = {_text(value)}\n" for key, value in fields)


def _time_scan_payload(config: RunConfig, model: CouplingModel, geometry) -> tuple[list[tuple[str, str]], str]:
    result = time_scan(
        geometry,
        model,
        include_zz_diagonal=config.zz,
        theta=config.theta,
        phi=config.phi,
        t_max=config.t_max,
        grid_points=config.grid_points,
    )
    columns = (
        result.times,
        result.f_ss.real,
        result.f_ss.imag,
        result.f_sr.real,
        result.f_sr.imag,
        result.fidelity,
        result.averaged_fidelity,
        result.concurrence,
        result.dispersion,
    )
    csv_text = _csv(
        "t,re_f_ss,im_f_ss,re_f_sr,im_f_sr,fidelity,avg_fidelity,concurrence,dispersion",
        zip(*(column.tolist() for column in columns)),
    )

    fields = [
        ("mode", "time_scan"),
        ("n_sites", result.n_sites),
        ("zz_diagonal", config.zz),
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
    fields.append(("dispersion_bound", result.n_sites * result.gamma_m))
    fields.append(("t_max", result.t_max))
    fields.append(("window_extended", result.extended))
    summary_text = _summary(fields)

    files = [(f"{config.out}.csv", csv_text), (f"{config.out}_summary.txt", summary_text)]
    return files, summary_text


def _size_scan_payload(config: RunConfig, model: CouplingModel) -> tuple[list[tuple[str, str]], str]:
    result = size_scan(
        range(config.n_min, config.n_max + 1),
        model,
        include_zz_diagonal=config.zz,
        configurations=config.configurations,
        theta=config.theta,
        phi=config.phi,
        grid_points=config.grid_points,
    )
    csv_text = _csv(
        "n_spins,configuration,max_concurrence,t_at_max,max_fidelity,t_at_max_f",
        (
            (row.n_spins, row.configuration, row.max_concurrence, row.t_at_max, row.max_fidelity, row.t_at_max_f)
            for row in result.rows
        ),
    )
    fields = [("mode", "size_scan"), ("rows", len(result.rows)), ("n_range", f"{config.n_min}..{config.n_max}")]
    return [(f"{config.out}.csv", csv_text)], _summary(fields)


def _diagnostics_payload(config: RunConfig, model: CouplingModel, geometry) -> tuple[list[tuple[str, str]], str]:
    couplings = build_couplings(geometry, model)
    decomp = eigendecompose(sector_hamiltonian(couplings, config.zz))
    overlaps = spectral_overlaps(decomp, geometry.sender_index, geometry.receiver_index)
    residuals = structure_residuals(overlaps)
    gamma_m, bound = leakage_bound(overlaps)
    # square entry by entry: squaring the arrays can round the last bit differently
    csv_text = _csv(
        "j,E_j,sigma_sq,rho_sq,gamma_sq,residual",
        zip(
            range(1, overlaps.n + 1),
            decomp.eigenvalues.tolist(),
            [x**2 for x in overlaps.sigma.tolist()],
            [x**2 for x in overlaps.rho.tolist()],
            overlaps.gamma_sq.tolist(),
            residuals.tolist(),
        ),
    )
    fields = [("mode", "diagnostics"), ("n_sites", geometry.n_sites), ("gamma_m", gamma_m)]
    fields.append(("dispersion_bound", bound))
    return [(f"{config.out}.csv", csv_text)], _summary(fields)


def run(config: RunConfig, out_dir: str | Path = ".", quiet: bool = False) -> list[Path]:
    """Execute a validated configuration and write its output files.

    Everything is computed before anything is written, so a numerical
    failure leaves no files behind; an I/O failure mid-write removes the
    files already written.
    """
    # materialization problems (bad custom matrix, inconsistent geometry, a
    # custom matrix whose size is not the chain's) count as configuration errors
    try:
        model = _coupling_model(config)
        geometry = _geometry(config) if config.mode in _CHAIN_MODES else None
        if geometry is not None and model.kind == "custom":
            build_couplings(geometry, model)
    except (OSError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc

    if config.mode == "time_scan":
        files, report = _time_scan_payload(config, model, geometry)
    elif config.mode == "size_scan":
        files, report = _size_scan_payload(config, model)
    else:
        files, report = _diagnostics_payload(config, model, geometry)

    out_path = Path(out_dir)
    out_path.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    try:
        for name, payload in files:
            target = out_path / name
            written.append(target)
            target.write_text(payload)
    except OSError:
        # drop whatever made it to disk, a partly written file included, so a
        # failed run leaves nothing behind
        for path in written:
            try:
                if path.is_file():
                    path.unlink()
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
        run(config, out_dir=args.out, quiet=args.quiet)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"numerical failure: out of memory {exc}".rstrip(), file=sys.stderr)
        return 3
    except (NumericsError, ValueError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
