"""Configuration-driven command line for the spin-chain channel scans.

Usage: spinchannel <config-path> [--out <dir>] [--quiet]

The configuration is a flat key=value text file ('#' starts a comment).
Depending on ``mode`` the run writes a time-scan CSV plus a summary block,
a size-scan CSV, or a per-eigenvector diagnostics table.  Exit codes:
0 success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from dataclasses import dataclass
from pathlib import Path

from .dynamics import NumericsError, eigendecompose
from .experiments import size_scan, time_scan
from .metrics import leakage_bound, spectral_overlaps, structure_residuals
from .model import (
    CouplingModel,
    build_chain_geometry,
    build_couplings,
    load_coupling_matrix,
    sector_hamiltonian,
)

MODES = ("time_scan", "size_scan", "diagnostics")

_COMMON_KEYS = ("mode", "coupling", "nu", "c", "a", "lambda", "coupling_file", "zz", "out")
_MODE_KEYS = {
    "time_scan": ("positions", "sender", "receiver", "dh", "theta", "phi", "t_max", "grid_points"),
    "size_scan": ("n_min", "n_max", "configurations", "theta", "phi", "grid_points"),
    "diagnostics": ("positions", "sender", "receiver", "dh"),
}
_ALL_KEYS = frozenset(_COMMON_KEYS) | {key for keys in _MODE_KEYS.values() for key in keys}


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
    grid_points: int = 2000
    n_min: int | None = None
    n_max: int | None = None
    configurations: tuple[str, ...] = ("complete", "double_hole")


def _format_number(value: float) -> str:
    return f"{value:.17g}"


def _format_bool(value: bool) -> str:
    return "true" if value else "false"


class _Assignments:
    """Key=value pairs with line numbers, consumed one key at a time."""

    def __init__(self, text: str) -> None:
        self.pairs: dict[str, tuple[int, str]] = {}
        for line_no, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"line {line_no}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if not key:
                raise ConfigError(f"line {line_no}: missing key before '='")
            if not value:
                raise ConfigError(f"line {line_no}: missing value for key {key!r}")
            if key in self.pairs:
                first = self.pairs[key][0]
                raise ConfigError(
                    f"line {line_no}: duplicate key {key!r} (first assigned on line {first})"
                )
            self.pairs[key] = (line_no, value)

    def take(self, key: str) -> tuple[int, str] | None:
        return self.pairs.pop(key, None)

    def take_str(self, key: str, default: str | None = None) -> str | None:
        entry = self.take(key)
        return default if entry is None else entry[1]

    def take_choice(self, key: str, choices: tuple[str, ...], default: str | None = None) -> str | None:
        entry = self.take(key)
        if entry is None:
            return default
        line_no, value = entry
        if value not in choices:
            raise ConfigError(
                f"line {line_no}: {key} must be one of {', '.join(choices)} (got {value!r})"
            )
        return value

    def take_int(self, key: str, default: int | None = None) -> int | None:
        entry = self.take(key)
        if entry is None:
            return default
        line_no, value = entry
        try:
            return int(value)
        except ValueError:
            raise ConfigError(f"line {line_no}: {key} must be an integer (got {value!r})") from None

    def take_float(self, key: str, default: float | None = None) -> float | None:
        entry = self.take(key)
        if entry is None:
            return default
        line_no, value = entry
        try:
            parsed = float(value)
        except ValueError:
            raise ConfigError(f"line {line_no}: {key} must be a real number (got {value!r})") from None
        if not math.isfinite(parsed):
            raise ConfigError(f"line {line_no}: {key} must be finite (got {value!r})")
        return parsed

    def take_bool(self, key: str, default: bool | None = None) -> bool | None:
        entry = self.take(key)
        if entry is None:
            return default
        line_no, value = entry
        lowered = value.lower()
        if lowered not in ("true", "false"):
            raise ConfigError(f"line {line_no}: {key} must be true or false (got {value!r})")
        return lowered == "true"

    def reject_leftovers(self, mode: str) -> None:
        if not self.pairs:
            return
        problems = []
        for key, (line_no, _value) in sorted(self.pairs.items(), key=lambda item: item[1][0]):
            if key in _ALL_KEYS:
                problems.append(f"line {line_no}: key {key!r} does not apply to mode {mode!r}")
            else:
                problems.append(f"line {line_no}: unknown key {key!r}")
        raise ConfigError("; ".join(problems))


def parse_config(text: str) -> RunConfig:
    """Parse and validate a key=value configuration document."""
    assignments = _Assignments(text)

    mode = assignments.take_choice("mode", MODES)
    if mode is None:
        raise ConfigError(f"missing required key 'mode' (one of {', '.join(MODES)})")

    coupling = assignments.take_choice("coupling", ("power_law", "mirror_periodic", "custom"), "power_law")
    nu = assignments.take_float("nu", 3.0)
    c = assignments.take_float("c", 1.0)
    a = assignments.take_float("a", 1.0)
    lam = assignments.take_float("lambda", 2.0)
    coupling_file = assignments.take_str("coupling_file")
    zz = assignments.take_bool("zz", True)
    out = assignments.take_str("out", mode)

    if nu <= 0.0:
        raise ConfigError(f"nu must be > 0 (got {_format_number(nu)})")
    if c <= 0.0:
        raise ConfigError(f"c must be > 0 (got {_format_number(c)})")
    if a <= 0.0:
        raise ConfigError(f"a must be > 0 (got {_format_number(a)})")
    if lam <= 0.0:
        raise ConfigError(f"lambda must be > 0 (got {_format_number(lam)})")
    if coupling == "custom":
        if coupling_file is None:
            raise ConfigError("coupling_file is required when coupling = custom")
        if mode == "size_scan":
            raise ConfigError("size_scan cannot use a custom coupling matrix")
    elif coupling_file is not None:
        raise ConfigError("coupling_file only applies when coupling = custom")
    if not out or any(sep in out for sep in ("/", "\\")):
        raise ConfigError(f"out must be a bare file stem without path separators (got {out!r})")

    config = RunConfig(
        mode=mode,
        coupling=coupling,
        nu=nu,
        c=c,
        a=a,
        lam=lam,
        coupling_file=coupling_file,
        zz=zz,
        out=out,
    )

    if mode in ("time_scan", "diagnostics"):
        positions = assignments.take_int("positions")
        if positions is None:
            raise ConfigError(f"mode {mode} requires the key 'positions'")
        if positions < 2:
            raise ConfigError(f"positions must be >= 2 (got {positions})")
        sender = assignments.take_int("sender", 1)
        receiver = assignments.take_int("receiver", positions)
        dh = assignments.take_bool("dh", False)
        if not (1 <= sender < receiver <= positions):
            raise ConfigError(
                f"need 1 <= sender < receiver <= positions "
                f"(got sender={sender}, receiver={receiver}, positions={positions})"
            )
        if dh and receiver - sender < 2:
            raise ConfigError(
                f"dh = true requires receiver - sender >= 2 (got {receiver - sender})"
            )
        config = dataclasses.replace(config, positions=positions, sender=sender, receiver=receiver, dh=dh)

    if mode in ("time_scan", "size_scan"):
        theta = assignments.take_float("theta", math.pi)
        phi = assignments.take_float("phi", 0.0)
        grid_points = assignments.take_int("grid_points", 2000)
        if not (0.0 <= theta <= math.pi):
            raise ConfigError(f"theta must lie in [0, pi] (got {_format_number(theta)})")
        if not (0.0 <= phi < 2.0 * math.pi):
            raise ConfigError(f"phi must lie in [0, 2*pi) (got {_format_number(phi)})")
        if grid_points < 2:
            raise ConfigError(f"grid_points must be >= 2 (got {grid_points})")
        config = dataclasses.replace(config, theta=theta, phi=phi, grid_points=grid_points)

    if mode == "time_scan":
        t_max = assignments.take_float("t_max")
        if t_max is not None and t_max <= 0.0:
            raise ConfigError(f"t_max must be > 0 (got {_format_number(t_max)})")
        config = dataclasses.replace(config, t_max=t_max)

    if mode == "size_scan":
        n_min = assignments.take_int("n_min")
        n_max = assignments.take_int("n_max")
        if n_min is None or n_max is None:
            raise ConfigError("mode size_scan requires the keys 'n_min' and 'n_max'")
        if n_min < 2:
            raise ConfigError(f"n_min must be >= 2 (got {n_min})")
        if n_max < n_min:
            raise ConfigError(f"n_max must be >= n_min (got n_min={n_min}, n_max={n_max})")
        raw_configurations = assignments.take_str("configurations", "complete,double_hole")
        names = tuple(name.strip() for name in raw_configurations.split(",") if name.strip())
        unknown = [name for name in names if name not in ("complete", "double_hole")]
        if unknown or not names:
            raise ConfigError(
                "configurations must be a comma-separated subset of "
                f"complete,double_hole (got {raw_configurations!r})"
            )
        ordered = tuple(name for name in ("complete", "double_hole") if name in names)
        config = dataclasses.replace(config, n_min=n_min, n_max=n_max, configurations=ordered)

    assignments.reject_leftovers(mode)
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
    lines = ["t,re_f_ss,im_f_ss,re_f_sr,im_f_sr,fidelity,avg_fidelity,concurrence,dispersion"]
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
    for row in zip(*(column.tolist() for column in columns)):
        lines.append(",".join(_format_number(x) for x in row))
    csv_text = "\n".join(lines) + "\n"

    summary_lines = [
        "mode = time_scan",
        f"n_sites = {result.n_sites}",
        f"zz_diagonal = {_format_bool(config.zz)}",
        f"peak_fidelity = {_format_number(result.peak_fidelity.value)}",
        f"peak_fidelity_t = {_format_number(result.peak_fidelity.t)}",
        f"peak_concurrence = {_format_number(result.peak_concurrence.value)}",
        f"peak_concurrence_t = {_format_number(result.peak_concurrence.t)}",
    ]
    if result.delta_eff is None:
        summary_lines.append("delta_eff = degenerate")
    else:
        summary_lines.append(f"delta_eff = {_format_number(result.delta_eff)}")
        pair = result.dominant_pair
        summary_lines.append(f"dominant_pair = {pair[0] + 1},{pair[1] + 1}")
        summary_lines.append(f"dominant_pair_mass = {_format_number(result.dominant_pair_mass)}")
    summary_lines.append(f"gamma_m = {_format_number(result.gamma_m)}")
    summary_lines.append(f"dispersion_bound = {_format_number(result.n_sites * result.gamma_m)}")
    summary_lines.append(f"t_max = {_format_number(result.t_max)}")
    summary_lines.append(f"window_extended = {_format_bool(result.extended)}")
    summary_text = "\n".join(summary_lines) + "\n"

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
    lines = ["n_spins,configuration,max_concurrence,t_at_max,max_fidelity,t_at_max_f"]
    for row in result.rows:
        lines.append(
            ",".join(
                (
                    str(row.n_spins),
                    row.configuration,
                    _format_number(row.max_concurrence),
                    _format_number(row.t_at_max),
                    _format_number(row.max_fidelity),
                    _format_number(row.t_at_max_f),
                )
            )
        )
    csv_text = "\n".join(lines) + "\n"
    report = (
        f"mode = size_scan\nrows = {len(result.rows)}\n"
        f"n_range = {config.n_min}..{config.n_max}\n"
    )
    return [(f"{config.out}.csv", csv_text)], report


def _diagnostics_payload(config: RunConfig, model: CouplingModel, geometry) -> tuple[list[tuple[str, str]], str]:
    couplings = build_couplings(geometry, model)
    decomp = eigendecompose(sector_hamiltonian(couplings, config.zz))
    overlaps = spectral_overlaps(decomp, geometry.sender_index, geometry.receiver_index)
    residuals = structure_residuals(overlaps)
    gamma_m, bound = leakage_bound(overlaps)
    lines = ["j,E_j,sigma_sq,rho_sq,gamma_sq,residual"]
    for j in range(overlaps.n):
        lines.append(
            ",".join(
                (
                    str(j + 1),
                    _format_number(float(decomp.eigenvalues[j])),
                    _format_number(float(overlaps.sigma[j] ** 2)),
                    _format_number(float(overlaps.rho[j] ** 2)),
                    _format_number(float(overlaps.gamma_sq[j])),
                    _format_number(float(residuals[j])),
                )
            )
        )
    csv_text = "\n".join(lines) + "\n"
    report = (
        f"mode = diagnostics\nn_sites = {geometry.n_sites}\n"
        f"gamma_m = {_format_number(gamma_m)}\n"
        f"dispersion_bound = {_format_number(bound)}\n"
    )
    return [(f"{config.out}.csv", csv_text)], report


def run(config: RunConfig, out_dir: str | Path = ".", quiet: bool = False) -> list[Path]:
    """Execute a validated configuration and write its output files.

    Everything is computed before anything is written, so a numerical
    failure leaves no files behind; an I/O failure mid-write removes the
    files already written.
    """
    # materialization problems (bad custom matrix, inconsistent geometry)
    # count as configuration errors
    try:
        model = _coupling_model(config)
        geometry = _geometry(config) if config.mode in ("time_scan", "diagnostics") else None
    except ConfigError:
        raise
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
    target = None
    try:
        for name, payload in files:
            target = out_path / name
            target.write_text(payload)
            written.append(target)
    except OSError:
        # drop whatever made it to disk so a failed run leaves nothing behind
        leftovers = written if target in written or target is None else written + [target]
        for path in leftovers:
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
        text = config_path.read_text()
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        config = parse_config(text)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if config.coupling_file is not None:
        file_path = Path(config.coupling_file)
        if not file_path.is_absolute():
            file_path = config_path.parent / file_path
        config = dataclasses.replace(config, coupling_file=str(file_path))
    try:
        run(config, out_dir=args.out, quiet=args.quiet)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (NumericsError, ValueError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
