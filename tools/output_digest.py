"""Print a SHA-256 of every output of the benchmark's inputs, one line per item.

Usage: python tools/output_digest.py [--src DIR] [--seed N ...] [--dh-seed N ...]
                                     [--cli-seed N ...] [--config FILE ...]

Items:
- every public ``TimeScanResult`` value (``SCAN_ITEMS``: columns, the
  amplitudes ``f_ss`` and ``f_sr``, peaks, ``t_max``, ``extended``,
  ``delta_eff``, ``gamma_m`` and the rest) of the 36 ``sweep_small`` chains
  at each ``--seed`` (default 3 5 101);
- the same fields of the 1000-position double-hole ``dh_large`` chain at each
  ``--dh-seed`` (default 3 31);
- every file the CLI writes for the ``cli_mix`` configs (the README example
  ``bench`` among them) at each ``--cli-seed`` (default 3), for the
  ``BUILT_IN`` configs (among them an odd chain that takes the mirror
  split, and one chain on each side of the parity-block choice), and for
  each ``--config`` file.

The chains and configs are those of ``perfbench/workloads.py`` in this
checkout; ``spinchannel`` is imported from ``--src`` (default: this
checkout's ``src``).  Run it once per version of the library and ``diff``
the outputs: equal lines mean bit-identical results.  Arrays hash their
dtype, shape and bytes, floats their ``float.hex``, so signed zeros count.
BLAS runs on one thread, as in the benchmark, since the bits of ``eigh``
on large matrices depend on the thread count.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import tempfile
from pathlib import Path

# fixed before NumPy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent

# small runs, seconds in all: the first four set each config key the cli_mix configs leave out to a value other
# than its default; the next two split an odd chain (101 positions, dh = true: 99 spins), where the benchmark's
# split chains are all even; the last two take each side of the choice between parity blocks built from the
# distance table and the general path, on chains the benchmark does not run: a complete power-law chain with
# zz = false and nu and c off their defaults (blocks), and a double-hole chain whose receiver is not at the
# end, so its positions are not mirror-symmetric (general path)
BUILT_IN = {
    "power_law_time_scan": (
        "mode = time_scan\npositions = 11\nnu = 2.5\nc = 0.75\nsender = 2\nreceiver = 10\n"
        "zz = false\ntheta = 2\nphi = 1\nt_max = 12.5\ngrid_points = 500\nout = power_law\n"
    ),
    "mirror_time_scan": "mode = time_scan\npositions = 9\ncoupling = mirror_periodic\nlambda = 3\nout = mirror\n",
    "mirror_size_scan": (
        "mode = size_scan\ncoupling = mirror_periodic\nn_min = 4\nn_max = 6\nconfigurations = complete\nout = sizes\n"
    ),
    "diagnostics": "mode = diagnostics\npositions = 10\nsender = 2\nreceiver = 9\nzz = false\nout = diagnostics\n",
    "odd_split_time_scan": "mode = time_scan\npositions = 101\ndh = true\nout = odd_split\n",
    "odd_split_diagnostics": "mode = diagnostics\npositions = 101\ndh = true\nout = odd_split\n",
    "blocks_diagnostics": (
        "mode = diagnostics\npositions = 100\nnu = 2.5\nc = 0.75\nzz = false\nout = blocks\n"
    ),
    "off_mirror_time_scan": "mode = time_scan\npositions = 100\ndh = true\nreceiver = 90\nout = off_mirror\n",
}


# named, not read from dataclasses.fields: the amplitudes are properties formed on first read, and one fixed
# list keeps the lines of library versions that hold them either way comparable
SCAN_ITEMS = tuple(
    "times f_ss f_sr fidelity averaged_fidelity concurrence dispersion peak_fidelity peak_concurrence t_max "
    "extended n_sites delta_eff dominant_pair dominant_pair_mass gamma_m dispersion_bound include_zz_diagonal".split()
)


def _encode(value) -> bytes:
    if isinstance(value, np.ndarray):
        return f"{value.dtype.str}{value.shape}".encode() + np.ascontiguousarray(value).tobytes()
    if isinstance(value, tuple):
        return b"(" + b",".join(map(_encode, value)) + b")"
    if isinstance(value, float):
        return value.hex().encode()
    return repr(value).encode()


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _scan_lines(workloads, sc, name: str, seed: int, workdir: Path):
    for op in workloads.build(name, seed, sc, workdir).ops:
        result = op.call()
        for item in SCAN_ITEMS:
            yield f"{name}/seed={seed}/{op.label}/{item}", _encode(getattr(result, item))


def _cli_lines(cli, config: Path, label: str, out: Path):
    code = cli.main([str(config), "--out", str(out), "--quiet"])
    yield f"{label}/exit", str(code).encode()
    # a run that fails before writing leaves no directory, and its exit line alone
    for path in sorted(out.iterdir()) if out.is_dir() else ():
        yield f"{label}/{path.name}", path.read_bytes()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="directory holding the spinchannel package")
    parser.add_argument("--seed", type=int, nargs="*", default=[3, 5, 101], help="sweep_small seeds")
    parser.add_argument("--dh-seed", type=int, nargs="*", default=[3, 31], help="dh_large seeds")
    parser.add_argument("--cli-seed", type=int, nargs="*", default=[3], help="cli_mix seeds")
    parser.add_argument("--config", type=Path, nargs="*", default=[], help="further CLI config files")
    args = parser.parse_args(argv)

    sys.path[:0] = [str(args.src.resolve()), str(ROOT / "perfbench")]
    import spinchannel as sc
    import spinchannel.cli as cli
    import workloads

    print(f"# spinchannel from {Path(sc.__file__).parent}", flush=True)
    with tempfile.TemporaryDirectory() as temporary:
        temporary = Path(temporary)
        items = []
        for name, seeds in (("sweep_small", args.seed), ("dh_large", args.dh_seed)):
            items += [_scan_lines(workloads, sc, name, seed, temporary / f"{name}-{seed}") for seed in seeds]
        for seed in args.cli_seed:
            workdir = temporary / f"cli_mix-{seed}"
            workloads.build("cli_mix", seed, sc, workdir)
            items += [
                _cli_lines(cli, workdir / f"{label}.conf", f"cli_mix/seed={seed}/{label}", workdir / f"out-{label}")
                for label in workloads.CLI_CONFIGS
            ]
        for label, text in BUILT_IN.items():
            (temporary / f"{label}.conf").write_text(text)
            items.append(_cli_lines(cli, temporary / f"{label}.conf", f"built_in/{label}", temporary / label))
        for i, config in enumerate(args.config):
            items.append(_cli_lines(cli, config.resolve(), f"config={config}", temporary / f"config-{i}"))
        for lines in items:
            for label, data in lines:
                print(f"{_digest(data)}  {label}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
