"""The benchmark's workloads: inputs generated from a seed, and the ops on them.

Every workload is a closed loop: one caller issues the ops of a pass in a
fixed order, each after the previous one returned.  The seed is the only
source of variation; ``spinchannel`` receives only the generated inputs.

- ``dh_large``: ``time_scan`` on the 1000-position double-hole dipolar chain
  (n = 998), with theta and phi drawn from the seed.  Grid scoring at large
  n dominates; ``eigh`` is the next cost.
- ``sweep_small``: ``time_scan`` over 36 small chains (n = 6..14): the
  ``size_scan`` set (complete and double-hole dipolar), mirror-periodic
  chains, and dipolar chains with seeded multiplicative disorder passed as
  custom couplings.  Per-instant Python work and peak refinement dominate,
  and these are the chains whose peaks depend on the grid.
- ``cli_mix``: in-process ``cli.main`` on five config runs (the README
  ``bench.conf`` twice, ``diagnostics`` at 2000 positions, ``diagnostics`` on
  a seeded 800-site coupling file, a small double-hole ``size_scan``).
  ``eigh`` without a time grid, text parsing and file output dominate.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import reference

WORKLOADS = ("dh_large", "sweep_small", "cli_mix")

# How closely each workload's op times follow the host probe's drift: the
# slope of log(median op time) on log(median probe time) across ten runs of
# ten seeds on a shared 2-vCPU x86-64 host whose probe time ranged over 1.5x
# (1.22, 0.71 and 0.32), to the nearest quarter.  The many small Python
# objects of sweep_small lose more than the cache-resident probe to a busy
# host; the eigh of cli_mix loses less; the memory-bound matrix-vector
# products of dh_large hardly follow the probe.
HOST_SENSITIVITY = {"dh_large": 0.25, "sweep_small": 1.25, "cli_mix": 0.75}

SMALL_SIZES = range(6, 15)
DISORDER = 0.2  # couplings scale by 1 + u, u uniform in [-DISORDER, DISORDER]
MIRROR_LAMBDA = 2.0


@dataclass(frozen=True)
class Chain:
    """A chain the benchmark scans; sender at position 1, receiver at ``span``."""

    label: str
    span: int
    dh: bool = False
    coupling: str = "power_law"  # power_law | mirror_periodic | custom
    zz: bool = True
    theta: float = math.pi
    phi: float = 0.0
    matrix: np.ndarray | None = field(default=None, repr=False, compare=False)

    @property
    def positions(self) -> tuple[int, ...]:
        return reference.dh_positions(self.span) if self.dh else tuple(range(1, self.span + 1))

    def couplings(self) -> np.ndarray:
        if self.coupling == "custom":
            return self.matrix
        if self.coupling == "mirror_periodic":
            return reference.mirror_couplings(len(self.positions), MIRROR_LAMBDA)
        return reference.power_law_couplings(self.positions)

    def reference(self) -> reference.ReferenceChain:
        return reference.ReferenceChain.from_couplings(self.couplings(), self.zz, 0, len(self.positions) - 1)


@dataclass
class Op:
    """One call into the package.  ``record`` turns its return value into a
    comparable output record and runs after the op's timer has stopped."""

    label: str
    call: Callable[[], object]
    record: Callable[[object], object]
    chain: Chain | None = None


@dataclass
class Workload:
    name: str
    ops: list[Op]
    warmup: Callable[[], object]
    workdir: Path
    chains: dict[str, Chain] = field(default_factory=dict)
    # seconds spent formatting input files: the benchmark's own work, which
    # set-up time leaves out
    write_s: float = 0.0
    # exponent with which op times follow the host probe (run.py)
    host_sensitivity: float = 1.0


def disordered_dipolar(n: int, rng: np.random.Generator) -> np.ndarray:
    """Dipolar couplings on positions 1..n, each pair scaled by its own 1 + u."""
    scale = np.triu(1.0 + rng.uniform(-DISORDER, DISORDER, size=(n, n)), 1)
    return reference.power_law_couplings(range(1, n + 1)) * (scale + scale.T)


def generate(name: str, seed: int) -> dict:
    """The workload's inputs as plain data; equal seeds give equal inputs."""
    rng = np.random.default_rng(seed)
    if name == "dh_large":
        theta = float(rng.uniform(math.pi / 4.0, math.pi))
        phi = float(rng.uniform(0.0, 2.0 * math.pi))
        return {
            "chains": [Chain("dh1000", 1000, dh=True, theta=theta, phi=phi)],
            "warmup": Chain("dh200", 200, dh=True, theta=theta, phi=phi),
        }
    if name == "sweep_small":
        chains = []
        for n in SMALL_SIZES:
            chains.append(Chain(f"complete{n}", n))
            chains.append(Chain(f"dh{n}", n + 2, dh=True))
        for n in SMALL_SIZES:
            chains.append(Chain(f"mirror{n}", n, coupling="mirror_periodic", zz=False))
        for n in SMALL_SIZES:
            chains.append(Chain(f"disorder{n}", n, coupling="custom", matrix=disordered_dipolar(n, rng)))
        return {"chains": chains, "warmup": Chain("warmup6", 6)}
    if name == "cli_mix":
        return {"custom800": disordered_dipolar(800, rng)}
    raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")


def _scan_op(sc, chain: Chain) -> Op:
    geometry = sc.build_chain_geometry(chain.span, 1, chain.span, double_hole=chain.dh)
    if chain.coupling == "custom":
        model = sc.CouplingModel.custom(chain.matrix)
    elif chain.coupling == "mirror_periodic":
        model = sc.CouplingModel.mirror_periodic(lam=MIRROR_LAMBDA)
    else:
        model = sc.CouplingModel.power_law()

    def call():
        # looked up at call time, so a traced run sees the wrapped function
        return sc.time_scan(geometry, model, include_zz_diagonal=chain.zz, theta=chain.theta, phi=chain.phi)

    def record(result):
        return (
            result.peak_fidelity.t,
            result.peak_fidelity.value,
            result.peak_concurrence.t,
            result.peak_concurrence.value,
            result.t_max,
            bool(result.extended),
        )

    return Op(chain.label, call, record, chain)


# config name -> (text, output files); ``bench`` is the README example
CLI_CONFIGS = {
    "bench": ("mode = time_scan\npositions = 12\ndh = true\nout = bench\n", ("bench.csv", "bench_summary.txt")),
    "diag2000": ("mode = diagnostics\npositions = 2000\ndh = true\nout = diag2000\n", ("diag2000.csv",)),
    "custom800": (
        "mode = diagnostics\ncoupling = custom\ncoupling_file = custom800.txt\npositions = 800\nout = custom800\n",
        ("custom800.csv",),
    ),
    "size": (
        "mode = size_scan\nn_min = 6\nn_max = 7\nconfigurations = double_hole\nout = size\n",
        ("size.csv",),
    ),
}
CLI_ORDER = ("bench", "diag2000", "custom800", "size", "bench")

# the chains behind each config's outputs, for the reference checks
CLI_CHAINS = {
    "bench": Chain("bench", 12, dh=True),
    "diag2000": Chain("diag2000", 2000, dh=True),
    "size6": Chain("size6", 8, dh=True),
    "size7": Chain("size7", 9, dh=True),
}


def write_coupling_file(path: Path, matrix: np.ndarray) -> None:
    with path.open("w") as handle:
        handle.write(f"{matrix.shape[0]}\n")
        for row in matrix.tolist():
            handle.write(" ".join(map(repr, row)) + "\n")


def _cli_op(sc_cli, label: str, workdir: Path) -> Op:
    argv = [str(workdir / f"{label}.conf"), "--out", str(workdir / "out"), "--quiet"]
    outputs = CLI_CONFIGS[label][1]

    def call():
        return sc_cli.main(argv)

    def record(code):
        digests = {name: hashlib.sha256((workdir / "out" / name).read_bytes()).hexdigest() for name in outputs}
        return (code, digests)

    return Op(label, call, record)


def build(name: str, seed: int, sc, workdir: Path) -> Workload:
    """Generate the inputs for ``seed`` and bind the ops to package ``sc``."""
    inputs = generate(name, seed)
    workdir.mkdir(parents=True, exist_ok=True)
    if name == "cli_mix":
        import spinchannel.cli as sc_cli

        for label, (text, _outputs) in CLI_CONFIGS.items():
            (workdir / f"{label}.conf").write_text(text)
        t0 = time.perf_counter()
        write_coupling_file(workdir / "custom800.txt", inputs["custom800"])
        write_s = time.perf_counter() - t0
        ops = [_cli_op(sc_cli, label, workdir) for label in CLI_ORDER]
        chains = dict(CLI_CHAINS)
        chains["custom800"] = Chain("custom800", 800, coupling="custom", matrix=inputs["custom800"])
        return Workload(name, ops, ops[0].call, workdir, chains, write_s, HOST_SENSITIVITY[name])
    ops = [_scan_op(sc, chain) for chain in inputs["chains"]]
    warmup = _scan_op(sc, inputs["warmup"]).call
    chains = {op.label: op.chain for op in ops}
    return Workload(name, ops, warmup, workdir, chains, host_sensitivity=HOST_SENSITIVITY[name])
