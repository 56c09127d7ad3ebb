"""Correctness checks and accuracy figures for one pass of a workload.

Every op output is compared with the independent reference in
``reference.py``.  A check that fails is reported against the op's label,
and every execution of that op counts as failed.

Accuracy figures:

- ``peak_gap_f`` / ``peak_gap_c``: the largest amount by which a reported
  peak lies below the reference maximum over the same window [0, t_max].
  Only chains whose dense reference fits in ``DENSE_MAX_SAMPLES`` get one.
- ``value_err``: the largest |reported peak value - the value recomputed at
  the reported time| with extended-precision phases.
- ``peak_f_attained`` / ``peak_c_attained``: one minus the largest shortfall
  of a reported peak below its reference, where the reference is the window
  maximum when it is affordable and the recomputed value at the reported
  time otherwise.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import reference
from workloads import MIRROR_LAMBDA, Chain, Workload

# Largest |reported - recomputed| accepted for a peak value.  On the n = 998
# chain |E| t reaches ~2e12 rad and double-precision phases lose up to ~1e-6
# there; single-precision phases would lose O(1).
VALUE_TOL = 1e-5
# Wootters concurrence from reference amplitudes against the reported peak C
WOOTTERS_TOL = 1e-8
WOOTTERS_MAX_SITES = 14
# a mirror-periodic chain must reach F = 1 at t = pi / lambda
MIRROR_F_TOL = 1e-9
MIRROR_T_RTOL = 1e-6
# diagnostics eigenvalues against the reference, relative to max |E|
EIGEN_RTOL = 1e-9
DENSE_MAX_SAMPLES = 4_000_000


@dataclass
class Peaks:
    """The peak data an op reported for one chain."""

    chain: Chain
    f_t: float
    f: float
    c_t: float
    c: float
    t_max: float


@dataclass
class Report:
    problems: dict[str, list[str]] = field(default_factory=dict)
    peak_gap_f: float | None = None
    peak_gap_c: float | None = None
    value_err: float = 0.0
    shortfall_f: float = -math.inf
    shortfall_c: float = -math.inf

    def fail(self, label: str, message: str) -> None:
        self.problems.setdefault(label, []).append(message)

    def metrics(self) -> dict[str, float | None]:
        return {
            "peak_gap_f": self.peak_gap_f,
            "peak_gap_c": self.peak_gap_c,
            "value_err": self.value_err,
            "peak_f_attained": 1.0 - self.shortfall_f,
            "peak_c_attained": 1.0 - self.shortfall_c,
        }


def _dense_samples(chain: reference.ReferenceChain, t_max: float) -> float:
    return t_max * reference.SAMPLES_PER_FAST_HALF_PERIOD * chain.bandwidth / math.pi


def check_peaks(report: Report, label: str, peaks: Peaks) -> None:
    chain = peaks.chain
    theta = chain.theta
    for name, t, value in (("F", peaks.f_t, peaks.f), ("C", peaks.c_t, peaks.c)):
        if not (0.0 <= value <= 1.0 and 0.0 <= t <= peaks.t_max):
            report.fail(label, f"peak {name} = {value!r} at t = {t!r} outside [0, 1] x [0, t_max]")
    ref = chain.reference()

    f_ss, f_sr = ref.amplitudes_exact(peaks.f_t)
    f_at = float(reference.fidelity(f_sr))
    f_ss_c, f_sr_c = ref.amplitudes_exact(peaks.c_t)
    c_at = float(reference.concurrence(f_ss_c, f_sr_c, theta))
    err = max(abs(f_at - peaks.f), abs(c_at - peaks.c))
    report.value_err = max(report.value_err, err)
    if err > VALUE_TOL:
        report.fail(label, f"peak value differs from the recomputed value by {err:.3e} > {VALUE_TOL}")

    if _dense_samples(ref, peaks.t_max) <= DENSE_MAX_SAMPLES:
        f_ref = reference.fidelity_window_max(ref, peaks.t_max)
        c_ref = reference.concurrence_window_max(ref, peaks.t_max, theta)
        gap_f, gap_c = f_ref - peaks.f, c_ref - peaks.c
        report.peak_gap_f = max(report.peak_gap_f if report.peak_gap_f is not None else -math.inf, gap_f)
        report.peak_gap_c = max(report.peak_gap_c if report.peak_gap_c is not None else -math.inf, gap_c)
    else:
        gap_f, gap_c = f_at - peaks.f, c_at - peaks.c
    report.shortfall_f = max(report.shortfall_f, gap_f)
    report.shortfall_c = max(report.shortfall_c, gap_c)

    n = len(chain.positions)
    if n <= WOOTTERS_MAX_SITES:
        import spinchannel

        params = spinchannel.InitialStateParams(theta=theta, phi=chain.phi)
        amps = ref.site_amplitudes_exact(peaks.c_t)
        c_w = spinchannel.wootters_concurrence_oracle(params, amps, 0, n - 1)
        if abs(c_w - peaks.c) > WOOTTERS_TOL:
            report.fail(label, f"Wootters C = {c_w!r} at the C peak, reported {peaks.c!r}")

    if chain.coupling == "mirror_periodic" and not chain.zz:
        t_transfer = math.pi / MIRROR_LAMBDA
        if peaks.f < 1.0 - MIRROR_F_TOL or abs(peaks.f_t - t_transfer) > MIRROR_T_RTOL * t_transfer:
            report.fail(label, f"mirror chain peak F = {peaks.f!r} at t = {peaks.f_t!r}, expected 1 at pi/lambda")


def _read_summary(path: Path) -> dict[str, str]:
    pairs = (line.split(" = ", 1) for line in path.read_text().splitlines() if " = " in line)
    return {key: value for key, value in pairs}


def _check_diagnostics(report: Report, label: str, chain: Chain, path: Path) -> None:
    rows = list(csv.DictReader(io.StringIO(path.read_text())))
    energies = np.array([float(row["E_j"]) for row in rows])
    ref = chain.reference()
    # the reference leaves out the constant -sum_{i<j} J_ij; the CLI keeps it
    offset = -np.triu(chain.couplings(), 1).sum() if chain.zz else 0.0
    scale = max(1.0, float(np.abs(energies).max()))
    worst = float(np.abs(energies - (ref.energies + offset)).max()) if energies.size == ref.energies.size else math.inf
    if worst > EIGEN_RTOL * scale:
        report.fail(label, f"eigenvalues differ from the reference by {worst:.3e}")
    n = energies.size
    for column, target in (("sigma_sq", 1.0), ("rho_sq", 1.0), ("gamma_sq", n - 2.0)):
        total = sum(float(row[column]) for row in rows)
        if abs(total - target) > 1e-8 * max(1.0, target):
            report.fail(label, f"{column} sums to {total!r}, expected {target}")


def _check_cli(report: Report, workload: Workload, label: str, code: int) -> None:
    if code != 0:
        report.fail(label, f"cli.main returned {code}")
        return
    out = workload.workdir / "out"
    chains = workload.chains
    if label == "bench":
        summary = _read_summary(out / "bench_summary.txt")
        peaks = Peaks(
            chains["bench"],
            float(summary["peak_fidelity_t"]),
            float(summary["peak_fidelity"]),
            float(summary["peak_concurrence_t"]),
            float(summary["peak_concurrence"]),
            float(summary["t_max"]),
        )
        check_peaks(report, label, peaks)
    elif label == "size":
        for row in csv.DictReader(io.StringIO((out / "size.csv").read_text())):
            chain = chains[f"size{row['n_spins']}"]
            f_t, c_t = float(row["t_at_max_f"]), float(row["t_at_max"])
            # the documented default window, doubled once when a peak lies past it
            window = 1.5 * chain.reference().transfer_time()
            if max(f_t, c_t) > window * (1.0 + 1e-9):
                window *= 2.0
            peaks = Peaks(chain, f_t, float(row["max_fidelity"]), c_t, float(row["max_concurrence"]), window)
            check_peaks(report, label, peaks)
    else:
        _check_diagnostics(report, label, chains[label], out / f"{label}.csv")


def evaluate(workload: Workload, first_records: dict[str, object]) -> Report:
    """Check the first output record of every op label against the reference."""
    report = Report()
    for label, record in first_records.items():
        if workload.name == "cli_mix":
            _check_cli(report, workload, label, record[0])
        else:
            f_t, f, c_t, c, t_max, _extended = record
            check_peaks(report, label, Peaks(workload.chains[label], f_t, f, c_t, c, t_max))
    return report
