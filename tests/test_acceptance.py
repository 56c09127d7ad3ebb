"""Acceptance gate: one test per criterion, each printing a [PASS]/[FAIL] line.

Run ``pytest -s tests/test_acceptance.py`` to see the lines on success;
pytest shows the captured output automatically whenever a criterion fails.
"""

import math

import numpy as np
import pytest

import spinchannel as sc
from spinchannel.cli import main as cli_main

from oracles import full_hamiltonian, full_space_amplitude
from support import dh_geometry, two_site_model

_DIPOLAR = sc.CouplingModel.power_law()


def _report(criterion: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def dh10_scan():
    return sc.time_scan(dh_geometry(10), _DIPOLAR)


@pytest.fixture(scope="module")
def size_rows():
    result = sc.size_scan(range(6, 15), _DIPOLAR)
    by_config = {"complete": {}, "double_hole": {}}
    for row in result:
        by_config[row.configuration][row.n_spins] = row.max_concurrence
    return by_config


def test_criterion_1_two_qubit_exactness():
    worst_curve = 0.0
    worst_peak_t = 0.0
    worst_peak_value = 0.0
    for J in (0.1, 0.5, 2.0):
        model = two_site_model(J)
        geometry = sc.build_chain_geometry(2)
        decomp = sc.eigendecompose(sc.sector_hamiltonian(sc.build_couplings(geometry, model)))
        transfer_time = math.pi / (2.0 * J)
        ts = np.linspace(0.0, 2.0 * transfer_time, 1000)
        for t in ts:
            f_sr = sc.propagate(decomp, 0, float(t), to=1)
            worst_curve = max(worst_curve, abs(abs(f_sr) ** 2 - math.sin(J * t) ** 2))
        scan = sc.time_scan(geometry, model)
        worst_peak_t = max(
            worst_peak_t,
            abs(scan.peak_fidelity.t - transfer_time),
            abs(scan.peak_concurrence.t - transfer_time / 2.0),
        )
        worst_peak_value = max(
            worst_peak_value,
            abs(scan.peak_fidelity.value - 1.0),
            abs(scan.peak_concurrence.value - 1.0),
        )
    ok = worst_curve <= 1e-9 and worst_peak_t <= 1e-5 and worst_peak_value <= 1e-9
    _report(
        "criterion 1",
        ok,
        "two-qubit closed form exact "
        f"(curve err {worst_curve:.2e}, peak-time err {worst_peak_t:.2e}, "
        f"peak-value err {worst_peak_value:.2e})",
    )


def test_criterion_2_sector_reduction_oracle():
    geometries = [sc.build_chain_geometry(n) for n in range(2, 9)]
    geometries += [dh_geometry(n) for n in range(2, 9)]
    worst = 0.0
    ts = np.linspace(0.0, 25.0, 100)
    for geometry in geometries:
        couplings = sc.build_couplings(geometry, _DIPOLAR)
        s, r = geometry.sender_index, geometry.receiver_index
        for zz in (True, False):
            sector = sc.eigendecompose(sc.sector_hamiltonian(couplings, zz))
            full = sc.eigendecompose(full_hamiltonian(couplings, zz))
            for t in ts:
                amps = sc.propagate(sector, s, float(t))
                for target in (s, r):
                    full_amp = full_space_amplitude(full, s, target, float(t))
                    worst = max(worst, abs(amps[target] - full_amp))
    ok = worst <= 1e-9
    _report(
        "criterion 2",
        ok,
        f"sector agrees with full-space propagation (worst deviation {worst:.2e})",
    )


def test_criterion_3_concurrence_dual_path():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 8))
        entries = np.abs(rng.normal(size=(n, n))) + 0.1
        entries = 0.5 * (entries + entries.T)
        np.fill_diagonal(entries, 0.0)
        couplings = sc.CouplingMatrix(entries)
        zz = bool(rng.integers(0, 2))
        decomp = sc.eigendecompose(sc.sector_hamiltonian(couplings, zz))
        sender, receiver = sorted(int(i) for i in rng.choice(n, size=2, replace=False))
        params = sc.InitialStateParams(
            theta=float(rng.uniform(0.0, math.pi)),
            phi=float(rng.uniform(0.0, 2.0 * math.pi)),
        )
        t = float(rng.uniform(0.0, 30.0))
        amps = sc.propagate(decomp, sender, t)
        closed = sc.concurrence_closed_form(params, amps[sender], amps[receiver])
        oracle = sc.wootters_concurrence_oracle(params, amps, sender, receiver)
        worst = max(worst, abs(closed - oracle))
    ok = worst <= 1e-10
    _report(
        "criterion 3",
        ok,
        f"closed-form concurrence matches density-matrix oracle (worst {worst:.2e} over 200 cases)",
    )


def test_criterion_4_double_hole_performance(dh10_scan, size_rows):
    dh = size_rows["double_hole"]
    low = min(dh.values())
    spread = max(dh.values()) - low
    ok = (
        dh10_scan.peak_fidelity.value >= 0.99
        and dh10_scan.peak_concurrence.value >= 0.99
        and low >= 0.99
        and spread <= 0.01
    )
    _report(
        "criterion 4",
        ok,
        "double-hole chain performance "
        f"(10-spin peaks F={dh10_scan.peak_fidelity.value:.5f} "
        f"C={dh10_scan.peak_concurrence.value:.5f}; "
        f"sizes 6..14 min C={low:.5f}, spread {spread:.5f})",
    )


def test_criterion_5_complete_chain_degradation(size_rows):
    complete = size_rows["complete"]
    dh = size_rows["double_hole"]
    degrades = complete[12] < complete[6]
    dominated = all(dh[n] >= complete[n] for n in complete)
    ok = degrades and dominated
    _report(
        "criterion 5",
        ok,
        "uniformly filled chain degrades with size "
        f"(C(12)={complete[12]:.5f} < C(6)={complete[6]:.5f}: {degrades}; "
        f"double-hole >= complete at every size: {dominated})",
    )


def test_criterion_6_mirror_contrast():
    lam = 2.0
    geometry = sc.build_chain_geometry(10)
    model = sc.CouplingModel.mirror_periodic(lam=lam)
    couplings = sc.build_couplings(geometry, model)
    t_transfer = math.pi / lam

    bare = sc.eigendecompose(sc.sector_hamiltonian(couplings, include_zz_diagonal=False))
    fidelity_bare = abs(sc.propagate(bare, 0, t_transfer, to=9)) ** 2
    scan = sc.time_scan(geometry, model, include_zz_diagonal=False)

    with_zz = sc.eigendecompose(sc.sector_hamiltonian(couplings, include_zz_diagonal=True))
    fidelity_zz = abs(sc.propagate(with_zz, 0, t_transfer, to=9)) ** 2

    ok = fidelity_bare >= 0.999 and scan.peak_concurrence.value <= 0.1
    _report(
        "criterion 6",
        ok,
        "engineered chain transfers without entangling "
        f"(F(pi/lambda)={fidelity_bare:.6f}, peak C={scan.peak_concurrence.value:.6f}; "
        f"zz-diagonal variant F(pi/lambda)={fidelity_zz:.6f}, reported without assertion)",
    )


def test_criterion_7_property_suite():
    from support import geometry_matrix

    worst_unitarity = 0.0
    worst_conservation = 0.0
    worst_vector_norm = 0.0
    worst_sum_rule = 0.0
    worst_bound_excess = 0.0
    worst_sign_flip = 0.0
    worst_shift = 0.0
    worst_reciprocity = 0.0
    ts = (0.31, 2.7, 11.0, 47.0)
    for _name, geometry, model in geometry_matrix():
        couplings = sc.build_couplings(geometry, model)
        s, r = geometry.sender_index, geometry.receiver_index
        n = geometry.n_sites
        for zz in (True, False):
            H = sc.sector_hamiltonian(couplings, zz).matrix
            decomp = sc.eigendecompose(H)
            flipped = sc.eigendecompose(-H)
            shifted = sc.eigendecompose(H + 0.7 * np.eye(n))
            overlaps = sc.spectral_overlaps(decomp, s, r)
            gamma_m, bound = sc.leakage_bound(overlaps)
            per_j = overlaps.sigma**2 + overlaps.rho**2 + overlaps.gamma_sq
            worst_vector_norm = max(worst_vector_norm, float(np.max(np.abs(per_j - 1.0))))
            worst_sum_rule = max(
                worst_sum_rule, abs(float(np.sum(overlaps.gamma_sq)) - (n - 2))
            )
            for t in ts:
                phases = np.exp(-1j * decomp.eigenvalues * t)
                U = (decomp.eigenvectors * phases) @ decomp.eigenvectors.T
                worst_unitarity = max(
                    worst_unitarity,
                    float(np.max(np.abs(U @ U.conj().T - np.eye(n)))),
                )
                amps = sc.propagate(decomp, s, t)
                disp = sc.dispersion(amps, s, r)
                worst_conservation = max(
                    worst_conservation,
                    abs(abs(amps[s]) ** 2 + abs(amps[r]) ** 2 + disp - 1.0),
                )
                worst_bound_excess = max(worst_bound_excess, disp - bound)
                worst_sign_flip = max(
                    worst_sign_flip,
                    float(np.max(np.abs(np.abs(sc.propagate(flipped, s, t)) - np.abs(amps)))),
                )
                worst_shift = max(
                    worst_shift,
                    float(np.max(np.abs(np.abs(sc.propagate(shifted, s, t)) - np.abs(amps)))),
                )
                worst_reciprocity = max(
                    worst_reciprocity,
                    abs(
                        sc.propagate(decomp, s, t, to=r)
                        - sc.propagate(decomp, r, t, to=s)
                    ),
                )
    ok = (
        worst_unitarity <= 1e-12
        and worst_conservation <= 1e-10
        and worst_vector_norm <= 1e-10
        and worst_sum_rule <= 1e-10
        and worst_bound_excess <= 1e-12
        and worst_sign_flip <= 1e-12
        and worst_shift <= 1e-12
        and worst_reciprocity <= 1e-13
    )
    _report(
        "criterion 7",
        ok,
        "property suite "
        f"(unitarity {worst_unitarity:.1e}, conservation {worst_conservation:.1e}, "
        f"per-vector norm {worst_vector_norm:.1e}, channel sum rule {worst_sum_rule:.1e}, "
        f"bound excess {worst_bound_excess:.1e}, sign flip {worst_sign_flip:.1e}, "
        f"energy shift {worst_shift:.1e}, reciprocity {worst_reciprocity:.1e})",
    )


def test_criterion_8_cli_determinism(tmp_path):
    config_path = tmp_path / "bench.conf"
    config_path.write_text("mode = time_scan\npositions = 12\ndh = true\nout = bench\n")
    first_dir = tmp_path / "first"
    second_dir = tmp_path / "second"
    code_first = cli_main([str(config_path), "--out", str(first_dir), "--quiet"])
    code_second = cli_main([str(config_path), "--out", str(second_dir), "--quiet"])
    first = (first_dir / "bench.csv").read_bytes()
    second = (second_dir / "bench.csv").read_bytes()
    identical = first == second
    ok = code_first == 0 and code_second == 0 and identical
    _report(
        "criterion 8",
        ok,
        "repeated CLI runs give byte-identical CSV "
        f"(exit codes {code_first}/{code_second}, identical={identical}, {len(first)} bytes)",
    )
