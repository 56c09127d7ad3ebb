"""Eigendecomposition and single-excitation time evolution."""

import math
import pickle
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spinchannel as sc
from spinchannel import cli, dynamics
from oracles import full_hamiltonian, full_space_amplitude
from support import (
    dh_geometry,
    parity_blocks,
    random_couplings,
    random_symmetric,
    reference_amplitudes,
    traced_peak,
)

# the dense reference, bound before any test replaces np.linalg.eigh
_DENSE_EIGH = np.linalg.eigh


def _dipolar_decomp(n=6, include_zz=True):
    geo = sc.build_chain_geometry(n)
    J = sc.build_couplings(geo, sc.CouplingModel.power_law())
    return sc.eigendecompose(sc.sector_hamiltonian(J, include_zz))


def _derivatives(decomp, from_index, t, to):
    """g, g' and g'' from ``from_index`` to the sites ``to`` at times t."""
    return dynamics._amplitude_derivatives(decomp, dynamics._derivative_terms(decomp, from_index, to), t)


# ---------------------------------------------------------------- eigendecompose


def test_eigendecompose_identity():
    decomp = sc.eigendecompose(np.eye(2))
    assert np.array_equal(decomp.eigenvalues, [1.0, 1.0])


def test_eigendecompose_swap_matrix():
    decomp = sc.eigendecompose(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(decomp.eigenvalues, [-1.0, 1.0], atol=1e-15)
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    # a column's sign is the one eigh returns, so each is compared up to one sign
    for column, expected in zip(decomp.eigenvectors.T, ([inv_sqrt2, -inv_sqrt2], [inv_sqrt2, inv_sqrt2])):
        assert np.allclose(column * np.sign(column[0]), expected, atol=1e-15)


def test_eigendecompose_reconstruction():
    rng = np.random.default_rng(23)
    H = random_symmetric(10, rng)
    decomp = sc.eigendecompose(H)
    rebuilt = (decomp.eigenvectors * decomp.eigenvalues) @ decomp.eigenvectors.T
    assert np.max(np.abs(rebuilt - H)) <= 1e-10
    assert np.all(np.diff(decomp.eigenvalues) >= 0.0)
    gram = decomp.eigenvectors.T @ decomp.eigenvectors
    assert np.max(np.abs(gram - np.eye(10))) <= 1e-12


def test_eigendecompose_accepts_a_read_only_array_and_a_writable_one():
    geo = sc.build_chain_geometry(4)
    J = sc.build_couplings(geo, sc.CouplingModel.power_law())
    ham = sc.sector_hamiltonian(J)
    assert not ham.flags.writeable
    a = sc.eigendecompose(ham)
    b = sc.eigendecompose(ham.copy())
    assert np.array_equal(a.eigenvalues, b.eigenvalues)
    assert np.array_equal(a.eigenvectors, b.eigenvectors)


def test_eigendecompose_rejects_bad_input():
    with pytest.raises(ValueError):
        sc.eigendecompose(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        sc.eigendecompose(np.array([[0.0, 1.0], [2.0, 0.0]]))
    with pytest.raises(ValueError):
        sc.eigendecompose(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="non-empty square matrix"):
        sc.eigendecompose(np.zeros((0, 0)))


_NON_FINITE = [(value, site) for value in (np.inf, -np.inf, np.nan) for site in ("upper", "lower", "diagonal")]


@pytest.mark.parametrize("frozen", [False, True], ids=["array", "read_only"])
@pytest.mark.parametrize("n", [5, 130])
@pytest.mark.parametrize(
    ("defect", "site", "message"),
    [(value, site, "non-finite entries") for value, site in _NON_FINITE]
    + [(2e-12, "upper", "not symmetric"), (2e-12, "lower", "not symmetric")],
)
def test_eigendecompose_rejects_one_bad_entry_without_a_warning(frozen, n, defect, site, message):
    # 130 rows span three panels of the entry check, and the entry sits in the last one;
    # a read-only array, as sector_hamiltonian returns, is checked as a writable one is
    H = random_symmetric(n, np.random.default_rng(n))
    i, k = {"upper": (n - 3, n - 1), "lower": (n - 1, n - 3), "diagonal": (n - 1, n - 1)}[site]
    if message == "not symmetric":
        H[i, k] += defect
    else:
        H[i, k] = defect
    H.setflags(write=not frozen)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            sc.eigendecompose(H)


def test_eigendecompose_rejects_an_overflowing_asymmetry_without_a_warning():
    H = np.zeros((70, 70))
    H[69, 2], H[2, 69] = 1e308, -1e308
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="not symmetric"):
            sc.eigendecompose(H)


@pytest.mark.parametrize("route", ["dense", "split", "blocks"])
def test_a_spectrum_past_the_float_range_is_a_numerical_failure(route):
    # every entry is finite, yet LAPACK's eigenvalues overflow: 40 sites go to one dense eigh,
    # 70 to the parity blocks folded from H, or to those model builds
    geo = sc.build_chain_geometry(40 if route == "dense" else 70)
    model = sc.CouplingModel.power_law(strength_c=1.5e308)
    if route == "blocks":
        hamiltonian = sc.model._chain_sector(geo, model, False)
        assert isinstance(hamiltonian, dynamics._ParityBlocks)
    else:
        hamiltonian = sc.sector_hamiltonian(sc.build_couplings(geo, model), False)
        if route == "split":
            hamiltonian = parity_blocks(hamiltonian)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(sc.NumericsError, match=f"^eigenvalue 0 of {geo.n_sites} is -inf: the spectrum overflows$"):
            sc.eigendecompose(hamiltonian)


@pytest.mark.parametrize(
    ("span", "entry"),
    # on 70 sites H[33, 34] + H[33, 35] = C + C/8; on 71 the middle column sqrt(2) H[34, 35] = sqrt(2) C
    [(70, "(33, 34)"), (71, "(34, 35)")],
)
@pytest.mark.parametrize("route", ["split", "blocks"])
def test_a_mirror_fold_past_the_float_range_is_a_numerical_failure(route, span, entry):
    geo = sc.build_chain_geometry(span)
    model = sc.CouplingModel.power_law(strength_c=1.7e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        message = f"^the mirror fold of H overflows: even block entry {re.escape(entry)} is inf$"
        with pytest.raises(sc.NumericsError, match=message):
            if route == "blocks":
                sc.model._chain_sector(geo, model, False)
            else:
                parity_blocks(sc.sector_hamiltonian(sc.build_couplings(geo, model), False))
        # with the S^z S^z diagonal the row sums overflow first, a rejected input on both routes
        with pytest.raises(ValueError, match="^the couplings' row sums overflow: "):
            sc.model._chain_sector(geo, model, True)


@pytest.fixture
def entry_checks(monkeypatch):
    """The matrices whose entries eigendecompose checks for finiteness and symmetry."""
    checked = []
    check = dynamics._asymmetry

    def recording(matrix):
        checked.append(matrix)
        return check(matrix)

    monkeypatch.setattr(dynamics, "_asymmetry", recording)
    return checked


@pytest.mark.parametrize("span", [12, 132])
def test_every_matrix_is_checked_once_whatever_built_it(entry_checks, span):
    ham = sc.sector_hamiltonian(sc.build_couplings(dh_geometry(span - 2), sc.CouplingModel.power_law()))
    decomps = []
    # the read-only array sector_hamiltonian built and a writable copy of it
    for given in (ham, ham.copy()):
        entry_checks.clear()
        decomps.append(sc.eigendecompose(given))
        assert len(entry_checks) == 1 and entry_checks[0] is given
    for decomp in decomps[1:]:
        assert np.array_equal(decomp.eigenvalues, decomps[0].eigenvalues)
        assert np.array_equal(decomp.eigenvectors, decomps[0].eigenvectors)
    # a pickled copy comes back writable, and what is written to it is checked too
    copied = pickle.loads(pickle.dumps(ham))
    copied[1, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite entries"):
        sc.eigendecompose(copied)


def test_couplings_written_after_their_check_are_rejected():
    # a custom model's CouplingMatrix is checked once, but its entries can change after,
    # through the writable base of a view
    big = np.zeros((8, 8))
    big[:6, :6] = sc.build_couplings(dh_geometry(6), sc.CouplingModel.power_law()).entries
    model = sc.CouplingModel.custom(big[:6, :6])
    big[0, 5] += 1.0
    with pytest.raises(ValueError, match="not symmetric"):
        sc.time_scan(dh_geometry(6), model)


# ------------------------------------------------- mirror-symmetric split


@pytest.fixture
def eigh_shapes(monkeypatch):
    """Shapes of the matrices handed to np.linalg.eigh as dynamics sees it."""
    shapes = []

    def recording_eigh(matrix, *args, **kwargs):
        shapes.append(np.shape(matrix))
        return _DENSE_EIGH(matrix, *args, **kwargs)

    monkeypatch.setattr(dynamics.np.linalg, "eigh", recording_eigh)
    return shapes


def _dh_sector(span):
    geo = sc.build_chain_geometry(span, 1, span, double_hole=True)
    J = sc.build_couplings(geo, sc.CouplingModel.power_law())
    return geo, sc.sector_hamiltonian(J)


def _dh_blocks(span):
    """What ``time_scan`` diagonalizes for the double-hole chain of ``span`` positions: its parity blocks from 66 on."""
    return sc.model._chain_sector(dh_geometry(span - 2), sc.CouplingModel.power_law())


def _assert_same_decomposition_as_dense(H, decomp):
    dense_values, _ = _DENSE_EIGH(H)
    E, V = decomp.eigenvalues, decomp.eigenvectors
    n = len(dense_values)
    assert np.max(np.abs(E - dense_values)) <= 1e-12 * np.max(np.abs(dense_values))
    assert np.max(np.abs(H @ V - V * E)) <= 1e-10
    assert np.max(np.abs(V.T @ V - np.eye(n))) <= 1e-12


@pytest.mark.parametrize("span, blocks", [(66, [(32, 32), (32, 32)]), (67, [(33, 33), (32, 32)])])
def test_mirror_split_matches_dense_eigh(eigh_shapes, span, blocks):
    _geo, H = _dh_sector(span)
    decomp = sc.eigendecompose(_dh_blocks(span))
    assert eigh_shapes == blocks
    _assert_same_decomposition_as_dense(H, decomp)


def test_mirror_split_full_space_matches_sector(eigh_shapes):
    # global spin flip maps basis index b to 2^7 - 1 - b, the index reversal
    J = sc.build_couplings(sc.build_chain_geometry(7), sc.CouplingModel.power_law())
    H = full_hamiltonian(J, True)
    full = sc.eigendecompose(parity_blocks(H))
    assert eigh_shapes == [(64, 64), (64, 64)]
    _assert_same_decomposition_as_dense(H, full)
    sector = sc.eigendecompose(sc.sector_hamiltonian(J, True))
    for t in (0.0, 1.3, 89.0):
        expected = sc.propagate(sector, 0, t, to=6)
        assert full_space_amplitude(full, 0, 6, t) == pytest.approx(expected, abs=1e-11)


def test_nearly_mirror_symmetric_matrix_is_diagonalized_as_given(eigh_shapes):
    _geo, H = _dh_sector(102)
    H = H.copy()
    H[3, 10] += 1e-6
    H[10, 3] += 1e-6
    decomp = sc.eigendecompose(H)
    assert eigh_shapes == [(100, 100)]
    assert np.max(np.abs(decomp.eigenvalues - np.linalg.eigvalsh(H))) <= 1e-12


def test_a_mirror_symmetric_array_is_diagonalized_as_given(eigh_shapes):
    # only model._chain_sector splits a chain; an array, mirror-symmetric or not, takes one dense eigh
    _geo, H = _dh_sector(132)
    decomp = sc.eigendecompose(H)
    assert eigh_shapes == [(130, 130)]
    assert decomp._signs is None and decomp._held.shape == (130, 130)


def test_mirror_split_keeps_dominant_pair_mirror_symmetric():
    # the pair's gap is ~1e-9 against |E| ~ 740; a dense eigh mixes it by ~2e-4
    geo = dh_geometry(998)
    decomp = sc.eigendecompose(_dh_blocks(1000))
    overlaps = sc.spectral_overlaps(decomp, geo.sender_index, geo.receiver_index)
    _delta, pair, _mass = sc.two_qubit_effective(decomp, overlaps)
    for j in pair:
        assert abs(overlaps.sigma[j] ** 2 - overlaps.rho[j] ** 2) <= 1e-12


# mirror chains that take the split path: both layouts, even and odd n, and a mirror-periodic chain
_SPLIT_CHAINS = {
    "complete64": (64, "complete"),
    "complete65": (65, "complete"),
    "complete101": (101, "complete"),
    "dh66": (66, "dh"),
    "dh67": (67, "dh"),
    "dh101": (101, "dh"),
    "dh202": (202, "dh"),
    "mirror99": (99, "mirror"),
}


@pytest.fixture(scope="module")
def split_chains():
    """(geometry, sector matrix, decomposition of the chain's parity blocks) of each chain in _SPLIT_CHAINS."""
    chains = {}
    for label, (span, layout) in _SPLIT_CHAINS.items():
        geo = sc.build_chain_geometry(span, 1, span, double_hole=layout == "dh")
        model = sc.CouplingModel.mirror_periodic() if layout == "mirror" else sc.CouplingModel.power_law()
        H = sc.sector_hamiltonian(sc.build_couplings(geo, model), layout != "mirror")
        chains[label] = (geo, H, sc.eigendecompose(sc.model._chain_sector(geo, model, layout != "mirror")))
    return chains


@pytest.mark.parametrize("label", list(_SPLIT_CHAINS))
def test_split_eigenvectors_reconstruct_the_matrix(split_chains, label):
    _geo, H, decomp = split_chains[label]
    assert decomp._held.shape == ((decomp.n + 1) // 2, decomp.n)  # a split holds ceil(n/2) rows
    _assert_same_decomposition_as_dense(H, decomp)


@pytest.mark.parametrize("label", list(_SPLIT_CHAINS))
def test_split_eigenvectors_are_even_or_odd(split_chains, label):
    _geo, _H, decomp = split_chains[label]
    V = decomp.eigenvectors
    even = np.all(V[::-1] == V, axis=0)
    odd = np.all(V[::-1] == -V, axis=0)
    assert np.all(even ^ odd)


@pytest.mark.parametrize("label", list(_SPLIT_CHAINS))
def test_split_rows_equal_the_assembled_eigenvectors(split_chains, label):
    geo, H, _decomp = split_chains[label]
    decomp = sc.eigendecompose(parity_blocks(H))
    n = decomp.n
    s, r = geo.sender_index, geo.receiver_index
    indices = [0, 1, n // 2, (n - 1) // 2, n - 2, n - 1, -1, -n, np.array([s, r]), np.array([[r, 3], [n // 2, s]])]
    rows = [decomp._rows(index) for index in indices]
    assert "eigenvectors" not in vars(decomp)  # rows are served without assembling V
    V = decomp.eigenvectors
    for index, row in zip(indices, rows):
        assert np.array_equal(row, V[index]) and np.array_equal(np.signbit(row), np.signbit(V[index]))
    with pytest.raises(IndexError):
        decomp._rows(n)

    # so propagate reads the same numbers from a split decomposition as from its V
    eager = sc.SpectralDecomposition(decomp.eigenvalues, V)
    times = np.linspace(0.0, 50.0, 30)
    assert np.array_equal(sc.propagate(decomp, s, times, to=(s, r)), sc.propagate(eager, s, times, to=(s, r)))
    irregular = times[[3, 1, 7]]
    assert np.array_equal(sc.propagate(decomp, s, irregular, to=r), sc.propagate(eager, s, irregular, to=r))
    assert np.array_equal(
        _derivatives(decomp, s, times[:5], (s, r)),
        _derivatives(eager, s, times[:5], (s, r)),
    )


@pytest.mark.parametrize("label", list(_SPLIT_CHAINS))
def test_split_overlaps_match_the_assembled_eigenvectors(split_chains, label):
    geo, _H, decomp = split_chains[label]
    eager = sc.SpectralDecomposition(decomp.eigenvalues, decomp.eigenvectors)
    n = decomp.n
    # sender and receiver at mirror sites, at two sites of one half, and at the middle site
    for s, r in ((geo.sender_index, geo.receiver_index), (2, 5), (n - 4, n // 2), (1, n - 1)):
        split, dense = sc.spectral_overlaps(decomp, s, r), sc.spectral_overlaps(eager, s, r)
        assert np.array_equal(split.sigma, dense.sigma)
        assert np.array_equal(split.rho, dense.rho)
        # summed in another order
        assert np.max(np.abs(split.gamma_sq - dense.gamma_sq)) <= 1e-14


def test_split_decomposition_holds_half_an_eigenvector_matrix():
    # the 1000-position double-hole chain: V alone would take 8 n^2 bytes
    n = 998
    decomp, _peak, held = traced_peak(lambda: sc.eigendecompose(_dh_blocks(1000)))
    # half of V's bytes, plus a few length-n vectors (eigenvalues, rates, signs)
    assert held <= 8 * n * n / 2 + 64 * n
    assert decomp.eigenvectors.shape == (n, n)


def test_split_eigenvectors_are_built_in_one_array():
    # the first read of V on the 1000-position double-hole chain makes V and nothing of its size besides
    decomp = sc.eigendecompose(_dh_blocks(1000))
    n = decomp.n
    V, peak, _held = traced_peak(lambda: decomp.eigenvectors)
    assert peak <= 1.1 * 8 * n * n
    rows = np.array([decomp._rows(site) for site in range(n)])
    assert np.array_equal(V, rows) and np.array_equal(np.signbit(V), np.signbit(rows))


def test_eigh_calls_per_chain(eigh_shapes):
    # long mirror chains take the split path; disordered and short ones do not
    sc.eigendecompose(_dh_blocks(200))
    assert eigh_shapes == [(99, 99), (99, 99)]

    eigh_shapes.clear()
    geo = sc.build_chain_geometry(100)
    dipolar = sc.build_couplings(geo, sc.CouplingModel.power_law()).entries
    noise = np.random.default_rng(41).uniform(-0.2, 0.2, size=dipolar.shape)
    disordered = dipolar * (1.0 + 0.5 * (noise + noise.T))
    J = sc.build_couplings(geo, sc.CouplingModel.custom(disordered))
    sc.eigendecompose(sc.sector_hamiltonian(J))
    assert eigh_shapes == [(100, 100)]

    eigh_shapes.clear()
    sc.eigendecompose(_dh_blocks(12))
    assert eigh_shapes == [(10, 10)]


@pytest.mark.parametrize(("span", "calls"), [(132, [(65, 65), (65, 65)]), (42, [(40, 40)])], ids=["odd_block", "dense"])
def test_eigh_failure_is_a_numerical_failure(monkeypatch, tmp_path, span, calls):
    # eigh, as dynamics sees it, fails on the chain's last call: the odd block of a split, or the one dense call
    seen = []

    def failing_eigh(matrix, *args, **kwargs):
        seen.append(np.shape(matrix))
        if len(seen) == len(calls):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return _DENSE_EIGH(matrix, *args, **kwargs)

    monkeypatch.setattr(dynamics.np.linalg, "eigh", failing_eigh)
    with pytest.raises(sc.NumericsError, match="^eigendecomposition failed to converge: Eigenvalues did not converge$"):
        sc.eigendecompose(_dh_blocks(span))
    assert seen == calls
    seen.clear()
    config = tmp_path / "chain.conf"
    config.write_text(f"mode = diagnostics\npositions = {span}\ndh = true\nout = chain\n")
    assert cli.main([str(config), "--out", str(tmp_path / "out"), "--quiet"]) == 3
    assert seen == calls


# ---------------------------------------------------------------- propagation


def test_propagator_at_time_zero():
    decomp = _dipolar_decomp()
    assert sc.propagate(decomp, 0, 0.0, to=0) == pytest.approx(1.0, abs=1e-14)
    assert abs(sc.propagate(decomp, 0, 0.0, to=5)) <= 1e-14


def test_unitarity_at_random_times():
    decomp = _dipolar_decomp(n=8)
    rng = np.random.default_rng(31)
    for t in rng.uniform(0.0, 500.0, size=10):
        amps = sc.propagate(decomp, 0, float(t))
        assert np.sum(np.abs(amps) ** 2) == pytest.approx(1.0, abs=1e-12)


def test_propagator_reciprocity():
    decomp = _dipolar_decomp(n=7)
    for t in (0.3, 2.9, 47.0):
        f_sr = sc.propagate(decomp, 0, t, to=6)
        f_rs = sc.propagate(decomp, 6, t, to=0)
        assert abs(f_sr - f_rs) <= 1e-13


def test_sector_amplitudes_match_propagator():
    decomp = _dipolar_decomp(n=5)
    t = 7.7
    amps = sc.propagate(decomp, 0, t)
    assert amps.shape == (5,)
    for n in range(5):
        assert amps[n] == pytest.approx(sc.propagate(decomp, 0, t, to=n), abs=1e-13)


def test_amplitude_series_matches_pointwise():
    decomp = _dipolar_decomp(n=6)
    times = np.linspace(0.0, 40.0, 50)
    series = sc.propagate(decomp, 0, times, to=(0, 5))
    assert series.shape == (50, 2)
    assert sc.propagate(decomp, 0, times).shape == (50, 6)
    assert sc.propagate(decomp, 0, times, to=5).shape == (50,)
    leak = sc.leaked_weight(series[:, 0], series[:, 1])
    for k in range(0, 50, 7):
        t = float(times[k])
        f_ss = sc.propagate(decomp, 0, t, to=0)
        f_sr = sc.propagate(decomp, 0, t, to=5)
        assert series[k, 0] == pytest.approx(f_ss, abs=1e-12)
        assert series[k, 1] == pytest.approx(f_sr, abs=1e-12)
        expected_leak = 1.0 - abs(f_ss) ** 2 - abs(f_sr) ** 2
        assert leak[k] == pytest.approx(expected_leak, abs=1e-10)


@pytest.fixture(scope="module")
def scan_chains():
    """A complete chain, a double-hole chain and the 202-position double-hole chain, whose
    decomposition goes through the mirror split: (decomposition, sender, receiver)."""
    chains = {}
    for label, geo in (
        ("complete10", sc.build_chain_geometry(10)),
        ("dh10", dh_geometry(10)),
        ("dh202", dh_geometry(200)),
    ):
        decomp = sc.eigendecompose(sc.model._chain_sector(geo, sc.CouplingModel.power_law()))
        chains[label] = (decomp, geo.sender_index, geo.receiver_index)
    return chains


@pytest.mark.parametrize("chain", ["complete10", "dh10", "dh202"])
def test_progression_grid_matches_direct_phases(scan_chains, chain):
    # G = 4 fills its last coarse row of B = ceil(sqrt(G)) fine rows, 3, 17,
    # 2000 and 20001 leave it short, and 2 has a single coarse row
    decomp, s, r = scan_chains[chain]
    V = decomp.eigenvectors
    for count in (2, 3, 4, 17, 2000, 20001):
        times = np.linspace(2.5, 62.5, count)
        # every row up to 2000 points, beyond that a sample plus the last coarse rows
        rows = np.arange(count) if count <= 2000 else np.r_[0:count:41, count - 300 : count]
        shift = np.exp(-1j * decomp._midpoint * times[rows])
        for to in (r, (s, r), None):
            if to is None and chain == "dh202" and count > 2000:
                continue  # a 64 MB result; the chunked path is covered at 2000 points
            targets = V if to is None else V[np.asarray(to)]
            direct = dynamics._phase_block(decomp, V[s], times[rows]) @ targets.T
            direct *= shift.reshape((-1,) + (1,) * (direct.ndim - 1))
            grid = sc.propagate(decomp, s, times, to=to)
            assert grid.shape == (count,) + targets.shape[:-1]
            assert np.max(np.abs(grid[rows] - direct)) <= 1e-12, (count, to)


def test_progression_grid_never_builds_the_phase_block():
    # 400 spins on 20000 points: the grid-by-spectrum phase block alone would take 128 MB
    geo = dh_geometry(400)
    decomp = sc.eigendecompose(sc.model._chain_sector(geo, sc.CouplingModel.power_law()))
    s, r = geo.sender_index, geo.receiver_index
    times = np.linspace(0.0, 1e6, 20000)
    _, peak, _ = traced_peak(lambda: sc.propagate(decomp, s, times, to=(s, r)))
    assert peak < 16 * times.size * decomp.n / 10


@pytest.mark.parametrize("to", [np.array([], dtype=int), [], ()], ids=["int_array", "list", "tuple"])
@pytest.mark.parametrize("times", [np.linspace(0.0, 1.0, 5), np.array([0.0, 0.3, 0.9])], ids=["progression", "other"])
def test_propagate_to_no_targets_gives_an_empty_column_per_time(scan_chains, times, to):
    decomp, s, _ = scan_chains["dh10"]
    amplitudes = sc.propagate(decomp, s, times, to=to)
    assert amplitudes.shape == (times.size, 0)
    assert amplitudes.dtype == np.complex128
    # only an empty index is made integer; a float one is rejected
    with pytest.raises(ValueError, match=r"^to=1\.5 is not an integer$"):
        sc.propagate(decomp, s, times, to=[1.5])


@pytest.mark.parametrize(
    ("from_index", "to", "message"),
    [
        (-1, 0, "from_index=-1 out of range for 8 sites"),
        (8, 0, "from_index=8 out of range for 8 sites"),
        (1.5, 0, "from_index=1.5 is not an integer"),
        (0, 8, "to=8 out of range for 8 sites"),
        (0, -1, "to=-1 out of range for 8 sites"),
        (0, [1.0], "to=1.0 is not an integer"),
        (0, [[3, 2], [1, 8]], "to=8 out of range for 8 sites"),
    ],
)
@pytest.mark.parametrize("times", [0.7, np.linspace(0.0, 1.0, 5)], ids=["scalar", "progression"])
def test_propagate_rejects_a_site_index_outside_the_chain(from_index, to, message, times):
    decomp = _dipolar_decomp(8)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        sc.propagate(decomp, from_index, times, to=to)


def _with_entry(times, k, value):
    times = np.array(times)
    times.flat[k] = value
    return times


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "times",
    [
        lambda value: value,
        # grids that are a progression but for the entry at fault
        lambda value: _with_entry(np.linspace(0.0, 1.0, 9), -1, value),
        lambda value: _with_entry(np.linspace(0.0, 1.0, 9), 4, value),
        # a 2-D array, never a progression
        lambda value: _with_entry([[0.3, 2.0], [0.1, 5.0]], 2, value),
    ],
    ids=["scalar", "progression_end", "progression_inside", "irregular"],
)
def test_propagate_rejects_a_time_that_is_not_finite(times, value):
    # a NaN time would give NaN amplitudes silently, an infinite one NaN after a warning
    decomp = _dipolar_decomp(8)
    for to in (None, [0, 7]):
        with pytest.raises(ValueError, match=f"^t must be finite \\(got {value}\\)$"):
            sc.propagate(decomp, 0, times(value), to=to)


@pytest.mark.parametrize("value", ["1", True, np.True_, None, 1 + 0j, np.complex128(1.0)], ids=repr)
@pytest.mark.parametrize(
    "times",
    [lambda value: value, lambda value: [0.5, value], lambda value: np.array([[0.5, value]], dtype=object)],
    ids=["alone", "list", "object_array"],
)
def test_propagate_takes_only_real_numbers_as_times(times, value):
    # np.asarray would read "1" and True as 1.0, None as NaN, and a complex value with a warning or a TypeError
    decomp = _dipolar_decomp(6)
    with pytest.raises(ValueError, match=f"^t must be a real number \\(got {re.escape(repr(value))}\\)$"):
        sc.propagate(decomp, 0, times(value), to=5)


@pytest.mark.parametrize(
    ("times", "entry"),
    [
        (np.array([True, False]), "True"),
        (np.array([1 + 0j, 2.0]), "(1+0j)"),
        (np.array(["1"]), "'1'"),
        (np.array(1j), "1j"),
    ],
)
def test_propagate_rejects_arrays_of_times_that_are_not_real(times, entry):
    decomp = _dipolar_decomp(6)
    with pytest.raises(ValueError, match=f"^t must be a real number \\(got {re.escape(entry)}\\)$"):
        sc.propagate(decomp, 0, times, to=5)


def test_propagate_reads_int_and_float_times_bit_for_bit():
    decomp = _dipolar_decomp(6)
    grid = np.linspace(0.0, 3.0, 7)
    expected = sc.propagate(decomp, 0, grid, to=5)
    for times in (grid.tolist(), [np.float64(t) for t in grid], grid.astype(object)):
        assert sc.propagate(decomp, 0, times, to=5).tobytes() == expected.tobytes()
    whole = np.arange(4.0)
    for times in ([0, 1, 2, 3], np.arange(4), [np.int32(t) for t in range(4)]):
        assert sc.propagate(decomp, 0, times, to=5).tobytes() == sc.propagate(decomp, 0, whole, to=5).tobytes()
    assert sc.propagate(decomp, 0, 3, to=5) == sc.propagate(decomp, 0, 3.0, to=5)
    # a float64 array is read in place
    assert dynamics._times(grid) is grid


def test_propagate_reads_site_indices_as_operator_index_does():
    decomp = _dipolar_decomp(8)
    times = np.linspace(0.0, 3.0, 7)
    expected = sc.propagate(decomp, 1, times, to=[[0, 7], [1, 2]])
    assert np.array_equal(sc.propagate(decomp, np.int64(1), times, to=np.array([[0, 7], [1, 2]])), expected)
    # a bool is the integer 0 or 1, not a mask
    bools = np.array([[False, True]])
    assert np.array_equal(sc.propagate(decomp, True, times, to=bools), sc.propagate(decomp, 1, times, to=[[0, 1]]))
    assert np.array_equal(sc.propagate(decomp, 1, times, to=True), sc.propagate(decomp, 1, times, to=1))


@pytest.mark.parametrize("chain", ["random8", "dh202"])
def test_amplitude_derivatives_match_differences_of_propagate(chain):
    rng = np.random.default_rng(41)
    if chain == "random8":
        decomp = sc.eigendecompose(sc.sector_hamiltonian(random_couplings(8, rng)))
        s, r = 0, 7
    else:
        geo = dh_geometry(200)
        decomp = sc.eigendecompose(sc.model._chain_sector(geo, sc.CouplingModel.power_law()))
        s, r = geo.sender_index, geo.receiver_index
    t = np.concatenate(([0.0, 100.0], rng.uniform(0.0, 100.0, size=6)))
    g, slope, curvature = _derivatives(decomp, s, t, (s, r))
    assert g.shape == slope.shape == curvature.shape == (t.size, 2)

    def unshifted(times):
        # g(t) = exp(i Ebar t) f(t), Ebar the spectral midpoint propagate takes phases from
        midpoint = 0.5 * (decomp.eigenvalues[0] + decomp.eigenvalues[-1])
        return sc.propagate(decomp, s, times, to=(s, r)) * np.exp(1j * midpoint * times)[:, None]

    # fourth-order central differences
    h = 2e-3
    near = [unshifted(t + k * h) for k in (-2, -1, 0, 1, 2)]
    d1 = (near[0] - 8.0 * near[1] + 8.0 * near[3] - near[4]) / (12.0 * h)
    d2 = (-near[0] + 16.0 * near[1] - 30.0 * near[2] + 16.0 * near[3] - near[4]) / (12.0 * h * h)
    assert np.max(np.abs(g - near[2])) <= 1e-12
    assert np.max(np.abs(slope - d1)) <= 1e-6 * np.max(np.abs(slope))
    assert np.max(np.abs(curvature - d2)) <= 1e-6 * np.max(np.abs(curvature))


def test_reduced_phases_agree_with_exact_phases_at_least_as_closely(monkeypatch):
    # the scan window of the 1000-position chain is ~2.7e9, so max|E - Ebar| t reaches ~9e9 rad
    geo = dh_geometry(998)
    decomp = sc.eigendecompose(sc.model._chain_sector(geo, sc.CouplingModel.power_law()))
    s, r = geo.sender_index, geo.receiver_index
    t_max = 2.66e9
    assert dynamics._REDUCE_PHASES_ABOVE < decomp._half_width * t_max <= dynamics._REDUCE_PHASES_UP_TO
    times = np.linspace(0.0, t_max, 2000)
    rows = np.r_[0:2000:97, 1999]
    irregular = np.sort(np.random.default_rng(3).uniform(0.0, t_max, 12))
    exact = [reference_amplitudes(decomp, s, probes, to=(s, r)) for probes in (times[rows], irregular)]

    def errors():
        grid = sc.propagate(decomp, s, times, to=(s, r))[rows]
        probes = sc.propagate(decomp, s, irregular, to=(s, r))
        return [
            float(np.max(measure(computed, reference)))
            for computed, reference in zip((grid, probes), exact)
            for measure in (lambda a, b: np.abs(a - b), lambda a, b: np.abs(np.abs(a) - np.abs(b)))
        ]

    reduced = errors()
    monkeypatch.setattr(dynamics, "_REDUCE_PHASES_ABOVE", math.inf)
    unreduced = errors()
    # measured: complex errors 1.85e-4 (grid) and 1.62e-4 (probes) either way, set by the
    # rounding of Ebar t ~ 3e12 rad; modulus errors 3.7e-7 either way and 2.6e-7 (reduced
    # 2.8e-17 below unreduced), set by the rounding of (E - Ebar) t
    for new, old in zip(reduced, unreduced):
        assert new <= old


@pytest.mark.parametrize(
    ("label", "largest_phase"),
    [
        ("below", 0.999 * dynamics._REDUCE_PHASES_ABOVE),
        ("inside", 1.001 * dynamics._REDUCE_PHASES_ABOVE),
        ("beyond", 1.001 * dynamics._REDUCE_PHASES_UP_TO),
    ],
)
def test_phases_are_reduced_only_inside_the_range(scan_chains, monkeypatch, label, largest_phase):
    decomp, s, r = scan_chains["dh202"]
    t_max = largest_phase / decomp._half_width
    # a progression from 0, one about 0 (its largest phase is that of t_last - t0) and irregular times
    grids = (
        np.linspace(0.0, t_max, 500),
        np.linspace(-0.5 * t_max, 0.5 * t_max, 301),
        np.linspace(0.0, t_max, 37)[[5, 2, 30, 36]],
    )

    def evaluate():
        return [sc.propagate(decomp, s, times, to=(s, r)) for times in grids] + [
            _derivatives(decomp, s, grids[2], (s, r))
        ]

    reduced = evaluate()
    monkeypatch.setattr(dynamics, "_REDUCE_PHASES_ABOVE", math.inf)
    for new, old in zip(reduced, evaluate()):
        if label == "inside":
            assert not np.array_equal(new, old)
            scale = np.max(np.abs(old)) if new.ndim == 3 else 1.0
            assert np.max(np.abs(new - old)) <= 1e-14 * scale
        else:
            assert np.array_equal(new, old)


def test_amplitude_series_rejects_broken_decomposition():
    bad = sc.SpectralDecomposition(np.zeros(3), np.ones((3, 3)))
    f_ss, f_sr = sc.propagate(bad, 0, np.array([0.0, 1.0]), to=(0, 2)).T
    with pytest.raises(sc.NumericsError):
        sc.leaked_weight(f_ss, f_sr)


@pytest.mark.parametrize(
    ("eigenvalues", "eigenvectors"),
    [
        (np.zeros(2), np.ones((3, 2))),
        (np.zeros(3), np.ones((2, 2))),
        (np.zeros(0), np.ones((0, 0))),
        (np.zeros((2, 2)), np.ones((2, 2))),
        (np.zeros(2), np.ones(2)),
    ],
    ids=["tall", "short", "empty", "matrix_of_values", "vector_of_vectors"],
)
def test_decomposition_rejects_mismatched_shapes(eigenvalues, eigenvectors):
    with pytest.raises(ValueError, match="n x n eigenvector matrix"):
        sc.SpectralDecomposition(eigenvalues, eigenvectors)


def test_mirror_chain_transfer_amplitude_matches_closed_form_at_1000_sites():
    # f_1N(t) = (-i sin(lam t / 2))^(N - 1) on the mirror-periodic chain
    # (Christandl et al., PRL 92, 187902, 2004); the grid is a progression
    n, lam = 1000, 2.0
    geo, model = sc.build_chain_geometry(n), sc.CouplingModel.mirror_periodic(lam=lam)
    decomp = sc.eigendecompose(sc.model._chain_sector(geo, model, False))
    times = np.linspace(0.0, 2.0 * math.pi / lam, 2000)

    def closed_form(t):
        return (-1j) ** ((n - 1) % 4) * np.sin(lam * t / 2.0) ** (n - 1)

    assert np.max(np.abs(sc.propagate(decomp, 0, times, to=n - 1) - closed_form(times))) <= 1e-12
    for t in [*times[::37].tolist(), *times[995:1005].tolist(), math.pi / lam]:
        assert abs(sc.propagate(decomp, 0, t, to=n - 1) - closed_form(t)) <= 1e-12


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(
    n=st.integers(2, 24),
    seed=st.integers(0, 2**32 - 1),
    t_max=st.floats(0.1, 5.0),
    shift=st.floats(-10.0, 10.0),
)
def test_propagation_invariants_on_random_couplings(n, seed, t_max, shift):
    # a linspace grid and sorted irregular times, so both ways of scoring a
    # grid are checked.  The two eigh calls round |E| <~ 60 apart by
    # ~eps |E|, which t turns into phase: t <= 5 keeps that below ~3e-13.
    rng = np.random.default_rng(seed)
    H = sc.sector_hamiltonian(random_couplings(n, rng))
    decomp = sc.eigendecompose(H)
    shifted = sc.eigendecompose(H + shift * np.eye(n))
    s, r = sorted(rng.choice(n, size=2, replace=False).tolist())
    for times in (np.linspace(0.0, t_max, 60), np.sort(rng.uniform(0.0, t_max, 60))):
        amps = sc.propagate(decomp, s, times)
        assert np.max(np.abs(np.sum(np.abs(amps) ** 2, axis=1) - 1.0)) <= 1e-12
        assert np.max(np.abs(amps[:, r] - sc.propagate(decomp, r, times, to=s))) <= 1e-12
        assert np.max(np.abs(np.abs(sc.propagate(shifted, s, times)) - np.abs(amps))) <= 1e-12


# ---------------------------------------------------------------- full space


def test_full_space_amplitude_matches_sector():
    geo = dh_geometry(4)
    J = sc.build_couplings(geo, sc.CouplingModel.power_law())
    sector = sc.eigendecompose(sc.sector_hamiltonian(J, True))
    full = sc.eigendecompose(full_hamiltonian(J, True))
    s, r = geo.sender_index, geo.receiver_index
    for t in (0.0, 1.3, 89.0):
        a = sc.propagate(sector, s, t, to=r)
        b = full_space_amplitude(full, s, r, t)
        assert a == pytest.approx(b, abs=1e-11)
