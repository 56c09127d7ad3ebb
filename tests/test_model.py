"""Geometry, coupling, and Hamiltonian construction."""

import math

import numpy as np
import pytest

import spinchannel as sc
from support import dh_geometry, random_couplings


# ---------------------------------------------------------------- geometry


def test_geometry_basic_properties():
    geo = sc.build_chain_geometry(5, 2, 5)
    assert geo.positions == (1, 2, 3, 4, 5)
    assert geo.n_sites == 5
    assert geo.sender_index == 1
    assert geo.receiver_index == 4


def test_geometry_receiver_defaults_to_span():
    geo = sc.build_chain_geometry(7)
    assert geo.sender_pos == 1
    assert geo.receiver_pos == 7


def test_double_hole_removes_neighbours():
    geo = dh_geometry(10)
    assert geo.positions == (1, 3, 4, 5, 6, 7, 8, 9, 10, 12)
    assert geo.n_sites == 10
    assert geo.sender_index == 0
    assert geo.receiver_index == 9


def test_double_hole_collapses_when_holes_coincide():
    geo = sc.build_chain_geometry(4, 1, 3, double_hole=True)
    assert geo.positions == (1, 3, 4)


def test_geometry_rejects_bad_spans_and_sites():
    with pytest.raises(ValueError):
        sc.build_chain_geometry(1)
    with pytest.raises(ValueError):
        sc.build_chain_geometry(5, 3, 3)
    with pytest.raises(ValueError):
        sc.build_chain_geometry(5, 1, 6)
    with pytest.raises(ValueError):
        sc.build_chain_geometry(5, 0, 5)
    with pytest.raises(ValueError):
        sc.build_chain_geometry(5, 2, 3, double_hole=True)


def test_geometry_type_rejects_inconsistent_sites():
    with pytest.raises(ValueError):
        sc.ChainGeometry((1, 2, 2), 1, 2)
    with pytest.raises(ValueError):
        sc.ChainGeometry((3, 1), 1, 3)
    with pytest.raises(ValueError):
        sc.ChainGeometry((1, 3), 2, 3)
    with pytest.raises(ValueError):
        sc.ChainGeometry((1, 3), 3, 3)


# ---------------------------------------------------------------- couplings


def test_power_law_dipolar_values():
    geo = sc.build_chain_geometry(3)
    J = sc.power_law_couplings(geo, sc.CouplingModel.power_law())
    assert J.entries[0, 1] == 1.0
    assert J.entries[0, 2] == pytest.approx(1.0 / 8.0, abs=1e-15)
    assert np.all(J.entries == J.entries.T)
    assert np.all(np.diagonal(J.entries) == 0.0)


def test_power_law_general_parameters():
    geo = sc.build_chain_geometry(4)
    model = sc.CouplingModel.power_law(nu=2.0, strength_c=3.0, spacing_a=2.0)
    J = sc.power_law_couplings(geo, model)
    # J = C / (a d)^nu
    assert J.entries[0, 3] == pytest.approx(3.0 / (2.0 * 3.0) ** 2, rel=1e-15)


def test_power_law_uses_lattice_distance_across_holes():
    geo = sc.build_chain_geometry(4, 1, 3, double_hole=True)  # positions 1, 3, 4
    J = sc.power_law_couplings(geo, sc.CouplingModel.power_law())
    assert J.entries[0, 1] == pytest.approx(1.0 / 8.0, rel=1e-15)  # distance 2
    assert J.entries[1, 2] == pytest.approx(1.0, rel=1e-15)  # distance 1


def test_power_law_table_matches_direct_formula():
    geo = sc.build_chain_geometry(300, 1, 300, double_hole=True)
    model = sc.CouplingModel.power_law(nu=2.7, strength_c=1.3, spacing_a=0.9)
    pos = np.asarray(geo.positions, dtype=np.float64)
    dist = np.abs(pos[:, None] - pos[None, :])
    with np.errstate(divide="ignore"):
        direct = model.strength_c / (model.spacing_a * dist) ** model.nu
    np.fill_diagonal(direct, 0.0)
    assert np.array_equal(sc.power_law_couplings(geo, model).entries, direct)


def test_mirror_periodic_profile():
    n, lam = 6, 2.0
    J = sc.mirror_periodic_couplings(n, lam)
    for i in range(1, n):
        expected = 0.5 * lam * math.sqrt(i * (n - i))
        assert J.entries[i - 1, i] == pytest.approx(expected, rel=1e-15)
    # nothing beyond nearest neighbours
    off = np.triu(J.entries, k=2)
    assert np.all(off == 0.0)


def test_coupling_model_validation():
    with pytest.raises(ValueError):
        sc.CouplingModel.power_law(nu=-1.0)
    with pytest.raises(ValueError):
        sc.CouplingModel.power_law(strength_c=0.0)
    with pytest.raises(ValueError):
        sc.CouplingModel.mirror_periodic(lam=0.0)
    with pytest.raises(ValueError):
        sc.CouplingModel(kind="custom")
    with pytest.raises(ValueError):
        sc.CouplingModel(kind="nonsense")


def test_coupling_matrix_validation():
    with pytest.raises(ValueError):
        sc.CouplingMatrix(np.array([[0.0, 1.0], [2.0, 0.0]]))
    with pytest.raises(ValueError):
        sc.CouplingMatrix(np.array([[1.0, 2.0], [2.0, 0.0]]))
    with pytest.raises(ValueError):
        sc.CouplingMatrix(np.array([[0.0, np.inf], [np.inf, 0.0]]))
    matrix = sc.CouplingMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(ValueError):
        matrix.entries[0, 1] = 5.0


def test_build_couplings_custom_requires_matching_size():
    geo = sc.build_chain_geometry(3)
    model = sc.CouplingModel.custom(np.array([[0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(ValueError):
        sc.build_couplings(geo, model)


# ---------------------------------------------------------------- sector Hamiltonian


def test_sector_two_site_matrix():
    J = 0.7
    coupl = sc.CouplingMatrix(np.array([[0.0, J], [J, 0.0]]))
    with_zz = sc.sector_hamiltonian(coupl, include_zz_diagonal=True)
    assert np.allclose(with_zz.matrix, [[J, J], [J, J]], atol=1e-15)
    bare = sc.sector_hamiltonian(coupl, include_zz_diagonal=False)
    assert np.array_equal(bare.matrix, coupl.entries)


def test_sector_diagonal_formula():
    rng = np.random.default_rng(11)
    coupl = random_couplings(5, rng)
    J = coupl.entries
    ham = sc.sector_hamiltonian(coupl, include_zz_diagonal=True)
    total = sum(J[i, j] for i in range(5) for j in range(i + 1, 5))
    for n in range(5):
        row = sum(J[n, j] for j in range(5) if j != n)
        assert ham.matrix[n, n] == pytest.approx(2.0 * row - total, rel=1e-12)
    off = ham.matrix - np.diag(np.diagonal(ham.matrix))
    assert np.array_equal(off, J)


def test_sector_matrix_is_read_only():
    coupl = sc.CouplingMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    ham = sc.sector_hamiltonian(coupl)
    with pytest.raises(ValueError):
        ham.matrix[0, 0] = 9.0


# ---------------------------------------------------------------- full Hamiltonian


def test_full_two_site_matrix():
    J = 0.3
    coupl = sc.CouplingMatrix(np.array([[0.0, J], [J, 0.0]]))
    full = sc.full_hamiltonian(coupl, include_zz_diagonal=True)
    expected = np.array(
        [
            [-J, 0.0, 0.0, 0.0],
            [0.0, J, J, 0.0],
            [0.0, J, J, 0.0],
            [0.0, 0.0, 0.0, -J],
        ]
    )
    assert np.array_equal(full, expected)
    with pytest.raises(ValueError):
        full[0, 0] = 9.0
    bare = sc.full_hamiltonian(coupl, include_zz_diagonal=False)
    assert bare[0, 0] == 0.0 and bare[3, 3] == 0.0
    assert bare[1, 2] == J


def test_full_hamiltonian_conserves_excitation_number():
    rng = np.random.default_rng(3)
    coupl = random_couplings(5, rng)
    full = sc.full_hamiltonian(coupl, include_zz_diagonal=True)
    dim = full.shape[0]
    pop = np.array([bin(b).count("1") for b in range(dim)])
    rows, cols = np.nonzero(full)
    assert np.all(pop[rows] == pop[cols])


def test_full_vacuum_energy():
    rng = np.random.default_rng(5)
    coupl = random_couplings(4, rng)
    total = sum(coupl.entries[i, j] for i in range(4) for j in range(i + 1, 4))
    full = sc.full_hamiltonian(coupl, include_zz_diagonal=True)
    assert full[0, 0] == pytest.approx(-total, rel=1e-14)
    bare = sc.full_hamiltonian(coupl, include_zz_diagonal=False)
    assert bare[0, 0] == 0.0


@pytest.mark.parametrize("include_zz", [True, False])
def test_full_one_excitation_block_matches_sector(include_zz):
    rng = np.random.default_rng(17)
    coupl = random_couplings(6, rng)
    sector = sc.sector_hamiltonian(coupl, include_zz)
    full = sc.full_hamiltonian(coupl, include_zz)
    idx = [1 << k for k in range(6)]
    block = full[np.ix_(idx, idx)]
    assert np.allclose(block, sector.matrix, rtol=0.0, atol=1e-13)


def test_full_hamiltonian_size_guard():
    n = sc.FULL_SPACE_MAX_SITES + 1
    coupl = sc.CouplingMatrix(np.zeros((n, n)))
    with pytest.raises(ValueError):
        sc.full_hamiltonian(coupl)


# ---------------------------------------------------------------- coupling files


def test_load_coupling_matrix_roundtrip(tmp_path):
    path = tmp_path / "couplings.txt"
    path.write_text(
        "# three sites\n"
        "3\n"
        "0.0 1.0 0.125\n"
        "1.0 0.0 1.0  # middle row\n"
        "0.125 1.0 0.0\n"
    )
    J = sc.load_coupling_matrix(path)
    assert J.n_sites == 3
    assert J.entries[0, 2] == 0.125


def test_load_coupling_matrix_symmetrizes_tiny_asymmetry(tmp_path):
    path = tmp_path / "couplings.txt"
    eps = 1e-13
    path.write_text(f"2\n0.0 {1.0 + eps!r}\n1.0 0.0\n")
    J = sc.load_coupling_matrix(path)
    assert J.entries[0, 1] == pytest.approx(1.0 + eps / 2.0, abs=1e-16)
    assert J.entries[0, 1] == J.entries[1, 0]


def test_load_coupling_matrix_rejects_bad_files(tmp_path):
    cases = {
        "asymmetric": "2\n0.0 1.0\n1.5 0.0\n",
        "diagonal": "2\n0.5 1.0\n1.0 0.0\n",
        "bad_header": "two\n0.0 1.0\n1.0 0.0\n",
        "row_count": "3\n0.0 1.0 1.0\n1.0 0.0 1.0\n",
        "entry_count": "2\n0.0\n0.0 0.0\n",
        "not_a_number": "2\n0.0 x\nx 0.0\n",
        "too_small": "1\n0.0\n",
        "empty": "\n",
    }
    for name, text in cases.items():
        path = tmp_path / f"{name}.txt"
        path.write_text(text)
        with pytest.raises(ValueError):
            sc.load_coupling_matrix(path)
