"""Geometry, coupling, and Hamiltonian construction."""

import copy
import math
import pickle
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import spinchannel as sc
from oracles import full_hamiltonian
from support import (
    count_certifications,
    count_scan_decompositions,
    dh_geometry,
    parity_blocks,
    random_couplings,
    random_symmetric,
    traced_peak,
)


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
    with pytest.raises(ValueError, match="at least 2"):
        sc.ChainGeometry((1,), 1, 1)
    with pytest.raises(ValueError, match="1-based"):
        sc.ChainGeometry((0, 1), 0, 1)


@pytest.mark.parametrize(
    "model", [sc.CouplingModel.power_law(), sc.CouplingModel.mirror_periodic()], ids=["power_law", "mirror"]
)
@pytest.mark.parametrize(
    ("args", "message"),
    [
        (((1.5, 2.5, 4), 1.5, 4), "positions must be integers (got 1.5)"),
        (((1, 2, 4.0), 1, 4), "positions must be integers (got 4.0)"),
        (((1, 2, 4), "1", 4), "sender_pos must be an integer (got '1')"),
        (((1, 2, 4), 1, 4.0), "receiver_pos must be an integer (got 4.0)"),
    ],
    ids=["positions", "float_position", "sender", "receiver"],
)
def test_geometry_type_rejects_sites_that_are_not_integers(model, args, message):
    # before the integer check a float chain was accepted, and scanned or failed inside build_couplings
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        sc.time_scan(sc.ChainGeometry(*args), model)


@pytest.mark.parametrize(
    ("args", "message"),
    [
        (("12",), "span must be an integer (got '12')"),
        ((12.5,), "span must be an integer (got 12.5)"),
        ((12, 1.0), "sender_pos must be an integer (got 1.0)"),
        ((12, 1, "12"), "receiver_pos must be an integer (got '12')"),
    ],
    ids=["str_span", "float_span", "sender", "receiver"],
)
def test_build_chain_geometry_rejects_values_that_are_not_integers(args, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        sc.build_chain_geometry(*args)


def test_build_chain_geometry_takes_the_double_hole_flag_only_as_a_boolean():
    # read by truth value, "no" built the double hole, positions (1, 3, 4, 5, 6, 8)
    for flag, positions in ((False, tuple(range(1, 9))), (True, (1, 3, 4, 5, 6, 8))):
        assert sc.build_chain_geometry(8, double_hole=flag).positions == positions
        assert sc.build_chain_geometry(8, double_hole=np.bool_(flag)).positions == positions
    for bad in ("no", "False", 0, 1, None, np.array([True])):
        message = f"double_hole must be True or False \\(got {re.escape(repr(bad))}\\)"
        with pytest.raises(ValueError, match=message):
            sc.build_chain_geometry(8, double_hole=bad)


def test_geometry_holds_numpy_integers_as_ints():
    geo = sc.ChainGeometry(np.array([1, 3, 4]), np.int64(1), np.int32(4))
    assert geo.positions == (1, 3, 4) and geo == sc.ChainGeometry((1, 3, 4), 1, 4)
    assert all(type(value) is int for value in (*geo.positions, geo.sender_pos, geo.receiver_pos))
    built = sc.build_chain_geometry(np.int64(6), np.int16(1), double_hole=True)
    assert built == dh_geometry(4) and type(built.receiver_pos) is int


# ---------------------------------------------------------------- couplings


def test_power_law_dipolar_values():
    geo = sc.build_chain_geometry(3)
    J = sc.build_couplings(geo, sc.CouplingModel.power_law())
    assert J.entries[0, 1] == 1.0
    assert J.entries[0, 2] == pytest.approx(1.0 / 8.0, abs=1e-15)
    assert np.all(J.entries == J.entries.T)
    assert np.all(np.diagonal(J.entries) == 0.0)


def test_power_law_general_parameters():
    geo = sc.build_chain_geometry(4)
    model = sc.CouplingModel.power_law(nu=2.0, strength_c=0.75)
    J = sc.build_couplings(geo, model)
    # J = C / d^nu
    assert J.entries[0, 3] == pytest.approx(0.75 / 3.0**2, rel=1e-15)


def test_power_law_uses_lattice_distance_across_holes():
    geo = sc.build_chain_geometry(4, 1, 3, double_hole=True)  # positions 1, 3, 4
    J = sc.build_couplings(geo, sc.CouplingModel.power_law())
    assert J.entries[0, 1] == pytest.approx(1.0 / 8.0, rel=1e-15)  # distance 2
    assert J.entries[1, 2] == pytest.approx(1.0, rel=1e-15)  # distance 1


def test_power_law_table_matches_direct_formula():
    geo = sc.build_chain_geometry(300, 1, 300, double_hole=True)
    model = sc.CouplingModel.power_law(nu=2.7, strength_c=1.3)
    pos = np.asarray(geo.positions, dtype=np.float64)
    dist = np.abs(pos[:, None] - pos[None, :])
    with np.errstate(divide="ignore"):
        direct = model.strength_c / dist**model.nu
    np.fill_diagonal(direct, 0.0)
    assert np.array_equal(sc.build_couplings(geo, model).entries, direct)


def test_mirror_periodic_profile():
    n, lam = 6, 2.0
    J = sc.build_couplings(sc.build_chain_geometry(n), sc.CouplingModel.mirror_periodic(lam))
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


@pytest.mark.parametrize(
    ("kind", "name"),
    [("power_law", "nu"), ("power_law", "strength_c"), ("mirror_periodic", "lam")],
)
def test_coupling_model_rejects_nan_parameters(kind, name):
    # NaN fails at construction with the parameter's own message, not later
    # as a non-finite coupling matrix
    with pytest.raises(ValueError, match=f"{name} must be > 0"):
        getattr(sc.CouplingModel, kind)(**{name: math.nan})


@pytest.mark.parametrize(
    ("kind", "name"),
    [("power_law", "lam"), ("mirror_periodic", "nu"), ("mirror_periodic", "strength_c"), ("custom", "strength_c")],
)
def test_coupling_model_checks_parameters_its_kind_does_not_use(kind, name):
    matrix = np.zeros((2, 2)) if kind == "custom" else None
    with pytest.raises(ValueError, match=f"{name} must be > 0"):
        sc.CouplingModel(kind=kind, custom_matrix=matrix, **{name: -1.0})


@pytest.mark.parametrize(
    "value", ["3", 1 + 0j, None, [2.0], np.array([3.0]), np.array([3.0, 4.0]), True, np.complex128(2.0)]
)
@pytest.mark.parametrize("name", ["nu", "strength_c", "lam"])
def test_coupling_model_rejects_parameters_that_are_not_real(name, value):
    # a ValueError naming the parameter, as for theta, phi and t_max, not a TypeError from the comparison
    with pytest.raises(ValueError, match=f"^{name} must be a real number \\(got {re.escape(repr(value))}\\)$"):
        sc.CouplingModel("power_law", **{name: value})


@pytest.mark.parametrize("kind", ["power_law", "mirror_periodic"])
def test_generative_model_rejects_a_custom_matrix(kind):
    # build_couplings would ignore the matrix
    with pytest.raises(ValueError, match=f"^a {kind} coupling model takes no custom_matrix$"):
        sc.CouplingModel(kind, custom_matrix=np.zeros((2, 2)))


def test_custom_model_holds_its_checked_matrix():
    entries = np.array([[0.0, 1.0], [1.0, 0.0]])
    model = sc.CouplingModel.custom(entries)
    assert isinstance(model.custom_matrix, sc.CouplingMatrix)
    # the matrix a model holds is the one every build returns
    assert sc.build_couplings(sc.build_chain_geometry(2), model) is model.custom_matrix
    matrix = sc.CouplingMatrix(entries)
    assert sc.CouplingModel.custom(matrix).custom_matrix is matrix
    with pytest.raises(ValueError, match="symmetric"):
        sc.CouplingModel.custom(np.array([[0.0, 1.0], [2.0, 0.0]]))


@pytest.mark.parametrize("value", [math.inf, -math.inf])
@pytest.mark.parametrize("name", ["nu", "strength_c", "lam"])
def test_coupling_model_rejects_infinite_parameters(name, value):
    # so a power-law distance table is finite by construction, whatever the model's kind
    for kind in ("power_law", "mirror_periodic"):
        with pytest.raises(ValueError, match=f"^{name} must be > 0 and finite \\(got {value}\\)$"):
            sc.CouplingModel(kind, **{name: value})


def test_overflowing_coupling_parameters_fail_without_a_warning():
    # lam / 2 sqrt(i (N - i)) overflows; the entry check of CouplingMatrix alone reports it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="non-finite entries"):
            sc.build_couplings(sc.build_chain_geometry(6), sc.CouplingModel.mirror_periodic(lam=1.7e308))
        # a power past the float range still gives the exact zero it stands for
        J = sc.build_couplings(sc.build_chain_geometry(6), sc.CouplingModel.power_law(nu=2000.0))
    assert J.entries[0, 1] == 1.0 and np.all(np.triu(J.entries, k=2) == 0.0)


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(
    nu=st.floats(),
    strength_c=st.floats(),
    span=st.integers(2, 2000),
    mirror_span=st.integers(sc.model.MIRROR_SPLIT_MIN_SITES + 2, 300),
    sender=st.integers(1, 5),
    dh=st.booleans(),
)
@example(nu=3.0, strength_c=math.inf, span=2000, mirror_span=66, sender=1, dh=True)
@example(nu=1e-300, strength_c=1.7976931348623157e308, span=2000, mirror_span=66, sender=1, dh=False)
def test_every_accepted_power_law_gives_a_finite_table_and_long_mirror_chains_their_blocks(
    nu, strength_c, span, mirror_span, sender, dh
):
    # any float pair the model accepts, so the parity-block build needs no detour for a non-finite table
    try:
        model = sc.CouplingModel.power_law(nu, strength_c)
    except ValueError:
        return
    assert np.isfinite(sc.model._power_law_table(np.array([1, span]), model)).all()
    geo = sc.build_chain_geometry(mirror_span, sender, mirror_span + 1 - sender, double_hole=dh)
    # without the S^z S^z diagonal no row sum is judged; two couplings near the float maximum may still sum
    # past it in the fold, which the blocks report, with no warning
    try:
        sector = sc.model._chain_sector(geo, model, False)
    except sc.NumericsError as exc:
        assert str(exc).startswith("the mirror fold of H overflows: ")
        return
    assert isinstance(sector, sc.dynamics._ParityBlocks)


def test_array_holding_types_compare_by_identity():
    # == on two distinct instances would otherwise compare arrays and raise
    geo = sc.build_chain_geometry(4)
    couplings = sc.build_couplings(geo, sc.CouplingModel.power_law())
    ham = sc.sector_hamiltonian(couplings)
    decomp = sc.eigendecompose(ham)
    pairs = [
        (sc.CouplingMatrix(couplings.entries), sc.CouplingMatrix(couplings.entries)),
        (sc.spectral_overlaps(decomp, 0, 3), sc.spectral_overlaps(decomp, 0, 3)),
        (sc.time_scan(geo, sc.CouplingModel.power_law()), sc.time_scan(geo, sc.CouplingModel.power_law())),
    ]
    for first, second in pairs:
        assert first == first and first != second
        assert hash(first) != hash(second)
    # a custom model compares and hashes by the CouplingMatrix it holds
    model = sc.CouplingModel.custom(couplings)
    assert model == sc.CouplingModel.custom(couplings) and hash(model) == hash(sc.CouplingModel.custom(couplings))
    assert model != sc.CouplingModel.custom(couplings.entries)


def test_coupling_matrix_validation():
    with pytest.raises(ValueError, match="square"):
        sc.CouplingMatrix(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        sc.CouplingMatrix(np.array([[0.0, 1.0], [2.0, 0.0]]))
    with pytest.raises(ValueError):
        sc.CouplingMatrix(np.array([[1.0, 2.0], [2.0, 0.0]]))
    with pytest.raises(ValueError):
        sc.CouplingMatrix(np.array([[0.0, np.inf], [np.inf, 0.0]]))
    matrix = sc.CouplingMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(ValueError):
        matrix.entries[0, 1] = 5.0


@pytest.mark.parametrize(
    ("defect", "message"),
    [(np.inf, "non-finite"), (-np.inf, "non-finite"), (np.nan, "non-finite"), (None, "exactly symmetric")],
)
def test_coupling_matrix_rejects_one_bad_entry_in_a_late_panel_without_a_warning(defect, message):
    # 130 rows span three panels of the entry check; None moves the entry by one ulp
    entries = np.abs(random_symmetric(130, np.random.default_rng(5)))
    np.fill_diagonal(entries, 0.0)
    entries[128, 3] = np.nextafter(entries[128, 3], np.inf) if defect is None else defect
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            sc.CouplingMatrix(entries)


@pytest.mark.parametrize("route", ["deepcopy", "pickle", "model_deepcopy"])
def test_coupling_matrix_copies_are_checked_and_read_only(monkeypatch, route):
    J = random_couplings(5, np.random.default_rng(3))
    certified = count_certifications(monkeypatch)
    if route == "deepcopy":
        copied = copy.deepcopy(J)
    elif route == "pickle":
        copied = pickle.loads(pickle.dumps(J))
    else:
        copied = copy.deepcopy(sc.CouplingModel.custom(J)).custom_matrix
    assert certified == [copied]
    assert copied.entries is not J.entries and np.array_equal(copied.entries, J.entries)
    with pytest.raises(ValueError, match="read-only"):
        copied.entries[0, 1] = 5.0


def test_a_pickled_asymmetric_coupling_matrix_is_rejected():
    J = sc.CouplingMatrix(np.zeros((3, 3)))
    # a tampered payload: entries set past the frozen dataclass's __setattr__ before pickling
    object.__setattr__(J, "entries", np.array([[0.0, 1.0, 0.0], [2.0, 0.0, 0.0], [0.0, 0.0, 0.0]]))
    payload = pickle.dumps(J)
    with pytest.raises(ValueError, match="exactly symmetric"):
        pickle.loads(payload)


def test_coupling_matrix_accepts_signed_zeros():
    entries = np.zeros((3, 3))
    entries[0, 2], entries[2, 0] = 0.0, -0.0
    np.fill_diagonal(entries, -0.0)
    assert sc.CouplingMatrix(entries).n_sites == 3


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
    assert np.allclose(with_zz, [[J, J], [J, J]], atol=1e-15)
    bare = sc.sector_hamiltonian(coupl, include_zz_diagonal=False)
    assert np.array_equal(bare, coupl.entries)


def test_sector_diagonal_formula():
    rng = np.random.default_rng(11)
    coupl = random_couplings(5, rng)
    J = coupl.entries
    ham = sc.sector_hamiltonian(coupl, include_zz_diagonal=True)
    total = sum(J[i, j] for i in range(5) for j in range(i + 1, 5))
    for n in range(5):
        row = sum(J[n, j] for j in range(5) if j != n)
        assert ham[n, n] == pytest.approx(2.0 * row - total, rel=1e-12)
    off = ham - np.diag(np.diagonal(ham))
    assert np.array_equal(off, J)


def test_sector_rejects_overflowing_row_sums_without_a_warning():
    # every coupling is finite, but 19 of them sum past the float range
    entries = np.full((20, 20), 1e307)
    np.fill_diagonal(entries, 0.0)
    coupl = sc.CouplingMatrix(entries)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="row sums overflow"):
            sc.sector_hamiltonian(coupl)
        # the bare hopping matrix needs no sums
        assert np.array_equal(sc.sector_hamiltonian(coupl, include_zz_diagonal=False), entries)


@pytest.mark.parametrize("include_zz", [False, True])
def test_sector_hamiltonian_rejects_a_diagonal_written_after_the_check(include_zz):
    # eigendecompose cannot see this write: as a diagonal entry of H (no S^z S^z part) it is
    # symmetric, and in the row sums it moves every diagonal entry
    big = np.zeros((6, 6))
    big[:4, :4] = sc.build_couplings(sc.build_chain_geometry(4), sc.CouplingModel.power_law()).entries
    couplings = sc.CouplingMatrix(big[:4, :4])
    big[1, 1] = 3.0
    with pytest.raises(ValueError, match="coupling matrix diagonal must be exactly zero"):
        sc.sector_hamiltonian(couplings, include_zz)


def test_sector_hamiltonian_takes_the_zz_flag_only_as_a_boolean():
    couplings = sc.build_couplings(sc.build_chain_geometry(4), sc.CouplingModel.power_law())
    for flag in (False, True):
        expected = sc.sector_hamiltonian(couplings, flag)
        assert np.array_equal(sc.sector_hamiltonian(couplings, np.bool_(flag)), expected)
    for bad in ("no", "False", 0, 1, None, np.array([True])):
        message = f"include_zz_diagonal must be True or False \\(got {re.escape(repr(bad))}\\)"
        with pytest.raises(ValueError, match=message):
            sc.sector_hamiltonian(couplings, bad)


def test_constructors_freeze_a_float64_array_and_copy_any_other():
    # the checked array itself is held read-only, so it cannot be written after its check
    couplings = random_couplings(4, np.random.default_rng(2)).entries.copy()
    vectors = np.eye(3)
    for build, array in (
        (sc.CouplingMatrix, couplings),
        (lambda V: sc.SpectralDecomposition(np.zeros(3), V), vectors),
    ):
        for given in (array.copy(), array.astype(np.float32)):
            build(given)
            assert given.flags.writeable == (given.dtype != np.float64)
            if given.dtype == np.float64:
                with pytest.raises(ValueError, match="assignment destination is read-only"):
                    given[0, 1] = 0.5
            else:
                given[0, 1] = 0.5


def test_sector_matrix_is_read_only():
    coupl = sc.CouplingMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    ham = sc.sector_hamiltonian(coupl)
    with pytest.raises(ValueError):
        ham[0, 0] = 9.0


# ---------------------------------------------------------------- parity blocks

# (positions, sender, receiver, double hole), zz, nu, c: every length on both layouts, with each flag,
# exponent and scale in turn, then an interior placement, 10 and 91 of 100 with holes at 11 and 90
_MIRROR_CHAINS = [
    ((64, 1, 64, False), True, 3.0, 1.0),
    ((64, 1, 64, True), False, 1.0, 1.0),
    ((65, 1, 65, False), False, 2.5, 0.75),
    ((65, 1, 65, True), True, 6.0, 1.0),
    ((101, 1, 101, False), True, 1.0, 2.0),
    ((101, 1, 101, True), False, 3.0, 1.0),
    ((999, 1, 999, False), False, 6.0, 1.0),
    ((999, 1, 999, True), True, 2.5, 0.75),
    ((1000, 1, 1000, False), True, 2.5, 1.0),
    ((1000, 1, 1000, True), False, 1.0, 0.75),
    ((2001, 1, 2001, False), False, 3.0, 1.0),
    ((2001, 1, 2001, True), True, 3.0, 1.0),
    ((100, 10, 91, True), True, 6.0, 1.0),
    ((100, 10, 91, True), False, 2.5, 0.75),
]


def _general_and_chain_sector(geo, model, zz):
    """What ``eigendecompose`` gets on the general path, H or above the split size the parity blocks folded
    from H, and what ``_chain_sector`` gives it, for one chain."""
    H = sc.sector_hamiltonian(sc.build_couplings(geo, model), zz)
    general = parity_blocks(H) if len(H) >= sc.model.MIRROR_SPLIT_MIN_SITES else H
    return general, sc.model._chain_sector(geo, model, zz)


def _assert_same_bits(sector, general):
    """The matrix or the two parity blocks ``sector`` equal those of ``general`` bit for bit."""
    assert type(sector) is type(general)
    pairs = zip(sector, general) if isinstance(general, sc.dynamics._ParityBlocks) else [(sector, general)]
    for mine, theirs in pairs:
        assert mine.shape == theirs.shape
        assert np.array_equal(mine.view(np.uint64), theirs.view(np.uint64))


@pytest.mark.parametrize(
    ("layout", "zz", "nu", "c"),
    _MIRROR_CHAINS,
    ids=[f"{p}_{s}_{r}{'_dh' if dh else ''}-{k}" for k, ((p, s, r, dh), *_) in enumerate(_MIRROR_CHAINS)],
)
def test_chain_sector_decomposes_as_the_general_path_bit_for_bit(layout, zz, nu, c):
    span, sender, receiver, dh = layout
    geo = sc.build_chain_geometry(span, sender, receiver, double_hole=dh)
    general, sector = _general_and_chain_sector(geo, sc.CouplingModel.power_law(nu, c), zz)
    # double-hole chains of 64 and 65 positions hold 62 and 63 sites, too few for the blocks
    assert isinstance(sector, sc.dynamics._ParityBlocks) == (geo.n_sites >= sc.model.MIRROR_SPLIT_MIN_SITES)
    # the same bits in, so the same decomposition out
    _assert_same_bits(sector, general)


@pytest.mark.parametrize("zz", [True, False])
@pytest.mark.parametrize("n", [64, 65, 100, 101])
def test_chain_sector_folds_every_long_mirror_periodic_chain(n, zz):
    # J_{i,i+1} = (lam / 2) sqrt(i (N - i)) equals its own site reversal bit for bit, whatever the positions
    for geo in (sc.build_chain_geometry(n), sc.build_chain_geometry(n + 2, double_hole=True)):
        general, sector = _general_and_chain_sector(geo, sc.CouplingModel.mirror_periodic(lam=3.0), zz)
        assert isinstance(sector, sc.dynamics._ParityBlocks)
        _assert_same_bits(sector, general)


@pytest.mark.parametrize(
    ("geo", "model"),
    [
        (sc.build_chain_geometry(100, 1, 90, double_hole=True), sc.CouplingModel.power_law()),
        (sc.build_chain_geometry(63), sc.CouplingModel.power_law()),
        (sc.build_chain_geometry(63), sc.CouplingModel.mirror_periodic()),
        (
            sc.build_chain_geometry(100),
            sc.CouplingModel.custom(
                sc.build_couplings(sc.build_chain_geometry(100), sc.CouplingModel.power_law())
            ),
        ),
    ],
    ids=["off_mirror", "short", "short_mirror_periodic", "custom_mirror"],
)
def test_other_chains_take_the_general_path(geo, model):
    # custom couplings are never split, even when they equal their own reversal
    sector = sc.model._chain_sector(geo, model, True)
    assert not isinstance(sector, sc.dynamics._ParityBlocks)
    _assert_same_bits(sector, sc.sector_hamiltonian(sc.build_couplings(geo, model), True))


@pytest.mark.parametrize(
    ("changes", "message"),
    [
        # finite couplings, the middle rows' sums past the float range
        ({"model": sc.CouplingModel.power_law(strength_c=1e308)}, "the couplings' row sums overflow: "),
        ({"include_zz_diagonal": "no"}, "include_zz_diagonal must be True or False (got 'no')"),
    ],
    ids=["row_sums", "zz_flag"],
)
def test_chain_sector_rejects_what_the_general_path_rejects(monkeypatch, changes, message):
    calls = count_scan_decompositions(monkeypatch)
    arguments = {"model": sc.CouplingModel.power_law(), "include_zz_diagonal": True, **changes}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            sc.time_scan(sc.build_chain_geometry(100), **arguments)
    assert calls == []


# ---------------------------------------------------------------- full Hamiltonian


def test_full_two_site_matrix():
    J = 0.3
    coupl = sc.CouplingMatrix(np.array([[0.0, J], [J, 0.0]]))
    full = full_hamiltonian(coupl, include_zz_diagonal=True)
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
    bare = full_hamiltonian(coupl, include_zz_diagonal=False)
    assert bare[0, 0] == 0.0 and bare[3, 3] == 0.0
    assert bare[1, 2] == J


def test_full_hamiltonian_conserves_excitation_number():
    rng = np.random.default_rng(3)
    coupl = random_couplings(5, rng)
    full = full_hamiltonian(coupl, include_zz_diagonal=True)
    dim = full.shape[0]
    pop = np.array([bin(b).count("1") for b in range(dim)])
    rows, cols = np.nonzero(full)
    assert np.all(pop[rows] == pop[cols])


def test_full_vacuum_energy():
    rng = np.random.default_rng(5)
    coupl = random_couplings(4, rng)
    total = sum(coupl.entries[i, j] for i in range(4) for j in range(i + 1, 4))
    full = full_hamiltonian(coupl, include_zz_diagonal=True)
    assert full[0, 0] == pytest.approx(-total, rel=1e-14)
    bare = full_hamiltonian(coupl, include_zz_diagonal=False)
    assert bare[0, 0] == 0.0


@pytest.mark.parametrize("include_zz", [True, False])
def test_full_one_excitation_block_matches_sector(include_zz):
    rng = np.random.default_rng(17)
    coupl = random_couplings(6, rng)
    sector = sc.sector_hamiltonian(coupl, include_zz)
    full = full_hamiltonian(coupl, include_zz)
    idx = [1 << k for k in range(6)]
    block = full[np.ix_(idx, idx)]
    assert np.allclose(block, sector, rtol=0.0, atol=1e-13)


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
    # CRLF line endings, blank and comment-only lines between rows, no newline at the end
    path.write_bytes(b"3 # N\r\n\r\n0.0 1.0 0.125\r\n# between rows\r\n1.0 0.0 1.0\r\n0.125 1.0 0.0")
    assert np.array_equal(sc.load_coupling_matrix(path).entries, J.entries)


def test_load_coupling_matrix_symmetrizes_tiny_asymmetry(tmp_path):
    path = tmp_path / "couplings.txt"
    eps = 1e-13
    path.write_text(f"2\n0.0 {1.0 + eps!r}\n1.0 0.0\n")
    J = sc.load_coupling_matrix(path)
    assert J.entries[0, 1] == pytest.approx(1.0 + eps / 2.0, abs=1e-16)
    assert J.entries[0, 1] == J.entries[1, 0]


def test_load_coupling_matrix_symmetrizes_entries_near_the_float_maximum(tmp_path):
    # halving after the sum would overflow 1.5e308 + 1.5e308
    path = tmp_path / "couplings.txt"
    path.write_text("3\n0.0 1.5e308 1.0\n1.5e308 0.0 -1.5e308\n1.0 -1.5e308 0.0\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        J = sc.load_coupling_matrix(path)
    assert np.array_equal(J.entries, [[0.0, 1.5e308, 1.0], [1.5e308, 0.0, -1.5e308], [1.0, -1.5e308, 0.0]])


_BAD_FILES = {
    "asymmetric": ("2\n0.0 1.0\n1.5 0.0\n", ": matrix asymmetry 5.000e-01 exceeds 1e-12"),
    "diagonal": ("2\n0.5 1.0\n1.0 0.0\n", ": matrix diagonal magnitude 5.000e-01 exceeds 1e-12"),
    "bad_header": ("two\n0.0 1.0\n1.0 0.0\n", ":1: first line must hold a single integer N"),
    "row_count": ("3\n0.0 1.0 1.0\n1.0 0.0 1.0\n", ": expected 3 matrix rows, found 2"),
    "entry_count": ("2\n0.0\n0.0 0.0\n", ":2: expected 2 entries, found 1"),
    # np.loadtxt would read these rows as a 3 x 2 array; the first row's width is checked first
    "every_row_of_one_wrong_width": ("3\n0.0 1.0\n1.0 0.0\n0.0 0.0\n", ":2: expected 3 entries, found 2"),
    "not_a_number": ("2\n0.0 x\nx 0.0\n", ":2: entries must be real numbers"),
    "too_small": ("1\n0.0\n", ":1: N must be >= 2 (got 1)"),
    "empty": ("\n", ": empty coupling file"),
    "infinite_entry": ("2\n0.0 inf\ninf 0.0\n", ": matrix entries must be finite"),
    "nan_entry": ("2\n0.0 nan\nnan 0.0\n", ": matrix entries must be finite"),
    "two_token_header": ("2 2\n0.0 1.0\n1.0 0.0\n", ":1: first line must hold a single integer N"),
    "crlf": ("2\r\n0.0 1.0\r\n1.0 x\r\n", ":3: entries must be real numbers"),
    "blank_and_comment_lines": ("# c\n2\n\n# rows\n0.0 1.0\n   \n1.0 0.0 0.5\n", ":7: expected 2 entries, found 3"),
    "comment_after_header": ("2  # sites\n0.0 1.0\n1.0 y\n", ":3: entries must be real numbers"),
    "form_feed_splits_a_line": ("2\n0.0 1.0\f1.0 x\n", ":3: entries must be real numbers"),
    # nothing is allocated for rows a header claims but the file lacks
    "huge_header": ("1000000000\n0.0 1.0\n", ": expected 1000000000 matrix rows, found 1"),
    "header_past_maxsize": ("10000000000000000000\n0.0 1.0\n", ": expected 10000000000000000000 matrix rows, found 1"),
    "extra_row": ("2\n0.0 1.0\n1.0 0.0\n0.0 0.0\n", ": expected 2 matrix rows, found 3"),
    # the row count is reported before a bad row, wherever the two lie
    "extra_row_after_a_bad_one": ("2\n0.0 z\n1.0 0.0\n0.0 0.0\n", ": expected 2 matrix rows, found 3"),
    # U+0085 ends a line for str.splitlines, so the comment stops there and a third row follows;
    # read from the file handle itself, np.loadtxt takes the comment to the newline and finds 2 rows
    "next_line_ends_a_comment": ("2\n0.0 1.0 # c\x851.0 0.0\n1.0 0.0\n", ": expected 2 matrix rows, found 3"),
    # no row reaches np.loadtxt, which would warn "input contained no data"
    "header_only": ("2  # sites\n# no rows\n\n", ": expected 2 matrix rows, found 0"),
    # float reads these and np.loadtxt does not
    "underscore": ("2\n0.0 1_000\n1_000 0.0\n", ":2: entries must be real numbers"),
    "arabic_indic_digits": ("2\n0 \u0661\u0662\n\u0661\u0662 0\n", ":2: entries must be real numbers"),
    # int reads these as 2; the header takes a number only as the rows do
    "underscore_header": ("0_2\n0.0 1.0\n1.0 0.0\n", ":1: first line must hold a single integer N"),
    "arabic_indic_header": ("\u0662\n0.0 1.0\n1.0 0.0\n", ":1: first line must hold a single integer N"),
}


@pytest.mark.parametrize("name", _BAD_FILES)
def test_load_coupling_matrix_rejects_bad_files(tmp_path, name):
    text, message = _BAD_FILES[name]
    path = tmp_path / f"{name}.txt"
    path.write_bytes(text.encode())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path) + message)}$"):
            sc.load_coupling_matrix(path)


def _symmetrized_by_float(text: str) -> np.ndarray:
    """The matrix of a coupling file as ``float`` reads each token of its rows, symmetrized as the loader does."""
    rows = [line.split("#", 1)[0].split() for line in text.splitlines()[1:]]
    entries = np.array([list(map(float, tokens)) for tokens in rows if tokens])
    entries *= 0.5
    entries = entries + entries.T
    np.fill_diagonal(entries, 0.0)
    return entries


def test_load_coupling_matrix_reads_every_token_as_float_does(tmp_path):
    rng = np.random.default_rng(29)
    exponents = np.triu(rng.integers(-300, 300, size=(40, 40)), 1)
    entries = random_symmetric(40, rng) * 10.0 ** (exponents + exponents.T)
    np.fill_diagonal(entries, 0.0)
    entries[0, 1:5] = entries[1:5, 0] = [-0.0, 4.9e-324, 1.5e308, -1.5e308]
    entries[1, 2:5] = entries[2:5, 1] = [3.0, -7.0, 0.0]
    tokens = [[repr(x) for x in row] for row in entries.tolist()]
    tokens[1][2] = tokens[2][1] = "3"
    tokens[1][3] = tokens[3][1] = "-7"
    text = "40\n" + "".join(" ".join(row) + "\n" for row in tokens)
    path = tmp_path / "couplings.txt"
    path.write_text(text)
    J = sc.load_coupling_matrix(path)
    expected = _symmetrized_by_float(text)
    assert J.entries.tobytes() == expected.tobytes()
    assert math.copysign(1.0, J.entries[0, 1]) == -1.0 and J.entries[0, 3] == 1.5e308


@pytest.mark.parametrize(
    "text",
    ["2\n0.0\xa01.5\n1.5\xa00.0\n", "2\n0.0\u30001.5\n1.5\u30000.0\n"],
    ids=["no_break_space", "ideographic_space"],
)
def test_load_coupling_matrix_reads_unusual_tokens_and_spaces_as_float_and_str_split_do(tmp_path, text):
    path = tmp_path / "couplings.txt"
    path.write_bytes(text.encode())
    J = sc.load_coupling_matrix(path)
    assert J.entries.tobytes() == _symmetrized_by_float(text).tobytes()


@pytest.mark.parametrize("header", ["2", "+2", " 2 ", "02"])
def test_load_coupling_matrix_reads_a_signed_or_padded_ascii_header(tmp_path, header):
    path = tmp_path / "couplings.txt"
    path.write_text(f"{header}\n0.0 1.0\n1.0 0.0\n")
    assert sc.load_coupling_matrix(path).entries.tolist() == [[0.0, 1.0], [1.0, 0.0]]


def test_load_coupling_matrix_holds_no_rows_past_one_more_than_the_header_claims(tmp_path):
    path = tmp_path / "couplings.txt"
    path.write_text("2\n# rows\n" + "0.0 1.0\n" * 20000)

    def load():
        with pytest.raises(ValueError, match="expected 2 matrix rows, found 20000$"):
            sc.load_coupling_matrix(path)

    _, peak, _ = traced_peak(load)
    # measured: 36 kB, and 360 kB with np.loadtxt reading every row; the 20000 rows as floats take 320 kB
    assert peak < 64_000


@pytest.mark.parametrize("case", ["symmetric", "asymmetric"])
def test_load_coupling_matrix_holds_at_most_two_matrices(tmp_path, case):
    entries = random_couplings(300, np.random.default_rng(11)).entries
    written = entries.copy()
    written[0, 1] += float(case == "asymmetric")
    lines = [" ".join(map(repr, row)) for row in written.tolist()]
    path = tmp_path / "couplings.txt"
    path.write_text("300\n" + "".join(line + "\n" for line in lines))

    def load():
        try:
            return sc.load_coupling_matrix(path)
        except ValueError as error:
            return error

    result, peak, _ = traced_peak(load)
    if case == "asymmetric":
        assert str(result).endswith("matrix asymmetry 1.000e+00 exceeds 1e-12")
    else:
        assert np.array_equal(result.entries, entries)
    # measured: 1.4-1.6 x, with or without asymmetry; the asymmetry as one n x n difference
    # took 3.05 x, and holding every token string of the file at once, as a whole-file split
    # does, about 12 x
    assert peak <= 2 * entries.nbytes


def test_load_coupling_matrix_opens_a_file_faulty_in_its_last_row_once(tmp_path, monkeypatch):
    opened = []

    def counting_open(*args, **kwargs):
        opened.append(args[0])
        return open(*args, **kwargs)

    monkeypatch.setattr(sc.model, "open", counting_open, raising=False)
    for last, message in (("1.0 x 0.0", "entries must be real numbers"), ("1.0 1.0", "expected 3 entries, found 2")):
        path = tmp_path / "couplings.txt"
        path.write_text(f"3\n0.0 1.0 1.0\n1.0 0.0 1.0\n{last}\n")
        opened.clear()
        with pytest.raises(ValueError, match=f":4: {message}$"):
            sc.load_coupling_matrix(path)
        assert opened == [path]


_ROW_FAULTS = {
    # the row's last entry replaced by a token no reader takes
    "bad_token": (lambda line: line.rsplit(" ", 1)[0] + " x", "entries must be real numbers"),
    "short": (lambda line: line.rsplit(" ", 1)[0], "expected 300 entries, found 299"),
    "long": (lambda line: line + " 0.0", "expected 300 entries, found 301"),
}


@pytest.mark.parametrize("row", [0, 150, 299], ids=["first", "middle", "last"])
@pytest.mark.parametrize("fault", _ROW_FAULTS)
def test_load_coupling_matrix_names_the_line_of_a_bad_row_wherever_it_lies(tmp_path, fault, row):
    # the loader names the last line it handed to np.loadtxt, which pulls its rows one at a time
    rewrite, message = _ROW_FAULTS[fault]
    entries = random_couplings(300, np.random.default_rng(13)).entries
    lines = [" ".join(map(repr, values)) for values in entries.tolist()]
    lines[row] = rewrite(lines[row])
    path = tmp_path / "couplings.txt"
    path.write_text("300\n# rows\n" + "".join(line + "\n" for line in lines))
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path}:{row + 3}: {message}')}$"):
        sc.load_coupling_matrix(path)
