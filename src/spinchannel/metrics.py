"""Figures of merit for the spin-chain channel.

State transfer is scored by the fidelity |f_sr|^2 and its average over input
states, entanglement generation by the sender-receiver concurrence (closed
form, cross-checked by a Wootters computation on the reduced 4x4 density
matrix), and the effective two-qubit picture by per-eigenvector overlaps
sigma_j, rho_j and gamma_sq_j, which bound the dispersion Gamma^2(t) at
every time (``leakage_bound``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import NumericsError, SpectralDecomposition, _real, _site_index

_YY = np.array(
    [
        [0.0, 0.0, 0.0, -1.0],
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0, 0.0],
    ]
)


@dataclass(frozen=True)
class InitialStateParams:
    """Bloch angles of the sender qubit: cos(theta/2)|0> + e^{-i phi} sin(theta/2)|1>."""

    theta: float = math.pi
    phi: float = 0.0

    def __post_init__(self) -> None:
        if not (0.0 <= _real("theta", self.theta) <= math.pi):
            raise ValueError(f"theta must lie in [0, pi] (got {self.theta})")
        if not (0.0 <= _real("phi", self.phi) < 2.0 * math.pi):
            raise ValueError(f"phi must lie in [0, 2*pi) (got {self.phi})")


def _checked(modulus, label: str = "|f_sr|"):
    """``modulus``, a precomputed |f| as the formulas below take it; ValueError past 1 + 1e-10, NumericsError if NaN."""
    if not (modulus <= 1.0 + 1e-10).all():
        if np.isnan(modulus).any():
            raise NumericsError(f"{label} is nan")
        raise ValueError(f"{label} = {float(np.max(modulus))!r} exceeds 1 beyond tolerance")
    return modulus


def _check_pair(sender_index: int, receiver_index: int, n: int) -> tuple[int, int]:
    """Both indices as ``_site_index`` reads them, then ValueError unless they differ."""
    pair = _site_index("sender_index", sender_index, n), _site_index("receiver_index", receiver_index, n)
    if pair[0] == pair[1]:
        raise ValueError("sender and receiver indices must differ")
    return pair


def _fidelity(mod_sr):
    return np.minimum(mod_sr * mod_sr, 1.0)


def _averaged_fidelity(mod_sr):
    modulus = np.minimum(mod_sr, 1.0)
    return modulus * modulus / 6.0 + modulus / 3.0 + 0.5


def _concurrence(params: InitialStateParams, mod_ss, mod_sr):
    raw = 2.0 * math.sin(params.theta / 2.0) ** 2 * mod_ss * mod_sr
    if (raw > 1.0 + 1e-9).any():
        raise ValueError(f"concurrence value {float(np.max(raw))!r} exceeds 1 beyond tolerance")
    # a product of moduli and a square, so never below +0: only the clamp at 1 can act
    return np.minimum(raw, 1.0)


def _leak(mod_ss, mod_sr):
    leak = 1.0 - mod_ss**2 - mod_sr**2
    if not ((leak >= -1e-10) & (leak <= 1.0 + 1e-10)).all():
        worst = np.ravel(leak)[np.argmax(np.maximum(-leak, leak - 1.0))]
        raise NumericsError(f"leaked weight out of range (worst value {float(worst)!r})")
    return np.clip(leak, 0.0, 1.0)


def transfer_fidelity(f_sr):
    """F(t) = |f_sr|^2, clamped to [0, 1]; elementwise on arrays."""
    return _fidelity(_checked(np.abs(f_sr)))


def averaged_fidelity(f_sr):
    """Fidelity averaged over all input states: |f|^2/6 + |f|/3 + 1/2."""
    return _averaged_fidelity(_checked(np.abs(f_sr)))


def concurrence_closed_form(params: InitialStateParams, f_ss, f_sr):
    """C = 2 sin^2(theta/2) |f_ss| |f_sr|, clamped to [0, 1]; elementwise on arrays."""
    return _concurrence(params, _checked(np.abs(f_ss), "|f_ss|"), _checked(np.abs(f_sr)))


def wootters_concurrence_oracle(
    params: InitialStateParams,
    amplitudes: np.ndarray,
    sender_index: int,
    receiver_index: int,
) -> float:
    """Concurrence of the reduced sender/receiver state, computed from scratch.

    The n-qubit pure state has vacuum amplitude cos(theta/2) and one-excitation amplitudes
    c_k = e^{-i phi} sin(theta/2) f_k.  Traced down to the pair, in the basis |b_s b_r> = 00, 01,
    10, 11, it is rho = |p><p| + w |00><00| with p = (cos(theta/2), c_r, c_s, 0) and
    w = sum_{k not s, r} |c_k|^2, built in O(n).  The Wootters formula C = max{0, l1 - l2 - l3 - l4}
    takes the square-rooted eigenvalues of rho rho_tilde, rho_tilde = (sy x sy) rho* (sy x sy).
    Deliberately shares no algebra with concurrence_closed_form so the two can be used as
    independent cross-checks.
    """
    amps = np.asarray(amplitudes, dtype=np.complex128)
    if amps.ndim != 1:
        raise ValueError(f"amplitudes must be a flat vector (got shape {amps.shape})")
    n = amps.shape[0]
    if n < 2:
        raise ValueError(f"need at least 2 sites (got {n})")
    sender_index, receiver_index = _check_pair(sender_index, receiver_index, n)
    norm_sq = float(np.sum(np.abs(amps) ** 2))
    if abs(norm_sq - 1.0) > 1e-8:
        raise ValueError(f"amplitude vector norm^2 = {norm_sq!r} deviates from 1 beyond 1e-8")

    half = params.theta / 2.0
    excited = np.exp(-1j * params.phi) * math.sin(half) * amps
    pure = np.array([math.cos(half), excited[receiver_index], excited[sender_index], 0.0])
    rho = np.outer(pure, pure.conj())
    rho[0, 0] += dispersion(excited, sender_index, receiver_index)
    rho /= np.trace(rho).real

    # The Wootters roots are the square-rooted eigenvalues of rho rho_tilde,
    # equal to the eigenvalues of the Hermitian matrix
    #   sqrt(rho) rho_tilde sqrt(rho) = A A^dagger,  A = sqrt(rho) YY sqrt(rho)*,
    # so they are exactly the singular values of A.  Computing them as
    # singular values keeps absolute accuracy O(eps): the three roots that
    # vanish identically for a one-excitation state would otherwise pick up
    # sqrt(eps)-size noise from squaring and re-rooting.
    evals, evecs = np.linalg.eigh(rho)
    sqrt_rho = (evecs * np.sqrt(np.clip(evals, 0.0, None))) @ evecs.conj().T
    factor = sqrt_rho @ _YY @ sqrt_rho.conj()
    roots = np.linalg.svd(factor, compute_uv=False)
    return max(0.0, float(roots[0] - roots[1] - roots[2] - roots[3]))


def dispersion(amplitudes: np.ndarray, sender_index: int, receiver_index: int) -> float:
    """Gamma^2(t) = sum over channel sites (all but sender/receiver) of |f_i|^2."""
    amps = np.asarray(amplitudes, dtype=np.complex128)
    pair = _check_pair(sender_index, receiver_index, amps.shape[0])
    return float(np.sum(np.abs(np.delete(amps, pair)) ** 2))


def leaked_weight(f_ss, f_sr):
    """Gamma^2(t) from its complement, 1 - |f_ss|^2 - |f_sr|^2; elementwise on arrays.

    The raw value must land in [-1e-10, 1 + 1e-10] before it is clipped to
    [0, 1]; anything further out, NaN included, signals a broken decomposition.
    """
    return _leak(np.abs(f_ss), np.abs(f_sr))


@dataclass(frozen=True, eq=False)
class SpectralOverlaps:
    """Per-eigenvector projections on sender (sigma), receiver (rho), and the rest.

    gamma_sq[j] is the summed squared weight of eigenvector j on the channel
    sites.  Column normalization ties the three together per j, and summing
    over j recovers 1, 1, and N-2 respectively.
    """

    sigma: np.ndarray
    rho: np.ndarray
    gamma_sq: np.ndarray

    def __post_init__(self) -> None:
        sigma = np.asarray(self.sigma, dtype=np.float64)
        rho = np.asarray(self.rho, dtype=np.float64)
        gamma_sq = np.asarray(self.gamma_sq, dtype=np.float64)
        n = sigma.shape[0]
        if rho.shape != (n,) or gamma_sq.shape != (n,):
            raise ValueError("sigma, rho, gamma_sq must have equal length")
        if (gamma_sq < 0.0).any():
            j = int(np.argmax(gamma_sq < 0.0))
            raise ValueError(f"gamma_sq weights must be >= 0 (got {float(gamma_sq[j])!r} at j = {j})")
        # written "not <=", so a NaN fails each check
        per_j = sigma**2 + rho**2 + gamma_sq
        if not np.max(np.abs(per_j - 1.0)) <= 1e-10:
            raise ValueError("per-eigenvector weights do not sum to 1 within 1e-10")
        for label, total, target in (
            ("sigma", np.sum(sigma**2), 1.0),
            ("rho", np.sum(rho**2), 1.0),
            ("gamma_sq", np.sum(gamma_sq), float(n - 2)),
        ):
            if not abs(total - target) <= 1e-10:
                raise ValueError(
                    f"sum of {label} weights = {float(total)!r}, expected {target} within 1e-10"
                )
        for arr in (sigma, rho, gamma_sq):
            arr.setflags(write=False)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "gamma_sq", gamma_sq)

    @property
    def n(self) -> int:
        return self.sigma.shape[0]


def spectral_overlaps(
    decomp: SpectralDecomposition, sender_index: int, receiver_index: int
) -> SpectralOverlaps:
    """Project each eigenvector on sender, receiver, and the channel sites.

    The weights of an orthonormal decomposition always sum as SpectralOverlaps
    requires, so a sum that fails is a NumericsError, not a rejected input.
    """
    sender_index, receiver_index = _check_pair(sender_index, receiver_index, decomp.n)
    sigma = np.array(decomp._rows(sender_index))
    rho = np.array(decomp._rows(receiver_index))
    gamma_sq = decomp._channel_weight((sender_index, receiver_index))
    try:
        return SpectralOverlaps(sigma, rho, gamma_sq)
    except ValueError as exc:
        raise NumericsError(f"eigenvectors are not orthonormal: {exc}") from exc


def leakage_bound(overlaps: SpectralOverlaps) -> tuple[float, float]:
    """gamma_M = sum_j sigma_j^2 gamma_sq_j, and a bound on the dispersion Gamma^2(t) that holds for all t.

    For any set S of eigenvectors, the triangle inequality and then
    orthonormality give

        Gamma(t) <= sum_{j in S} |sigma_j| gamma_j + (sum_{j not in S} sigma_j^2)^{1/2},

    gamma_j = sqrt(gamma_sq_j).  The bound is the square of the least right
    side over the prefixes S of the eigenvectors by decreasing sigma_j^2,
    empty and full included, so it never exceeds sum_j sigma_j^2 = 1 (S
    empty) nor N * gamma_M (S full, then Cauchy-Schwarz).  A small bound
    certifies that the channel keeps the excitation on the sender/receiver
    pair.
    """
    sig_sq = overlaps.sigma**2
    weights = sig_sq * overlaps.gamma_sq
    ascending = np.argsort(sig_sq, kind="stable")
    # column i takes S as all but the i vectors of least sigma_j^2: row 0 sums their sigma_j^2, from the
    # smallest so that short tails keep their digits, and row 1 the |sigma_j| gamma_j of S
    sums = np.zeros((2, sig_sq.size + 1))
    np.cumsum(sig_sq[ascending], out=sums[0, 1:])
    np.cumsum(np.sqrt(weights[ascending[::-1]]), out=sums[1, -2::-1])
    return float(np.sum(weights)), float(np.min(np.sqrt(sums[0]) + sums[1])) ** 2


def structure_residuals(overlaps: SpectralOverlaps) -> np.ndarray:
    """Per-eigenvector mirror imbalance |sigma_j^2 - rho_j^2|, which vanishes exactly for a true two-qubit system.

    There each eigenvector splits evenly between sender and receiver; that
    the pair holds 1 - gamma_sq_j of it is SpectralOverlaps' sum rule.
    """
    return np.abs(overlaps.sigma**2 - overlaps.rho**2)


def two_qubit_effective(
    decomp: SpectralDecomposition, overlaps: SpectralOverlaps
) -> tuple[float, tuple[int, int], float]:
    """The dominant eigenvector pair: its gap delta, index pair and sender mass.

    The two eigenvectors with the largest sender weight sigma_j^2 define an
    effective two-level system with gap delta; perfect transfer would occur
    at pi/delta and maximal entanglement at half that.  The mass
    sigma_j^2 + sigma_k^2 is the share of the sender's weight the pair holds.
    """
    sig_sq = overlaps.sigma**2
    # stable sort so equal weights resolve to the lowest eigenvalue indices
    order = np.argsort(-sig_sq, kind="stable")
    j_lo, j_hi = sorted((int(order[0]), int(order[1])))
    delta = float(abs(decomp.eigenvalues[j_hi] - decomp.eigenvalues[j_lo]))
    if delta < 1e-14:
        raise NumericsError(
            f"dominant eigenvector pair ({j_lo}, {j_hi}) is degenerate "
            f"(gap {delta!r}); no finite transfer time exists"
        )
    return delta, (j_lo, j_hi), float(sig_sq[j_lo] + sig_sq[j_hi])
