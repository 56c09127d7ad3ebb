"""Figures of merit for the spin-chain channel.

State transfer is scored by the fidelity |f_sr|^2 (and by its average over
the Bloch sphere of input states), entanglement generation by the
concurrence between sender and receiver,

    C(t) = 2 sin^2(theta/2) |f_ss(t)| |f_sr(t)|,

and the quality of the effective two-qubit picture by per-eigenvector
overlaps: sigma_j, rho_j (projections on sender/receiver) and the leaked
weight gamma_sq_j.  The closed-form concurrence is cross-checked against a
Wootters computation on the reduced 4x4 density matrix, and the dispersion
Gamma^2(t) is bounded by N * Gamma_M with Gamma_M = sum_j sigma_j^2
gamma_sq_j.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import NumericsError, SpectralDecomposition

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
        if not (0.0 <= self.theta <= math.pi):
            raise ValueError(f"theta must lie in [0, pi] (got {self.theta})")
        if not (0.0 <= self.phi < 2.0 * math.pi):
            raise ValueError(f"phi must lie in [0, 2*pi) (got {self.phi})")


def _modulus(f, label: str = "|f_sr|"):
    """|f| elementwise, unclamped; ValueError when it exceeds 1 by more than 1e-10."""
    modulus = np.abs(f)
    if np.any(modulus > 1.0 + 1e-10):
        raise ValueError(f"{label} = {float(np.max(modulus))!r} exceeds 1 beyond tolerance")
    return modulus


def transfer_fidelity(f_sr):
    """F(t) = |f_sr|^2, clamped to [0, 1]; elementwise on arrays."""
    modulus = _modulus(f_sr)
    return np.minimum(modulus * modulus, 1.0)


def averaged_fidelity(f_sr):
    """Fidelity averaged over all input states: |f|^2/6 + |f|/3 + 1/2."""
    modulus = np.minimum(_modulus(f_sr), 1.0)
    return modulus * modulus / 6.0 + modulus / 3.0 + 0.5


def concurrence_closed_form(params: InitialStateParams, f_ss, f_sr):
    """C = 2 sin^2(theta/2) |f_ss| |f_sr|, clamped to [0, 1]; elementwise on arrays."""
    mod_ss = _modulus(f_ss, "|f_ss|")
    mod_sr = _modulus(f_sr)
    raw = 2.0 * math.sin(params.theta / 2.0) ** 2 * mod_ss * mod_sr
    if np.any(raw > 1.0 + 1e-9):
        raise ValueError(f"concurrence value {float(np.max(raw))!r} exceeds 1 beyond tolerance")
    return np.clip(raw, 0.0, 1.0)


def wootters_concurrence_oracle(
    params: InitialStateParams,
    amplitudes: np.ndarray,
    sender_index: int,
    receiver_index: int,
) -> float:
    """Concurrence of the reduced sender/receiver state, computed from scratch.

    Builds the global n-qubit pure state with vacuum amplitude cos(theta/2)
    and one-excitation amplitudes e^{-i phi} sin(theta/2) f_n, traces out
    every site except sender and receiver, and evaluates the Wootters
    formula C = max{0, l1 - l2 - l3 - l4} from the square-rooted eigenvalues
    of rho rho_tilde, rho_tilde = (sy x sy) rho* (sy x sy).  Deliberately
    shares no algebra with concurrence_closed_form so the two can be used as
    independent cross-checks.
    """
    amps = np.asarray(amplitudes, dtype=np.complex128)
    if amps.ndim != 1:
        raise ValueError(f"amplitudes must be a flat vector (got shape {amps.shape})")
    n = amps.shape[0]
    if n < 2:
        raise ValueError(f"need at least 2 sites (got {n})")
    if sender_index == receiver_index:
        raise ValueError("sender and receiver indices must differ")
    for label, idx in (("sender_index", sender_index), ("receiver_index", receiver_index)):
        if not (0 <= idx < n):
            raise ValueError(f"{label}={idx} out of range for {n} sites")
    norm_sq = float(np.sum(np.abs(amps) ** 2))
    if abs(norm_sq - 1.0) > 1e-8:
        raise ValueError(f"amplitude vector norm^2 = {norm_sq!r} deviates from 1 beyond 1e-8")

    half = params.theta / 2.0
    psi = np.zeros(1 << n, dtype=np.complex128)
    psi[0] = math.cos(half)
    site_factor = np.exp(-1j * params.phi) * math.sin(half)
    for k in range(n):
        psi[1 << k] = site_factor * amps[k]
    psi /= np.linalg.norm(psi)

    # reduce to the (sender, receiver) pair: site k occupies bit k, which in
    # the (2,)*n reshape is axis n-1-k
    tensor = psi.reshape((2,) * n)
    tensor = np.moveaxis(tensor, (n - 1 - sender_index, n - 1 - receiver_index), (0, 1))
    block = tensor.reshape(4, -1)
    rho = block @ block.conj().T
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
    mask = np.ones(amps.shape[0], dtype=bool)
    mask[sender_index] = False
    mask[receiver_index] = False
    return float(np.sum(np.abs(amps[mask]) ** 2))


def leaked_weight(f_ss, f_sr):
    """Gamma^2(t) from its complement, 1 - |f_ss|^2 - |f_sr|^2; elementwise on arrays.

    The raw value must land in [-1e-10, 1 + 1e-10] before it is clipped to
    [0, 1]; anything further out signals a broken decomposition.
    """
    leak = 1.0 - np.abs(f_ss) ** 2 - np.abs(f_sr) ** 2
    if np.any(leak < -1e-10) or np.any(leak > 1.0 + 1e-10):
        worst = np.ravel(leak)[np.argmax(np.maximum(-leak, leak - 1.0))]
        raise NumericsError(f"leaked weight out of range (worst value {float(worst)!r})")
    return np.clip(leak, 0.0, 1.0)


@dataclass(frozen=True)
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
        per_j = sigma**2 + rho**2 + gamma_sq
        if np.max(np.abs(per_j - 1.0)) > 1e-10:
            raise ValueError("per-eigenvector weights do not sum to 1 within 1e-10")
        for label, total, target in (
            ("sigma", np.sum(sigma**2), 1.0),
            ("rho", np.sum(rho**2), 1.0),
            ("gamma_sq", np.sum(gamma_sq), float(n - 2)),
        ):
            if abs(total - target) > 1e-10:
                raise ValueError(
                    f"sum of {label} weights = {total!r}, expected {target} within 1e-10"
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
    """Project each eigenvector on sender, receiver, and the channel sites."""
    n = decomp.n
    for label, idx in (("sender_index", sender_index), ("receiver_index", receiver_index)):
        if not (0 <= idx < n):
            raise ValueError(f"{label}={idx} out of range for {n} sites")
    if sender_index == receiver_index:
        raise ValueError("sender and receiver indices must differ")
    V = decomp.eigenvectors
    sigma = V[sender_index].copy()
    rho = V[receiver_index].copy()
    mask = np.ones(n, dtype=bool)
    mask[sender_index] = False
    mask[receiver_index] = False
    gamma_sq = np.sum(V[mask] ** 2, axis=0)
    return SpectralOverlaps(sigma, rho, gamma_sq)


def leakage_bound(overlaps: SpectralOverlaps) -> tuple[float, float]:
    """gamma_M = sum_j sigma_j^2 gamma_sq_j and the dispersion bound N * gamma_M.

    Gamma^2(t) <= N * gamma_M holds for all t, so a small gamma_M certifies
    that the channel keeps the excitation on the sender/receiver pair.
    """
    gamma_m = float(np.sum(overlaps.sigma**2 * overlaps.gamma_sq))
    return gamma_m, overlaps.n * gamma_m


def structure_residuals(overlaps: SpectralOverlaps) -> np.ndarray:
    """Per-eigenvector deviation from the ideal two-level structure.

    residuals[j] = | sigma_j^2 - rho_j^2 | + | sigma_j^2 + rho_j^2 -
    (1 - gamma_sq_j) |, which vanishes exactly for a true two-qubit system
    where each eigenvector splits evenly between sender and receiver.
    """
    sig_sq = overlaps.sigma**2
    rho_sq = overlaps.rho**2
    return np.abs(sig_sq - rho_sq) + np.abs(sig_sq + rho_sq - (1.0 - overlaps.gamma_sq))


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
