"""Spin-chain quantum channels in the single-excitation sector.

Builds chain Hamiltonians (power-law, mirror-periodic, or custom couplings),
evolves single-excitation amplitudes, and scores state transfer and
entanglement generation between a sender and a receiver site.
"""

from .dynamics import (
    NumericsError,
    SpectralDecomposition,
    eigendecompose,
    full_space_amplitude,
    propagate,
)
from .experiments import (
    Peak,
    SizeScanResult,
    SizeScanRow,
    TimeScanResult,
    size_scan,
    time_scan,
)
from .metrics import (
    InitialStateParams,
    SpectralOverlaps,
    averaged_fidelity,
    concurrence_closed_form,
    dispersion,
    leaked_weight,
    leakage_bound,
    spectral_overlaps,
    structure_residuals,
    transfer_fidelity,
    two_qubit_effective,
    wootters_concurrence_oracle,
)
from .model import (
    FULL_SPACE_MAX_SITES,
    ChainGeometry,
    CouplingMatrix,
    CouplingModel,
    SectorHamiltonian,
    build_chain_geometry,
    build_couplings,
    full_hamiltonian,
    load_coupling_matrix,
    mirror_periodic_couplings,
    power_law_couplings,
    sector_hamiltonian,
)

__version__ = "0.1.0"
