"""Measurement-and-feedback tensor network states.

Construction, verification, and decomposition of MPS/PEPS/MPO tensors
preparable by constant-depth circuits plus one round of measurement and
feedback, together with a Monte-Carlo simulation of the preparation protocol.
"""

from .basis import (
    CocycleTable,
    MFBasis,
    composite_basis,
    weyl_heisenberg_basis,
)
from .clifford import (
    PartialCliffordMap,
    PauliVector,
    check_admissible,
    synthesize_clifford,
)
from .mps import (
    CliffordMagicForm,
    MPSTensor,
    PolarSplit,
    SymmetryConstraint,
    block,
    canonical_form_check,
    check_mf_symmetry,
    clifford_magic_decompose,
    correction_consistency,
    map_order,
    pauli_expectation,
    solve_symmetry_family,
    split_polar,
    spt_solution,
)
from .mpo import (
    MPOTensor,
    apply_mpo_via_protocol,
    build_purifying_unitary,
    check_mpo_isometry,
    mpo_slices,
    relative_local_unitary,
)
from .peps import (
    PEPSConstraint,
    PEPSTensor,
    TopoSymmetrySpec,
    TransferSpectrum,
    check_peps_mf_symmetry,
    check_topo_symmetry,
    degeneracy_report,
    injectivity_check,
    peps_isometry_check,
    peps_split_polar,
    topo_solution,
    transfer_matrix_brute,
    transfer_spectrum_analytic,
)
from .protocol import (
    PepsPatch,
    ProtocolRun,
    enumerate_outcomes,
    run_mps_protocol,
    run_peps_trials,
)
from .tensors import DenseTensor, contract

__all__ = [
    "MPOTensor",
    "apply_mpo_via_protocol",
    "build_purifying_unitary",
    "check_mpo_isometry",
    "mpo_slices",
    "relative_local_unitary",
    "PEPSConstraint",
    "PEPSTensor",
    "TopoSymmetrySpec",
    "TransferSpectrum",
    "check_peps_mf_symmetry",
    "check_topo_symmetry",
    "degeneracy_report",
    "injectivity_check",
    "peps_isometry_check",
    "peps_split_polar",
    "topo_solution",
    "transfer_matrix_brute",
    "transfer_spectrum_analytic",
    "PepsPatch",
    "ProtocolRun",
    "enumerate_outcomes",
    "run_mps_protocol",
    "run_peps_trials",
    "CocycleTable",
    "MFBasis",
    "composite_basis",
    "weyl_heisenberg_basis",
    "PartialCliffordMap",
    "PauliVector",
    "check_admissible",
    "synthesize_clifford",
    "CliffordMagicForm",
    "MPSTensor",
    "PolarSplit",
    "SymmetryConstraint",
    "block",
    "canonical_form_check",
    "check_mf_symmetry",
    "clifford_magic_decompose",
    "correction_consistency",
    "map_order",
    "pauli_expectation",
    "solve_symmetry_family",
    "split_polar",
    "spt_solution",
    "DenseTensor",
    "contract",
]

__version__ = "0.1.0"
