"""Measurement-interrupted continuous-time quantum search.

A 2x2 exact engine for the post-selected search protocol, a full-space
brute-force verifier, the non-Hermitian effective description, a scaling
planner, and detuning-robustness analytics, plus a CLI that emits
reproducible CSV tables.
"""

__version__ = "0.1.0"

from .model import (
    DampedTwoLevelModel,
    RunRecord,
    SearchParams,
    grover_fidelity_closed_form,
    grover_step_count,
    make_params,
    overlap_x,
)
from .stroboscopic import (
    BlockHamiltonians,
    accumulate_process,
    approx_step_operator,
    distance_from_unitarity,
    exact_step_operator,
    expm_2x2_hermitian,
    final_distance,
    run_protocol,
    subspace_basis_matrices,
)
from .fullspace import (
    FullState,
    equivalence_suite,
    simulate_full_protocol,
)
from .effective import (
    EffectiveHamiltonian,
    continuous_heff,
    damped_eigenanalysis,
    extract_step_hamiltonian,
    integrate_effective,
    unitary_approx_fidelity,
)
from .scaling import (
    QualityReport,
    ScalePlan,
    bad_epsilon_values,
    detuned_fidelity_analytic,
    plan_scaled_instance,
    quality_factor_sweep,
    scaled_process_check,
    scaling_k2,
)
