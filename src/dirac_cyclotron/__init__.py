"""Long-term cyclotron dynamics of relativistic Dirac wave packets.

Closed-form series for the fields and observables of coherent Landau-level
packets (classical rotation, collapse, fractional and full revivals,
trembling motion, spin precession, cat-state formation), validated against
an independent brute-force mode-sum engine.
"""

from .basis import (
    KahanAccumulator,
    LevelTable,
    ModeSet,
    TruncationWindow,
    build_mode_set,
    coherent_coefficient,
    levels,
    q_kernel,
    q_kernel_stack,
    truncation_window,
)
from .fields import (
    PolarGrid,
    cat_decomposition,
    cat_overlap_closed_form,
    classical_density,
    classical_field,
    coherent_ground_state,
    default_grid,
    fractional_revival_field,
    gauss_sum_coefficients,
    jc_field,
    polar_to_xy,
    positive_energy_field,
)
from .observables import (
    collapse_envelope,
    mean_spin_transverse,
    mean_spin_z_jc,
    mean_velocity_envelope,
    mean_velocity_jc,
    mean_velocity_nonrel,
    mean_velocity_positive,
    quadrupole_tensor,
    spin_density,
    spin_density_classical,
    spin_density_half_revival,
    spin_z_plateau_jc,
)
from .oracle import (
    OracleField,
    b1_quadrature,
    fidelity,
    mode_sum_field,
    normalized_fidelity,
    quadrature_expectation,
    sample_mode_sum,
)
from .spectrum import (
    B_CRITICAL_TESLA,
    TIME_UNIT_SECONDS,
    DerivedScales,
    ModeIndex,
    ModelParams,
    branch_coefficients,
    derived_scales,
    fractional_revival_count,
    phi,
    phi_taylor2,
)

__version__ = "0.1.0"
