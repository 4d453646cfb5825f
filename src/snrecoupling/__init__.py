"""Recoupling coefficients of the symmetric group and quantum-marginal numerics.

The package computes the change-of-basis maps between the two ways of
coupling three irreducible S_k representations, verifies their exact
identities (blockwise unitarity, column-swap norm ratios), and drives
desk-scale experiments connecting recoupling norms to the marginal spectra
and entropy inequalities of tripartite quantum states.
"""

from . import (
    combinatorics,
    errors,
    experiments,
    intertwiner,
    quantumstates,
    recoupling,
    repsym,
    schurweyl,
    tensorlinalg,
)
from .combinatorics import (
    enumerate_partitions,
    normalize,
    round_spectrum,
    sk_dimension,
    weyl_dimension,
)
from .intertwiner import cg_isometries, kronecker_coefficient
from .quantumstates import (
    DensityMatrix,
    sample_hs_random,
    spectra_tuple,
    ssa_gap,
    von_neumann_entropy,
    weak_mono_gap,
)
from .recoupling import (
    column_swap_check,
    column_swap_check_ag,
    full_recoupling_unitary,
    recoupling_tensor,
)
from .repsym import character, young_orthogonal_rep
from .schurweyl import isotypic_projector, projected_trace

__version__ = "0.1.0"

__all__ = [
    "DensityMatrix",
    "cg_isometries",
    "character",
    "column_swap_check",
    "column_swap_check_ag",
    "combinatorics",
    "enumerate_partitions",
    "errors",
    "experiments",
    "full_recoupling_unitary",
    "intertwiner",
    "isotypic_projector",
    "kronecker_coefficient",
    "normalize",
    "projected_trace",
    "quantumstates",
    "recoupling",
    "recoupling_tensor",
    "repsym",
    "round_spectrum",
    "sample_hs_random",
    "schurweyl",
    "sk_dimension",
    "spectra_tuple",
    "ssa_gap",
    "tensorlinalg",
    "von_neumann_entropy",
    "weak_mono_gap",
    "weyl_dimension",
    "young_orthogonal_rep",
]
