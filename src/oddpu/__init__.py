"""Executable Hamiltonian mechanics of the odd-order Pais-Uhlenbeck oscillator."""

from .spectrum import (FrequencySpectrum, complete_homog, complete_homogeneous,
                       elementary_sigma, reduced_sigma, rho, verify_identities)
from .dynamics import (IntegrationError, ModalSolution, PhaseState, RK4Flow,
                       TrajectoryTable, companion_matrix, rk4_step, trajectory)
from .poisson import (DegeneracyError, GammaWeights, QuadraticObservable, alt_structure,
                      degeneracy_scalar, degeneracy_scale, dirac_equivalent_gamma,
                      dirac_structure, gamma_is_degenerate)
from .canonical import (alt_hamiltonian_observable, canonical_map, energy_observable,
                        mode_integrals, oscillator_map, oscillator_sums, quadratic_form,
                        scaled_canonical_map, structure_rank, uniqueness_check)
from .deformation import (PotentialSpec, closed_form_direction_n1, deformation_system,
                          deformed_energy, deformed_field, invariant_directions,
                          null_space_complete_pivot)

__version__ = "0.1.0"
