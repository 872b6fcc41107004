"""Numerical laboratory for propagation bounds in the Toda lattice, its
commuting hierarchy, and bounded perturbations of the Toda flow.

The package computes exact sensitivity derivatives d(state at time t)/d(initial
coordinate) by integrating variational flows, and verifies the explicit
light-cone envelopes of the underlying theory against simulation: cone
speeds, decay rates, perturbation-corrected constants, bracket
propagation bounds, and the general-chain estimates.
"""

from .state import (BACKGROUND, GHSState, LatticeState, background_state,
                    hamiltonian_ab, jacobi_norm, jacobi_norm_within,
                    random_localized_state, toda_rhs, trace_invariants)
from .integrators import IntegratorConfig, Trajectory, integrate, sample_times
from .solitons import (SolitonSpec, soliton_Lnorm, soliton_flaschka,
                       soliton_speed, soliton_state)
from .hierarchy import (HierarchySpec, free_moment, hierarchy_hamiltonian,
                        hierarchy_rhs, kvm_rhs, path_counts)
from .sensitivity import SensitivityGrid, evolve_tangent, make_flow
from .bounds import (Envelope, LightConeReport,
                     fit_front_speed, hierarchy_envelope, mu_profile, optimal_mu,
                     perturbed_envelope, perturbed_prefactor, timedep_envelope,
                     toda_envelope, velocity_hierarchy, velocity_perturbed,
                     velocity_timedep, velocity_toda, verify_light_cone)
from .perturbed import (PerturbationSpec, TrajectoryMonitors,
                        monitor_trajectory, perturbed_rhs)
from .observables import (ObservableDescriptor, basic_observables,
                          check_bracket_bound, hamiltonian_window_observable,
                          poisson_bracket, required_bracket_seeds)
from .ghs import (PotentialSpec, confinement_bound, factorial_tail_envelope,
                  ghs_energy, ghs_envelope, ghs_rhs,
                  ghs_stability_diagnostics, ghs_velocity)

__version__ = "0.1.0"
