"""Numerical laboratory for propagation bounds in the Toda lattice, its
commuting hierarchy, and bounded perturbations of the Toda flow.

The package computes exact sensitivity derivatives d(state at time t)/d(initial
coordinate) by integrating variational flows, and verifies every explicit
light-cone envelope and constant of the underlying theory against simulation:
cone speeds, decay rates, perturbation-corrected constants, interpolated
envelopes, bracket propagation bounds, and the general-chain estimates.
"""

from .state import (BACKGROUND, GHSState, LatticeState, PQState,
                    background_state, flaschka_forward, flaschka_inverse,
                    hamiltonian_ab, jacobi_matrix, jacobi_norm,
                    jacobi_norm_within, random_localized_state, relative_to_lattice, toda_rhs,
                    trace_invariants)
from .integrators import IntegratorConfig, Trajectory, integrate, sample_times
from .solitons import (SolitonSpec, soliton_Lnorm, soliton_flaschka,
                       soliton_pq, soliton_pq_state, soliton_speed,
                       soliton_state)
from .hierarchy import (HierarchySpec, free_moment, g_tilde, h_tilde,
                        hierarchy_hamiltonian, hierarchy_rhs, kvm_rhs,
                        path_counts)
from .sensitivity import (SecondTangentGrid, SensitivityGrid, evolve_second_tangent,
                          evolve_tangent, finite_difference_oracle, make_flow,
                          second_finite_difference)
from .bounds import (C_epsilon, Envelope, G_mu, LightConeReport,
                     check_G_convolution, fit_front_speed, gamma_const,
                     h_growth, hierarchy_envelope, mu_profile, optimal_mu,
                     perturbed_envelope, perturbed_prefactor,
                     second_derivative_envelope, timedep_envelope,
                     toda_envelope, velocity_hierarchy, velocity_perturbed,
                     velocity_timedep, velocity_toda, verify_light_cone)
from .perturbed import (InterpolationFit, PerturbationSpec,
                        TrajectoryMonitors, interpolation_envelope,
                        monitor_trajectory, perturbed_rhs)
from .observables import (ObservableDescriptor, basic_observables,
                          check_bracket_bound, evolved_bracket,
                          hamiltonian_window_observable, poisson_bracket,
                          required_bracket_seeds)
from .ghs import (PotentialSpec, confinement_bound, factorial_tail_envelope,
                  ghs_energy, ghs_envelope, ghs_rhs,
                  ghs_stability_diagnostics, ghs_velocity)

__version__ = "0.1.0"
