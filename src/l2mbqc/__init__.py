"""Adaptive measurement-based computation of Boolean functions.

Synthesis of rotation-angle sequences for symmetric functions, compilation
to adaptive measurement schedules on GHZ and 1D cluster states, exact
simulation, and space-time resource accounting.
"""
from . import boolean, mbqc, onequbit, pfd, qsp, sim
from .boolean import (AnfPolynomial, BooleanFunction, and_n, anf, build,
                      constant, f_max, from_profile, from_table, mod_p,
                      nchvm_bound, or_n, pairwise_and, parity_n,
                      walsh_spectrum)
from .mbqc import (MeasurementSchedule, Resource, ResourceReport,
                   compile_pfd_to_ghz, compile_to_cluster, lift_ghz_to_cluster,
                   mod3_protocol, modp_protocol, or_protocol,
                   qsp_symmetric_protocol, resources)
from .onequbit import (OneQubitProgram, build_commuting_program,
                       build_mod3_clifford, build_qsp_program,
                       build_symmetric_program, normalize_sign_form,
                       or_reduction_bank)
from .pfd import (PeriodicDecomposition, or_decomposition,
                  or_decomposition_published, pairwise_and_decomposition,
                  solve_pfd, sparsity_certificate, verify_pfd)
from .qsp import (LaurentPair, QspAngles, complete_and_extract_angles,
                  reconstruct_unitary, reference_angles, solve_mod_p_coeffs,
                  solve_symmetric_coeffs, synthesize_mod_p,
                  synthesize_symmetric, verify_qsp)
from .sim import (SimulationReport, bell_score, branch_distribution,
                  compare_engines, effective_circuit, exact_distribution,
                  exact_distributions, run_shot, verify_protocol)

__version__ = "0.1.0"
