"""Spectra, moment problems and bilinear control diagnostics on metric graphs."""

__version__ = "0.1.0"

from .errors import GraphCtrlError, NumericalError, ValidationError
from .graph import (BoundaryCondition, Edge, LengthSetReport, MetricGraph, SolverSettings,
                    Topology, check_length_set, load_problem)
from .spectrum import (SpectralBasis, explicit_subsystem, solve_spectrum,
                       validate_spectral_hypotheses)
from .potentials import (ControlOperator, analyze_coupling, build_matrix,
                         check_vertex_compatibility, matrix_element, mode_overlap_integral)
from .moment import (ClusterPartition, DividedDifferenceSystem, MomentSolution, build_dd_system,
                     build_partition, check_trace_bounds, solve_moment, verify_biorthogonality)
from .lowerbounds import (SecularProduct, build_secular_product, check_cos_lower_bound,
                          diophantine_products, fit_derivative_bound)
from .dynamics import (GalerkinSystem, SampledControl, TrigControl, lie_closure,
                       linearized_response, propagate, resonant_transfer, subsystem_transfer_demo)

__all__ = [name for name in dir() if not name.startswith("_")]
