"""Multivariate matrix functions and generalized multiple operator
integrals over Jordan spectral data, with norm bounds, perturbation and
continuity checks, and matrix-function derivatives.
"""

from .analysis import (AnalysisError, ContinuityReport, NormBoundReport,
                       PerturbationReport, StructureInstabilityError,
                       continuity_experiment, lipschitz_check, norm_report,
                       operational_cross_term, perturbation_check_gdoi,
                       perturbation_check_general, reverse_triangle_lower)
from .derivative import DerivativeError, contour_oracle, nth_derivative
from .engine import (EngineError, GmoiProblem, NilpotentPattern,
                     binary_selector, eval_classical_moi, eval_gmoi,
                     pattern_terms)
from .fixtures import (FixtureError, gen_fixture, random_fixture,
                       random_matrix, random_structure)
from .functions import (FunctionError, MultiFunction, constant,
                        divided_difference, exp_function, function_from_json,
                        lift_divided_difference, multivariate_polynomial,
                        polynomial, power_function, product_symbol,
                        rational_function, separable_product)
from .jordan import (DecompositionError, JordanDecomposition, SpectralBlock,
                     decompose, from_structure)
from .numerics import (DimensionMismatchError, Matrix, NumericsError, QC,
                       SingularMatrixError, frobenius_norm, inverse, mat_mul)
from .spectral_map import (DEFAULT_BUDGET, BudgetExceededError,
                           effective_budget, eval_multivariate,
                           eval_univariate, moi_as_spectral_map, slot_options)

__version__ = "0.1.0"
