"""Exact computation of the degree of noninvertibility of finite functions.

deg(f) = (1/|X|) sum_y |f^-1(y)|^2 measures how far f: X -> Y is from
injective (1 = injective, |X| = constant).  The package evaluates the
closed forms for expected degrees of random composition chains and
generalized fiber power sums, re-derives every value through independent
enumeration and multinomial-sum oracles, checks the composition bounds
exactly, and estimates by seeded Monte Carlo where enumeration is out of
reach.  All primary computations are exact (big integers and rationals);
floats appear only in Monte Carlo reports.
"""

from .bounds import (
    BoundReport,
    check_composition_bound,
    check_max_fiber_degree_bound,
    compare_bounds,
    sweep_endofunction_pairs,
)
from .closed_form import (
    ChainSpec,
    closed_multinomial_power_sum,
    convergence_table,
    expected_degree_chain,
    expected_degree_iterate,
    expected_degree_q,
    power_difference_coeffs,
    power_sum_stirling_form,
    stirling_identity_sum,
    stirling_power_sum,
)
from .combinatorics import (
    StirlingTable,
    binomial,
    multinomial,
    stirling1_signed,
    stirling1_unsigned,
    stirling2,
    stirling_transform,
)
from .errors import (
    BudgetExceededError,
    EmptySetError,
    FunctionFileError,
    InvalidExponentError,
    InvalidSizeError,
    LengthMismatchError,
    NegativePartError,
    NoninvError,
    OutOfRangeImageError,
    SizeMismatchError,
)
from .functions import (
    FiniteFunction,
    compose,
    constant_function,
    format_function_text,
    function_to_json,
    identity_function,
    load_function,
    make_function,
    parse_function_json,
    parse_function_text,
)
from .montecarlo import (
    BLOCK_SAMPLES,
    MAX_DRAWS,
    STREAM_CONTRACT,
    EstimateReport,
    SamplerConfig,
    SplitMix64,
    derived_stream,
    estimate_expected_degree_chain,
    estimate_max_fiber_mean,
    sample_function,
)
from .oracle import (
    DEFAULT_BUDGET,
    EnumerationBudget,
    VerificationReport,
    brute_expected_degree_chain,
    brute_expected_degree_q,
    check_square_moment_identity,
    count_weak_compositions,
    enumerate_functions,
    multinomial_expected_degree_chain,
    multinomial_power_sum,
    weak_compositions,
)

__version__ = "0.1.0"
