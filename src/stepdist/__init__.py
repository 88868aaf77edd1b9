"""Exact one-dimensional distribution functions with atoms and plateaus.

The package represents CDFs as finite breakpoint structures (jumps plus
linear rises), which makes evaluation, left limits, generalized inverses,
level sets, interval masses, the jump-interpolating transform and its
almost-everywhere inversion all exactly computable.  On top of that sit the
distributional transform (uniform regardless of atoms), seeded inverse
sampling, and empirical copulas with both directions of Sklar's theorem.
"""

from .catalog import (
    bernoulli_half,
    point_mass,
    ramp_plateau_atom,
    random_cdf,
    uniform_01,
)
from .cdf import (
    Cdf,
    QuantilePair,
    jump_set,
    left_quantile,
    level_set,
    normalize,
    quantile_pair,
    right_quantile,
)
from .checks import CheckResult, analytic_checks, sklar_checks, stochastic_checks
from .copula import (
    CopulaSpec,
    JointSample,
    copula_at_flat_alpha,
    copula_eval,
    dt_copula,
    empirical_joint_cdf,
    generate_joint_sample,
    sklar_compose,
    sklar_identity_check,
)
from .distfile import file_digest, load_distribution, parse_distribution
from .errors import (
    AlphaNotInJumpInterval,
    AlphaOutOfRange,
    CountermonotoneDimension,
    DegenerateRange,
    DimensionMismatch,
    EmptySample,
    LambdaOutOfRange,
    LengthMismatch,
    MalformedInterval,
    NotAFlatLevel,
    StepDistError,
    StreamCollision,
    TransformOutOfRange,
    ValidationError,
)
from .measure import measure_interval, measure_level_set, measure_set, measure_value_level
from .monotone import DfConditionReport, MonotoneStepLinear, df_condition_report
from .realset import Interval, RealSet
from .stochastic import (
    InversionReport,
    SeededStream,
    TransformCdfBreakdown,
    distributional_transform,
    inversion_check,
    ks_uniformity,
    sample_inverse,
    transform_cdf_exact,
)
from .transform import (
    NullSetReport,
    attained_values,
    inversion_null_set,
    invert_transform,
    jump_gap_values,
    jump_gap_weights,
    lambda_transform,
    lambda_transforms,
    quantile_range_of_point,
    sublevel_decomposition,
)

__version__ = "0.1.0"
