"""orbidegree: mapping degrees of maps between weighted projective spaces and circle quotients.

Exact engine: points with zero-or-root-of-unity coordinates, decidable orbit
equality, fibre enumeration by coset counting, weighted preimage cardinality,
mod-2 and oriented degrees with regularity certificates.

Numeric engine: slice charts for the weighted circle action on spheres,
Newton-corrected lifts, finite-difference Jacobian signs, and preimage
counting for the one-dimensional circle-quotient examples.

`verify` turns the invariance statements (local constancy, value
independence with its reflection-quotient counterexample, multiplicativity,
same-underlying-map, covering degrees) into executable report suites; `cli`
exposes everything with stable JSON output.
"""

from .circle import (
    CircleDegreeResult,
    CircleMap,
    CirclePreimage,
    CirclePreimageSet,
    circle_degree2,
    circle_degrees,
    circle_eval,
    covering_degree,
)
from .degree import (
    DEFAULT_ENUMERATION_CAP,
    DegreeResult,
    PreimageColumns,
    PreimageRecord,
    RegularityCertificate,
    degree,
    degree_closed_form,
    is_regular_value,
    preimage_columns,
    preimages,
    regularity,
    smooth_preimage_check,
    weighted_cardinality,
)
from .errors import (
    CriticalValueError,
    EnumerationCapExceededError,
    IrregularPointError,
    NewtonDivergedError,
    NoConvergenceError,
    NoHomomorphismError,
    NonIntegralWeightError,
    NotEffectiveError,
    NotEquivariantError,
    NotRegularError,
    OrbidegreeError,
    PreconditionViolatedError,
    WeightMismatchError,
)
from .maps import MonomialMap, ThetaHom, compose, theta_at, underlying_image
from .roots import ExactCoordinate, RootOfUnity
from .slices import (
    ArcSample,
    JacobianCertificate,
    LiftEvaluation,
    SliceChart,
    numeric_jacobian,
    ring_values_through_axis,
    slice_chart,
    slice_lift,
    sphere_point,
    weighted_count_profile,
    write_count_profile_csv,
)
from .spaces import (
    CircleQuotient,
    IsotropyGroup,
    StrataReport,
    StratumComponent,
    StratumRecord,
    WpsOrbifold,
    WpsPoint,
    isotropy,
    singular_dimension,
    strata,
)
from .verify import (
    PropertyReport,
    check_covering,
    check_local_constancy,
    check_multiplicativity,
    check_same_underlying,
    check_value_independence,
    random_composable_pairs,
    random_monomial_maps,
    run_all,
    run_suite,
)

__version__ = "0.1.0"
