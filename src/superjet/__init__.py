"""Exact finite-level supergeometry: Grassmann algebras, Lambda-points,
polynomial supermanifold morphisms, truncated jet calculus, and seeded
verification suites with a JSON command-line front end.

Everything algebraic is exact (rational arithmetic); only the curved-geometry
backend works in floats, with explicit tolerances.
"""

from .errors import (
    DegreeBoundError,
    DimensionError,
    DomainError,
    InputError,
    ParityError,
    SchemaError,
)
from .geometry import (
    BundlePoint,
    BundleTangent,
    Sphere2Backend,
    bundle_exp,
    local_detrivialize,
    local_trivialize,
    make_backend,
)
from .grassmann import (
    GrassmannElement,
    GrassmannHom,
    hom_apply,
    hom_compose,
    merge_sign,
)
from .jetcalc import (
    TruncatedPolyMap,
    exp_pair,
    faa_di_bruno,
    taylor_of,
    trunc_compose,
    trunc_mul,
)
from .mapspace import (
    LambdaPointMap,
    MappingPoint,
    SmoothVerdict,
    SuperChart,
    chart_transition_map,
    lambda_point_map_of,
    mapping_chart,
    sc_functor_action,
    sc_pair_to_point,
    sc_point_to_pair,
    supersmooth_check,
    top_order_cancellation,
)
from .morphism import (
    EtaCoefficient,
    OrderVerdict,
    SuperMorphism,
    default_probes,
    eta_decompose,
    morphism_compose,
    order_bound_check,
    pushforward,
    pushforward_general,
)
from .polyalg import (
    DEFAULT_DEGREE_BOUND,
    Polynomial,
    lattice_points,
    poly_compose,
    poly_eval,
    taylor_coefficient,
    taylor_shift,
)
from .rng import ALGORITHM, SplitMix64
from .suites import SUITES, run_suite
from .superfun import (
    SuperFunction,
    SuperPoint,
    sf_eval,
    sf_eval_naive,
    sf_substitute,
)

__version__ = "0.1.0"
