"""Mosaics of combinatorial designs as security functions.

Explicit mosaic families over finite fields, exact design verification, the
semantic-security metrics and bounds for wiretap and privacy-amplification
scenarios, and Monte Carlo calibration of both pipelines.
"""

__version__ = "0.1.0"

from .field import GF, FieldArrays, make_field, prime_power
from .designs import (
    AffineReport,
    BIBDParams,
    CheckFailure,
    GDDParams,
    IncidenceStructure,
    Resolution,
    TacticalParams,
    check_affine,
    classify_gdd,
    verify_bibd,
    verify_gdd,
    verify_resolution,
    verify_tactical,
)
from .mosaics import (
    CyclicQuasigroup,
    FieldAdditiveQuasigroup,
    Mosaic,
    Quasigroup,
    RateReport,
    certify,
    construct_from_resolvable,
    dual_mosaic,
    from_functional_form,
    from_members,
    point_multiple,
    rates,
    sample_inverse,
    sum_structure,
    verify_functional_form,
    verify_mosaic,
)
from .families import (
    DennistonGeometry,
    ag_design,
    build_family,
    build_m1,
    build_m2,
    build_m3,
    build_m4,
    clatworthy_r1,
    clatworthy_r2,
    denniston_design,
    denniston_point_set,
    td_design,
)
from .hashprops import (
    CollisionSpectrum,
    check_regular_gdd_uhf,
    collision_spectrum,
    epsilon_asu,
    hashprops_report,
    is_optimally_universal,
    is_universal,
    oa_check,
    stinson_floor,
)
from .security import (
    Channel,
    JointXZ,
    PAJoint,
    SecurityReport,
    WiretapJoint,
    bound_pa_kl,
    bound_pa_tv,
    bound_wt_bibd,
    bound_wt_gdd,
    bound_wt_tv_bibd,
    bound_wt_tv_gdd,
    d2,
    divergence_comparison,
    entropy_comparison,
    exact_pa_metrics,
    exact_wiretap_metrics,
    generalized_bound,
    key_marginal_exact,
    kl,
    pa_report,
    prop41_check,
    prop42_check,
    tv,
    wiretap_report,
)
from .simkit import (
    SimConfig,
    SimResult,
    chi_square_gof,
    constant_column_channel,
    identity_channel,
    independent_source,
    pa_roundtrip,
    random_channel,
    random_source,
    symmetric_channel,
    wiretap_roundtrip,
)
