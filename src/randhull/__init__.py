"""Random polytopes as estimators of convex bodies.

Sample i.i.d. points in (or on) a body, take the support function of their
convex hull, and measure how fast it converges to the body's.  One object,
estimators.HullMetric, reads every metric of the hull against the body: the
Hausdorff distance, with an upper certificate on request, the center-relative
scaling distance, the L^p support deficit, and the gap in the functionals T_p
and S_p (S_1 is the mean width).  Around it: finite-sample deviation bounds,
and the dented-ball family that shows the rates are tight.

Importing the package loads numpy and the standard library only.  PyYAML is
imported with the first experiment config read or written, the thread pool
with the first experiment run on more than one thread, and each scipy
submodule inside the function that calls it: scipy.special with the first
cap share, scipy.integrate with the dented ball's profile mass, scipy.stats
with the slope fit of a rate experiment, and scipy.spatial with the first
Qhull or Voronoi call.
"""

from .geometry import (
    Ball,
    BodySpec,
    BumpBall,
    Ellipsoid,
    PolytopeV,
    ball_volume,
    body_from_dict,
    body_to_dict,
    bump_eta,
    bump_profile,
    c_alpha,
    canonical_center,
    cap_area_sphere,
    cap_volume_ball,
    contains,
    load_body,
    minkowski_functional,
    save_body,
    sphere_area,
    support,
    support_batch,
)
from .nets import (
    Decomposition,
    SphereNet,
    build_net,
    decompose,
    load_net,
)
from .sampling import (
    SampleCloud,
    load_points,
    sample,
)
from .estimators import (
    HullMetric,
    MetricSpec,
)
from .bounds import (
    ClassParams,
    DeviationBound,
    MembershipReport,
    check_class_membership,
    class_params_boundary,
    class_params_smooth,
    deviation_bound,
    family_params,
    fit_class_l,
    make_deviation_bound,
    rate_exponent,
)
from .experiments import (
    DeviationReport,
    ExperimentConfig,
    RateReport,
    build_lower_bound_family,
    emit_report,
    load_experiment_config,
    run_deviation_experiment,
    run_rate_experiment,
)

__version__ = "0.1.0"
