"""SU(2) representation varieties of mapping tori of bounding-pair map powers.

Evaluate the defining equation systems, construct representatives in every
connected component, classify points by exact integer invariants, check
the closed-form component counts, and emit numerical path-connectivity
certificates.
"""

from .commutator import (
    fricke_trace,
    sample_fiber,
    solve_commutator,
)
from .components import (
    CENTRAL,
    TORUS_CENTRAL,
    ComponentLabel,
    TorusLabel,
    Unclassifiable,
    canonical_representative,
    canonical_torus_representative,
    classify_fix,
    classify_torus,
    count_fix,
    count_fix_char,
    count_torus,
    enumerate_fix_labels,
    enumerate_torus_labels,
    randomized_representative,
    randomized_torus_representative,
)
from .connectivity import (
    CensusReport,
    PathCertificate,
    canonical_path,
    canonical_torus_path,
    census,
    load_certificate,
    probe_path,
    save_certificate,
    verify_certificate,
)
from .su2 import (
    SU2,
    exp_axis_angle,
    haar_random,
)
from .varieties import (
    SurfaceRep,
    TorusRep,
    centralizer_type,
    derived_x,
    fixed_point_residual,
    load_rep,
    project_to_variety,
    random_surface_rep,
    save_rep,
    solve_intertwiner,
    torus_residual,
)
from .words import (
    Generator,
    Substitution,
    Word,
    chi,
    compose_substitution,
    evaluate,
    free_reduce,
    phi_substitution,
    relator,
)

__version__ = "0.1.0"
