"""Tetrahedron altitudes, the Monge point, and the quadric carrying the altitudes."""

from .core import (
    DEFAULT_TOL,
    Line3,
    LineMeet,
    LineRelation,
    Plane3,
    Tolerance,
    dot,
    line_line_meet,
    orthocenter2d,
    triple,
    vec,
)
from .forms import (
    EigenFrame,
    QuadForm3,
    TracelessClass,
    TracelessKind,
    Tripod,
    classify_traceless,
    evaluate,
    rank,
    trace,
    tripod_through_generator,
)
from .tetra import (
    NoteworthyPoints,
    TetraClass,
    TetraKind,
    Tetrahedron,
    altitude,
    altitudes_meet,
    centroid,
    circumcenter,
    classify,
    edge_vector,
    midplane,
    monge_identity_residual,
    monge_point,
    noteworthy,
    opposite_edge_dots,
    ortho_perpendicular,
    pluecker_residual,
)
from .altquadric import (
    AltitudeQuadric,
    ConicKind,
    ConicSection,
    QuadricKind,
    RegulusTag,
    asymptotic_cone,
    build,
    contains_line,
    q_ijkl,
    q_star,
    regulus_of,
    rhs,
    section,
)
from .porism import (
    Ellipse3,
    InscribedTriangle,
    ellipse_section,
    porism_family,
)
from .reporting import (
    AnalysisReport,
    Mesh,
    analyze,
    emit_svg_porism,
    mesh_to_obj,
    parse_tetrahedron,
    quadric_mesh,
    random_tetra,
    serialize_tetrahedron,
)

__version__ = "0.1.0"
