"""Exact Reeb graphs of PL functions, certified quotient maps, and
constructive upper bounds for the universal edit distance."""

from .category import (
    compose,
    induced_map,
    limit_projection,
    pullback,
    triangulate_limit,
)
from .editdist import (
    HomotopyCertificate,
    ZigzagDiagram,
    build_homotopy_zigzag,
    compose_couplings,
    coupling,
    coupling_bound,
    homotopy_breakpoints,
    interpolate,
    point_distance,
    point_graph,
    product_coupling,
    zigzag_cost,
)
from .generators import circle, cylinder, path, point, random_instance
from .graphs import (
    GraphPoint,
    ReebGraph,
    complexify,
    graph_isomorphic,
    minimalize,
    point_on_edge,
)
from .maps import (
    CellMap,
    Certificate,
    CertificationError,
    verify_reeb_quotient,
)
from .metrics import (
    PLGraphMap,
    d_f,
    d_matrix,
    distortion,
    sample_points,
)
from .plcore import PLFunction, SimplicialComplex
from .reeb import compute_reeb, graph_identity_map, reeb_of_graph

__version__ = "0.1.0"

__all__ = [
    "CellMap",
    "Certificate",
    "CertificationError",
    "GraphPoint",
    "HomotopyCertificate",
    "PLFunction",
    "PLGraphMap",
    "ReebGraph",
    "SimplicialComplex",
    "ZigzagDiagram",
    "build_homotopy_zigzag",
    "circle",
    "complexify",
    "compose",
    "compose_couplings",
    "compute_reeb",
    "coupling",
    "coupling_bound",
    "cylinder",
    "d_f",
    "d_matrix",
    "distortion",
    "graph_identity_map",
    "graph_isomorphic",
    "homotopy_breakpoints",
    "induced_map",
    "interpolate",
    "limit_projection",
    "minimalize",
    "path",
    "point",
    "point_distance",
    "point_graph",
    "point_on_edge",
    "product_coupling",
    "pullback",
    "random_instance",
    "reeb_of_graph",
    "sample_points",
    "triangulate_limit",
    "verify_reeb_quotient",
    "zigzag_cost",
]
