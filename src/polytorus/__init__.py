"""Triangulated tori: combinatorial types, census, and exact knotted
polyhedral realizations.

The package splits into a combinatorial half (validated torus
triangulations, homology signatures, shortest non-separating cycles, the
m x k type machinery, exhaustive small-vertex enumeration) and an exact
geometric half (rational-arithmetic tube and complement constructions
around stick knots, cyclic-polytope realizations, embedding verification,
knot determinants from projection diagrams).
"""

from .surfaces import (
    Cycle,
    SimplicialTorus,
    SurfaceReport,
    canonical_form,
    canonical_key,
    is_isomorphic,
    load_complex,
    parse_complex,
    validate_surface,
    vertex_link,
)
from .cycles import (
    DistanceLayerReport,
    HomologySignature,
    TorusTypeResult,
    analysis_report,
    bound_strict_gap,
    cut_along_cycle,
    cycle_signature,
    distance_layers,
    enumerate_simple_cycles,
    homology_basis,
    is_separating,
    lower_bound,
    marked_type,
    shortest_nonseparating,
    stick_number_and_type,
)
from .generators import (
    cyclic_symmetry,
    empty_triangle_3k,
    hamiltonian_sequence,
    minimal_torus_3k,
    moebius_torus,
    ring_cycle,
    tube_complex,
)
from .census import (
    CensusRecord,
    census_counts_agree,
    census_verify_theorem31,
    enumerate_tori,
)
from .knots import (
    StickKnot,
    load_stick_knot,
    trefoil_6stick,
    triangle_unknot,
)
from .diagrams import (
    KnotDiagram,
    knot_determinant,
    linking_number,
    polygon_determinant,
    project_diagram,
)
from .realization import (
    ExactRadius,
    Mesh,
    choose_epsilon,
    classify_cycle_in_tube,
    complement_construction,
    core_curve,
    cyclic_polytope_realization,
    export_mesh,
    gale_evenness,
    import_off,
    tube_construction,
    verify_embedding,
)

__version__ = "0.1.0"
