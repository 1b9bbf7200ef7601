"""Train-track calculus: labelled ribbon graphs, splitting moves, and
certificates for the self maps they carry."""

from .boundary import (
    BoundaryAction,
    CurveImage,
    PeriodicPoint,
    SideDynamics,
    SideOrbit,
    boundary_action,
    side_dynamics,
)
from .certify import Certificate, certify, render_text, to_json_dict
from .errors import (
    AlignmentError,
    BadIndex,
    BoundaryNotPreserved,
    ChainMismatch,
    IllegalMove,
    InconsistentConstraints,
    InvalidMorphism,
    InvalidTrack,
    NoConvergence,
    NotAnIdentification,
    NotASelfMap,
    NotIrreducible,
    NotOrientable,
    NotPrimitive,
    ParseError,
    ResourceLimit,
    TrackError,
    UnknownEntry,
)
from .incidence import (
    IncidenceMatrix,
    PerronData,
    dilatation,
    fixed_edge_points,
    incidence_matrix,
    irreducibility,
    primitivity,
)
from .morphism import (
    TrackMorphism,
    compose,
    compose_chain,
    identity_morphism,
    power,
    relabel_morphism,
)
from .search import LoopResult, SearchConfig, replay, search_loops
from .splitting import (
    SplitMove,
    SplitRun,
    apply_sequence,
    apply_split,
    format_sequence,
    legal_splits,
    parse_move,
    parse_sequence,
    unsplit,
)
from .track import (
    BoundaryCurve,
    EulerData,
    Switch,
    TrackIso,
    TrainTrack,
    isomorphisms,
    tracks_equal,
)
from .words import (
    format_word,
    free_reduce,
    inverse,
    parse_word,
    substitute,
)
from . import atlas, fileio

__version__ = "0.1.0"

__all__ = [
    "AlignmentError",
    "BadIndex", "BoundaryAction", "BoundaryCurve",
    "BoundaryNotPreserved", "Certificate", "ChainMismatch", "CurveImage",
    "EulerData", "IllegalMove", "IncidenceMatrix", "InconsistentConstraints",
    "InvalidMorphism", "InvalidTrack", "LoopResult", "NoConvergence",
    "NotASelfMap", "NotIrreducible", "NotOrientable", "NotPrimitive",
    "ParseError", "PeriodicPoint", "PerronData", "ResourceLimit",
    "SearchConfig", "SideDynamics", "SideOrbit", "SplitMove", "SplitRun",
    "Switch", "TrackError", "TrackIso", "TrackMorphism", "TrainTrack",
    "UnknownEntry", "apply_sequence", "apply_split", "atlas",
    "boundary_action", "certify", "compose", "compose_chain", "dilatation",
    "fileio", "fixed_edge_points", "format_sequence", "format_word",
    "free_reduce", "identity_morphism", "incidence_matrix", "inverse",
    "irreducibility", "isomorphisms", "legal_splits", "parse_move",
    "parse_sequence", "parse_word", "power", "primitivity",
    "relabel_morphism", "render_text", "replay", "search_loops",
    "side_dynamics", "substitute", "to_json_dict", "tracks_equal", "unsplit",
]
