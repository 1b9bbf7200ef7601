"""Assemble a certificate for a track self map.

The verdict logic:

  reducible     the incidence digraph is not strongly connected; the
                certificate carries an out-closed proper edge set as witness
  pA            irreducible, primitive, and every side orbit of the boundary
                carries exactly one interior periodic point, none degenerate
  inconclusive  anything else

Only a self map of a connected track is certified; a disconnected one
raises InvalidTrack, as genus does.

A map is certified fixed point free when no edge image runs over its own
edge, every side orbit has period at least two, and the side dynamics is
not degenerate.  Both boundary readings are reported: each boundary circle
as a puncture with its cusp count of prongs, or filled in as a cone point.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .boundary import BoundaryAction, SideDynamics, boundary_action, side_dynamics
from .errors import InvalidTrack, NoConvergence, NotASelfMap, TrackError
from .incidence import (
    IncidenceMatrix,
    IrreducibilityReport,
    PerronData,
    PrimitivityReport,
    check_tolerance,
    decimal_text,
    dilatation,
    fixed_edge_points,
    incidence_matrix,
    irreducibility,
    primitivity,
)
from .morphism import TrackMorphism

SCHEMA = "ttlab/1"

VERDICT_PA = "pA"
VERDICT_REDUCIBLE = "reducible"
VERDICT_INCONCLUSIVE = "inconclusive"


class Certificate(NamedTuple):
    map_name: str
    track_name: str
    matrix: IncidenceMatrix
    fixed_edges: tuple[tuple[str, int], ...]
    irreducibility: IrreducibilityReport
    primitivity: PrimitivityReport | None
    perron: PerronData | None
    boundary: BoundaryAction | None
    sides: SideDynamics | None
    cusp_counts: tuple[int, ...]
    verdict: str
    fixed_point_free: bool | None
    tolerance: float
    warnings: tuple[str, ...]

    @property
    def punctured_reading(self) -> str:
        counts = ", ".join(str(c) for c in self.cusp_counts)
        n = len(self.cusp_counts)
        return f"punctured: {n} boundary punctures with ({counts}) prongs"

    @property
    def closed_reading(self) -> str:
        if any(c < 3 for c in self.cusp_counts):
            low = min(self.cusp_counts)
            return (
                f"closed: not admissible, filling in a boundary would leave a "
                f"{low}-pronged point"
            )
        counts = ", ".join(str(c) for c in self.cusp_counts)
        return f"closed: admissible, cone points with ({counts}) prongs"


def certify(m: TrackMorphism, tol: float = 1e-10) -> Certificate:
    check_tolerance(tol)
    if not m.is_self_map:
        raise NotASelfMap("certification needs a self map")
    if not m.source.connected:
        raise InvalidTrack("certification needs a connected track")
    m.check()

    warnings: list[str] = []
    mat = incidence_matrix(m)
    fixed = fixed_edge_points(mat)
    irr = irreducibility(mat)

    prim: PrimitivityReport | None = None
    perron: PerronData | None = None
    if irr.irreducible:
        prim = primitivity(mat)
        if prim.primitive:
            try:
                perron = dilatation(mat, tol=tol)
            except NoConvergence as exc:
                warnings.append(f"dilatation: {exc}")
        else:
            warnings.append("matrix is irreducible but not primitive (periodic)")

    action: BoundaryAction | None = None
    sides: SideDynamics | None = None
    try:
        action = boundary_action(m)
    except TrackError as exc:
        warnings.append(f"boundary action unavailable: {exc}")
    if action is not None:
        try:
            sides = side_dynamics(m, action)
        except TrackError as exc:
            warnings.append(f"side dynamics unavailable: {exc}")

    curves = m.source.boundary_curves
    cusp_counts = tuple(c.n_cusps for c in curves)

    if not irr.irreducible:
        verdict = VERDICT_REDUCIBLE
    elif (
        prim is not None
        and prim.primitive
        and sides is not None
        and not sides.degenerate
        and sides.single_point_per_side
        and sides.boundary_points == 0
    ):
        verdict = VERDICT_PA
    else:
        verdict = VERDICT_INCONCLUSIVE

    if sides is not None:
        fpf = (
            not fixed
            and all(o.period >= 2 for o in sides.orbits)
            and not sides.degenerate
        )
    else:
        fpf = None
    if action is not None:
        warnings.extend(action.warnings)
    if sides is not None:
        warnings.extend(sides.warnings)

    return Certificate(
        map_name=m.name or "(unnamed)",
        track_name=m.source.name,
        matrix=mat,
        fixed_edges=fixed,
        irreducibility=irr,
        primitivity=prim,
        perron=perron,
        boundary=action,
        sides=sides,
        cusp_counts=cusp_counts,
        verdict=verdict,
        fixed_point_free=fpf,
        tolerance=tol,
        warnings=tuple(warnings),
    )


# ----------------------------------------------------------------------
# rendering


def _fraction_str(f: Fraction) -> str:
    return f"{decimal_text(f.numerator)}/{decimal_text(f.denominator)}"


def render_text(cert: Certificate) -> str:
    lines = []
    lines.append(f"map: {cert.map_name} on track {cert.track_name}")
    lines.append(f"edges: {' '.join(cert.matrix.rows)}")
    lines.append("incidence matrix (rows = source edges):")
    for lab, row in zip(cert.matrix.rows, cert.matrix.data):
        lines.append(f"  {lab}: " + " ".join(str(x) for x in row))
    if cert.fixed_edges:
        fe = ", ".join(f"{lab} (x{c})" for lab, c in cert.fixed_edges)
        lines.append(f"edges mapping over themselves: {fe}")
    else:
        lines.append("edges mapping over themselves: none")
    if cert.irreducibility.irreducible:
        lines.append("irreducible: yes")
    else:
        lines.append(
            "irreducible: no, invariant edge set {"
            + " ".join(cert.irreducibility.witness)
            + "}"
        )
    if cert.primitivity is not None:
        if cert.primitivity.primitive:
            lines.append(f"primitive: yes (exponent {cert.primitivity.exponent})")
        else:
            lines.append(f"primitive: no (checked to {cert.primitivity.bound})")
    if cert.perron is not None:
        p = cert.perron
        lines.append(
            f"dilatation: {p.value:.12f} in "
            f"[{_fraction_str(p.lower)}, {_fraction_str(p.upper)}], "
            f"width < {cert.tolerance:g} ({p.iterations} iterations)"
        )
        lines.append(
            "weights: " + " ".join(f"{w:.9f}" for w in p.weights)
        )
    if cert.boundary is not None:
        for i, ci in enumerate(cert.boundary.curves):
            folds = "".join(f" {d}" for d in ci.fold_depths)  # one per cusp
            lines.append(f"boundary {i} -> {ci.target_index}, "
                         f"rotation {ci.rotation} letters, {ci.shift_text}"
                         + (f", fold depths{folds}" if folds else ""))
    if cert.sides is not None:
        for orbit in cert.sides.orbits:
            path = " -> ".join(f"{c}.{s}" for c, s in orbit.sides)
            lines.append(
                f"side orbit [{path}] period {orbit.period}, "
                "points per side: "
                + " ".join(str(c) for c in orbit.counts)
            )
            for pt in orbit.points:
                lines.append(
                    f"  side {pt.curve}.{pt.side}: point in letter "
                    f"{pt.marked_labels[0]} ({pt.letter}), letters "
                    + " -> ".join(pt.marked_labels)
                )
                lines.append(f"    {pt.rendered}")
        lines.append(f"boundary periodic points: {cert.sides.total_points}")
    lines.append(f"fixed point free: {_yn(cert.fixed_point_free)}")
    lines.append(cert.punctured_reading)
    lines.append(cert.closed_reading)
    for w in cert.warnings:
        lines.append(f"warning: {w}")
    lines.append(f"verdict: {cert.verdict}")
    return "\n".join(lines) + "\n"


def _yn(v) -> str:
    if v is None:
        return "unknown"
    return "yes" if v else "no"


def to_json_dict(cert: Certificate) -> dict:
    d: dict = {
        "schema": SCHEMA,
        "map": cert.map_name,
        "track": cert.track_name,
        "edges": list(cert.matrix.rows),
        "matrix": [list(r) for r in cert.matrix.data],
        "fixedEdges": [[lab, c] for lab, c in cert.fixed_edges],
        "irreducible": cert.irreducibility.irreducible,
        "invariantWitness": list(cert.irreducibility.witness),
        "verdict": cert.verdict,
        "fixedPointFree": cert.fixed_point_free,
        "cuspCounts": list(cert.cusp_counts),
        "puncturedReading": cert.punctured_reading,
        "closedReading": cert.closed_reading,
        "tolerance": cert.tolerance,
        "warnings": list(cert.warnings),
    }
    d["primitive"] = cert.primitivity.primitive if cert.primitivity else None
    d["primitivityExponent"] = (
        cert.primitivity.exponent if cert.primitivity else None
    )
    if cert.perron:
        d["dilatation"] = {
            "value": cert.perron.value,
            "lower": _fraction_str(cert.perron.lower),
            "upper": _fraction_str(cert.perron.upper),
            "iterations": cert.perron.iterations,
            "weights": list(cert.perron.weights),
        }
    else:
        d["dilatation"] = None
    if cert.boundary:
        d["boundary"] = [
            {
                "source": i,
                "target": ci.target_index,
                "rotation": ci.rotation,
                "cuspImages": list(ci.cusp_images),
                "cuspShift": ci.cusp_shift,
                "foldDepths": list(ci.fold_depths),
            }
            for i, ci in enumerate(cert.boundary.curves)
        ]
    else:
        d["boundary"] = None
    if cert.sides:
        d["sideOrbits"] = [
            {
                "sides": [list(s) for s in o.sides],
                "period": o.period,
                "offsets": list(o.bracket_offsets),
                "counts": list(o.counts),
                "points": [
                    {
                        "side": [pt.curve, pt.side],
                        "letter": pt.letter,
                        "label": pt.marked_labels[0],
                        "letters": list(pt.marked_labels),
                        "rendered": pt.rendered,
                    }
                    for pt in o.points
                ],
            }
            for o in cert.sides.orbits
        ]
        d["boundaryPeriodicPoints"] = cert.sides.total_points
    else:
        d["sideOrbits"] = None
        d["boundaryPeriodicPoints"] = None
    return d
