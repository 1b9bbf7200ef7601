"""Command line front end.

Anywhere a SPEC is expected it may be a file path, "FILE#NAME" to pick one
entry out of a multi-entry file, or "atlas:NAME" for a catalogue entry.

Exit codes: 0 success, 1 semantic failure (invalid track, failed check,
search budget exceeded), 2 usage or input errors (bad syntax, unknown
entry, unreadable file, a tolerance that is not finite and positive, a
search depth out of range), 3 a verdict that disagrees with `--expect`.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import atlas as _atlas
from .boundary import boundary_action
from .certify import certify, render_text, to_json_dict
from .errors import BadIndex, NotASelfMap, ParseError, TrackError, UnknownEntry
from .fileio import (
    Document,
    dump_document,
    dump_map,
    dump_sequence,
    dump_track,
    resolve_map,
    resolve_sequence,
    resolve_track,
    track_to_dot,
)
from .incidence import (
    check_tolerance,
    dilatation,
    fraction_text,
    incidence_matrix,
)
from .morphism import TrackMorphism, compose_chain
from .search import MAX_DEPTH, MAX_NODES, SearchConfig, search_loops
from .splitting import apply_sequence, format_sequence, legal_splits
from .track import EulerData, TrainTrack, format_end, tracks_equal
from .words import format_word


def _emit(output, out: str | None) -> None:
    """Print a command's output, to FILE for `--out FILE`: text as it is,
    anything else as JSON, each ending in one newline."""
    if not isinstance(output, str):
        output = json.dumps(output, indent=2, sort_keys=True)
    text = output if output.endswith("\n") else output + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _track_dict(t: TrainTrack) -> dict:
    return {
        "name": t.name,
        "edges": list(t.edges),
        "switches": [
            {
                "name": sw.name,
                "sideA": [format_end(e) for e in sw.side_a],
                "sideB": [format_end(e) for e in sw.side_b],
            }
            for sw in t.switches
        ],
    }


def _euler_dict(d: EulerData) -> dict:
    return {
        "switches": d.n_switches,
        "edges": d.n_edges,
        "chi": d.chi,
        "boundaries": d.n_boundaries,
        "genus": d.genus,
        "totalBoundaryLength": d.total_boundary_length,
        "cuspCounts": list(d.cusp_counts),
        "coherentlyOrientable": d.coherently_orientable,
    }


# ----------------------------------------------------------------------
# track commands


def cmd_track_validate(args):
    t = resolve_track(args.spec)
    data = t.validate()
    if args.json:
        return {"ok": True, "name": t.name, **_euler_dict(data)}
    return (f"ok: {t.name} is a valid track "
            f"({data.n_edges} edges, {data.n_switches} switches, "
            f"chi = {data.chi}, genus = {data.genus}, "
            f"{data.n_boundaries} boundary curves)")


def cmd_track_info(args):
    t = resolve_track(args.spec)
    data = t.validate()
    moves = legal_splits(t)
    if args.json:
        payload = _track_dict(t)
        payload.update(_euler_dict(data))
        payload["legalSplits"] = [str(m) for m in moves]
        payload["sideProfile"] = list(t.side_profile)
        return payload
    lines = [
        f"track {t.name}: {data.n_edges} edges, {data.n_switches} switches",
        f"chi = {data.chi}, boundary curves = {data.n_boundaries}, "
        f"genus = {data.genus}",
        "cusps per curve: " + " ".join(str(c) for c in data.cusp_counts),
        f"coherently orientable: {'yes' if data.coherently_orientable else 'no'}",
        f"legal splits: {len(moves)}",
    ]
    return "\n".join(lines)


def cmd_track_boundaries(args):
    t = resolve_track(args.spec)
    curves = t.boundary_curves
    if args.json:
        return [
            {
                "word": format_word(c.word),
                "cusps": list(c.cusps),
                "sides": [format_word(s) for s in c.sides],
            }
            for c in curves
        ]
    lines = []
    for idx, c in enumerate(curves):
        lines.append(f"curve {idx}: {format_word(c.word)}")
        lines.append(f"  cusps at {' '.join(str(p) for p in c.cusps)}"
                     f" ({c.n_cusps} total)")
    return "\n".join(lines)


def cmd_track_export_dot(args):
    t = resolve_track(args.spec)
    return track_to_dot(t)


def cmd_track_export(args):
    t = resolve_track(args.spec)
    return dump_track(t)


# ----------------------------------------------------------------------
# map commands


def cmd_map_check(args):
    m = resolve_map(args.spec)
    m.check()
    if args.json:
        return {"ok": True, "name": m.name, "source": m.source.name,
                "target": m.target.name, "selfMap": m.is_self_map}
    return (f"ok: {m.name or 'map'} is cellular and smooth "
            f"({m.source.name} -> {m.target.name})")


def cmd_map_certify(args):
    m = resolve_map(args.spec)
    cert = certify(m, tol=args.tol)
    output = to_json_dict(cert) if args.json else render_text(cert)
    if args.expect and cert.verdict != args.expect:
        return (output,
                f"expected verdict {args.expect!r}, got {cert.verdict!r}", 3)
    return output


def cmd_map_dilatation(args):
    m = resolve_map(args.spec)
    check_tolerance(args.tol)  # exit 2 on a bad --tol, as certify does
    if not m.is_self_map:
        raise NotASelfMap("dilatation needs a self map")
    mat = incidence_matrix(m)
    perron = dilatation(mat, tol=args.tol)
    if args.json:
        return {
            "value": perron.value,
            "lower": fraction_text(perron.lower),
            "upper": fraction_text(perron.upper),
            "iterations": perron.iterations,
            "weights": dict(zip(mat.rows, perron.weights)),
        }
    return (f"dilatation = {perron.value:.12f}\n"
            f"certified bracket [{fraction_text(perron.lower)}, "
            f"{fraction_text(perron.upper)}] "
            f"(width {float(perron.width):.3e}, "
            f"{perron.iterations} iterations)")


def cmd_map_compose(args):
    ms = [resolve_map(s) for s in args.specs]
    comp = compose_chain(ms)
    return dump_map(comp, name=args.name or comp.name or "composite")


def cmd_map_boundaries(args):
    m = resolve_map(args.spec)
    action = boundary_action(m)
    if args.json:
        return {
            "curves": [
                {
                    "source": ci.source_index,
                    "target": ci.target_index,
                    "rotation": ci.rotation,
                    "cuspShift": ci.cusp_shift,
                    "foldDepths": list(ci.fold_depths),
                }
                for ci in action.curves
            ],
            "warnings": list(action.warnings),
        }
    lines = [f"curve {ci.source_index} -> curve {ci.target_index}, rotation "
             f"{ci.rotation}, {ci.shift_text}" for ci in action.curves]
    lines += [f"warning: {w}" for w in action.warnings]
    return "\n".join(lines)


# ----------------------------------------------------------------------
# sequence commands


def cmd_seq_parse(args):
    moves = resolve_sequence(args.spec)
    if args.json:
        return [str(m) for m in moves]
    return f"{len(moves)} moves: {format_sequence(moves)}"


def cmd_seq_apply(args):
    t = resolve_track(args.track)
    moves = resolve_sequence(args.spec)
    run = apply_sequence(t, moves)
    start = t.renamed("start")
    final = run.final.renamed("final")
    comp = TrackMorphism(final, start, run.morphism.images, name="composite")
    if args.json:
        return {
            "moves": len(moves),
            "final": _track_dict(final),
            "composite": {lab: format_word(w) for lab, w in comp.images},
        }
    return dump_document(Document({"start": start, "final": final},
                                  {"composite": comp}))


# ----------------------------------------------------------------------
# atlas commands


def cmd_atlas_list(args):
    names = _atlas.atlas_names()
    if args.json:
        return {n: _atlas.describe(n) for n in names}
    width = max(len(n) for n in names)
    return "\n".join(f"{n:<{width}}  {_atlas.describe(n)}" for n in names)


def cmd_atlas_export(args):
    kind, entry = _atlas.entry(args.name)
    if kind == "track":
        return dump_track(entry)
    if kind == "map":
        if args.json:
            return {"name": entry.name, "source": entry.source.name,
                    "target": entry.target.name,
                    "images": {lab: format_word(w) for lab, w in entry.images}}
        tracks = {entry.source.name: entry.source}
        tracks.setdefault(entry.target.name, entry.target)
        return dump_document(Document(tracks, {entry.name: entry}))
    if kind == "labels":
        return "\n".join(f"{k} -> {v}" for k, v in sorted(entry.items()))
    if kind == "word":
        return format_word(entry)
    return dump_sequence(entry, name=args.name.replace(":", "_"))


def cmd_atlas_reconstruct(args):
    rebuilt = _atlas.reconstruct_base_track()
    stored = _atlas.base_track()
    same = tracks_equal(rebuilt, stored)
    if args.json:
        output = {"matches": same, "track": _track_dict(rebuilt)}
    else:
        verdict = "matches" if same else "DIFFERS FROM"
        output = f"reconstruction {verdict} the stored base track"
    return output, "", 0 if same else 1


# ----------------------------------------------------------------------
# search


def cmd_search_loops(args):
    t = resolve_track(args.spec)
    cfg = SearchConfig(
        max_depth=args.depth,
        certify=not args.no_certify,
        max_nodes=args.max_nodes,
        require_fixed_point_free=args.fpf,
        require_irreducible=args.irreducible,
    )
    results = search_loops(t, cfg)
    if args.out_dir:
        os.makedirs(args.out_dir, exist_ok=True)
        for idx, r in enumerate(results, start=1):
            stem = f"loop-{idx:03d}"
            parts = [dump_sequence(r.sequence, name=stem),
                     dump_track(r.final.renamed("final"))]
            for j, sm in enumerate(r.self_maps, start=1):
                parts.append(dump_map(sm, name=f"{stem}-self-{j}",
                                      source_ref="final",
                                      target_ref="final"))
            with open(os.path.join(args.out_dir, stem + ".tt"), "w",
                      encoding="utf-8") as fh:
                fh.write("\n".join(parts))
    if args.json:
        payload = []
        for r in results:
            entry = {
                "sequence": [str(m) for m in r.sequence],
                "depth": r.depth,
                "identifications": [i.labels for i in r.identifications],
                "selfMaps": [
                    {lab: format_word(w) for lab, w in sm.images}
                    for sm in r.self_maps
                ],
            }
            if r.certificates:
                entry["verdicts"] = [c.verdict for c in r.certificates]
            payload.append(entry)
        return payload
    lines = [f"found {len(results)} loop(s) from {t.name} "
             f"at depth <= {args.depth}"]
    for idx, r in enumerate(results, start=1):
        bits = f"loop {idx}: {r.notation}  [depth {r.depth}, " \
               f"{len(r.identifications)} identification(s)"
        if r.certificates:
            bits += ", verdicts: " + ", ".join(c.verdict for c in r.certificates)
        lines.append(bits + "]")
    if args.out_dir:
        lines.append(f"wrote {len(results)} file(s) under {args.out_dir}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# parser


_JSON = {"--json": {"action": "store_true", "help": "JSON output"}}
_OUT = {"--out": {"metavar": "FILE", "help": "write output to FILE"}}
_COMMON = {**_JSON, **_OUT}
_TOL = {"--tol": {"type": float, "default": 1e-10,
                  "help": "certified bracket width (default 1e-10)"}}


def _spec_for(what: str) -> dict:
    return {"spec": {"help": f"{what} file, FILE#NAME, or atlas:NAME"}}


# group, its help, then per subcommand: name, handler, and the arguments
# as flag -> add_argument keywords, in the order they are added
_COMMANDS = (
    ("track", "inspect and validate tracks", [
        (name, fn, {**_spec_for("track"), **flags}) for name, fn, flags in (
            ("validate", cmd_track_validate, _COMMON),
            ("info", cmd_track_info, _COMMON),
            ("boundaries", cmd_track_boundaries, _COMMON),
            ("export", cmd_track_export, _OUT),  # a document: no --json
            ("export-dot", cmd_track_export_dot, _OUT),
        )]),
    ("map", "check, certify, and compose maps", [
        ("check", cmd_map_check, {**_spec_for("map"), **_COMMON}),
        ("certify", cmd_map_certify, {
            **_spec_for("map"), **_COMMON, **_TOL, "--expect": {
                "choices": ["pA", "reducible", "inconclusive"],
                "help": "exit 3 unless the verdict matches"}}),
        ("dilatation", cmd_map_dilatation,
         {**_spec_for("map"), **_COMMON, **_TOL}),
        ("boundaries", cmd_map_boundaries, {**_spec_for("map"), **_COMMON}),
        ("compose", cmd_map_compose, {
            "specs": {"nargs": "+", "help": "maps, outermost first"},
            "--name": {"help": "name for the composite"}, **_OUT}),
    ]),
    ("seq", "parse and apply splitting sequences", [
        ("parse", cmd_seq_parse, {**_spec_for("sequence"), **_COMMON}),
        ("apply", cmd_seq_apply, {"track": {"help": "starting track"},
                                  "spec": {"help": "sequence to apply"},
                                  **_COMMON}),
    ]),
    ("atlas", "built-in catalogue", [
        ("list", cmd_atlas_list, _COMMON),
        ("export", cmd_atlas_export, {
            "name": {"help": "catalogue entry, e.g. tau or phi:5"}, **_COMMON}),
        ("reconstruct", cmd_atlas_reconstruct, _COMMON),
    ]),
    ("search", "enumerate splitting loops", [
        ("loops", cmd_search_loops, {
            "spec": {"help": "seed track"},
            "--depth": {"type": int, "default": 4,
                        "help": "most moves in a loop, 0 to "
                                f"{MAX_DEPTH} (default 4)"},
            "--max-nodes": {"type": int, "default": MAX_NODES,
                            "help": "stop after expanding this many tracks, "
                                    "at least 1 (default "
                                    f"{MAX_NODES})"},
            "--no-certify": {"action": "store_true",
                             "help": "skip certifying the loop self maps"},
            "--fpf": {"action": "store_true",
                      "help": "emit only fixed point free closures"},
            "--irreducible": {"action": "store_true",
                              "help": "emit only closures with irreducible "
                                      "matrix"},
            **_JSON,
            "--out": {"metavar": "DIR", "dest": "out_dir",
                      "help": "write one result file per loop under DIR"}}),
    ]),
)


def build_parser(argv=()) -> argparse.ArgumentParser:
    """The command tree; if argv starts with a group and one of its commands,
    only that group's commands, and only that command's arguments."""
    named = tuple(argv[:2])
    if named not in {(g, c[0]) for g, _, cs in _COMMANDS for c in cs}:
        named = None
    parser = argparse.ArgumentParser(
        prog="ttlab",
        description="train track calculus: tracks, splittings, certificates",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for group, about, commands in _COMMANDS:
        gp = sub.add_parser(group, help=about)
        if named and named[0] != group:
            continue
        gsub = gp.add_subparsers(dest="subcommand", required=True)
        for name, fn, arguments in commands:
            p = gsub.add_parser(name)
            if named in (None, (group, name)):
                for flag, keywords in arguments.items():
                    p.add_argument(flag, **keywords)
            p.set_defaults(func=fn)
    return parser


def main(argv=None) -> int:
    """Run a command and print what it returns: its output (text or a JSON
    payload), or (output, note for stderr, exit code) when it may not exit
    0.  Returns the exit code."""
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv).parse_args(argv)
    try:
        result = args.func(args)
        output, note, code = (result if isinstance(result, tuple)
                              else (result, "", 0))
        _emit(output, getattr(args, "out", None))
    except (ParseError, UnknownEntry, BadIndex, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except TrackError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    if note:
        print(note, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
