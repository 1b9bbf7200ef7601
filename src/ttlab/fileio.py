"""Plain-text file formats for tracks, maps, and splitting sequences.

One document can hold any mix of sections:

    [track tau]
    edges = a b c d e f g h i j k l
    boundary d1 = i j -h -d e a -c -l b f -g -k

    [switch v1]
    side_a = t(l) t(e)
    side_b = i(c) i(a)

    [map phi1]
    source = tau
    target = tau
    a = k
    b = f i j

    [sequence s1]
    moves = i(b)/t(l); t(b)/i(d)

Switch sections attach to the most recent [track].  Map sources and targets
name a track from the same document or a catalogue entry via "atlas:NAME";
maps resolve once every track is read, so a map may precede its track.
"#" starts a comment anywhere on a line.  Each "moves" line appends to its
sequence; a repeated "edges", "side_a", "side_b" or map key is an error, as
is a repeated track, switch, map or sequence name.
"""

from __future__ import annotations

import re
from collections import defaultdict

from .atlas import entry
from .errors import BadIndex, InvalidTrack, ParseError, TrackError, UnknownEntry
from .morphism import TrackMorphism
from .splitting import SplitMove, format_sequence, parse_sequence
from .track import NAME_RULE, Switch, TrainTrack, format_end, is_name, parse_end
from .words import format_word, parse_word

_HEADER_RE = re.compile(r"^\[\s*(track|switch|map|sequence)\s+([^\s\]]+)\s*\]$")


class Document:
    """The tracks, maps and sequences of one document, by name."""

    def __init__(self, tracks=None, maps=None, sequences=None):
        self.tracks: dict[str, TrainTrack] = {} if tracks is None else tracks
        self.maps: dict[str, TrackMorphism] = {} if maps is None else maps
        self.sequences: dict[str, tuple[SplitMove, ...]] = (
            {} if sequences is None else sequences)


def parse_document(text: str) -> Document:
    doc = Document()
    # open sections as (kind, name, header line, data), outermost first: a
    # track and its switch, or one map or sequence
    stack: list[tuple[str, str, int, defaultdict]] = []
    # map and sequence data by name, built once every track is known
    later: dict[str, dict[str, tuple[int, defaultdict]]] = {"map": {}, "sequence": {}}

    def close():
        kind, name, line, data = stack.pop()
        if kind == "switch":
            if "side_a" not in data or "side_b" not in data:
                raise ParseError(f"switch {name!r} needs side_a and side_b",
                                 line=line)
            stack[-1][3]["switches"].append(
                Switch(name, data["side_a"], data["side_b"]))
        elif kind == "track":
            if "edges" not in data:
                raise ParseError(f"track {name!r} has no edges line", line=line)
            try:
                track = TrainTrack(name, data["edges"], tuple(data["switches"]),
                                   tuple(data["boundaries"]))
            except InvalidTrack as err:
                raise ParseError(f"track {name!r}: {err}", line=line) from None
            if name in doc.tracks:
                raise ParseError(f"duplicate track {name!r}", line=line)
            doc.tracks[name] = track
        else:
            later[kind][name] = (line, data)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if not body:
            continue
        if body.startswith("["):
            m = _HEADER_RE.match(body)
            if not m:
                raise ParseError(f"bad section header {body!r}", line=lineno)
            kind, name = m.groups()
            # a switch header closes only an open switch, any other all
            while stack and (kind != "switch" or stack[-1][0] == "switch"):
                close()
            if kind == "switch" and (not stack or stack[-1][0] != "track"):
                raise ParseError("switch section outside any track", line=lineno)
            if name in later.get(kind, ()):
                raise ParseError(f"duplicate {kind} {name!r}", line=lineno)
            stack.append((kind, name, lineno, defaultdict(list)))
            continue
        if "=" not in body:
            raise ParseError(f"expected 'key = value', got {body!r}",
                             line=lineno)
        key, _, value = body.partition("=")
        key, value = key.strip(), value.strip()
        if not stack:
            raise ParseError("data line before any section header", line=lineno)
        kind, _, _, data = stack[-1]
        if kind == "map":
            if key in data:
                raise ParseError(f"duplicate map key {key!r}", line=lineno)
            data[key] = (lineno, value)
        elif (kind, key) == ("track", "edges"):
            if key in data:
                raise ParseError("edges given twice", line=lineno)
            data[key] = tuple(value.split())
        elif kind == "track" and key.split()[:1] == ["boundary"]:
            parts = key.split()
            if len(parts) != 2:
                raise ParseError("boundary lines read 'boundary NAME = word'",
                                 line=lineno)
            data["boundaries"].append((parts[1], parse_word(value, lineno)))
        elif kind == "switch" and key in ("side_a", "side_b"):
            if key in data:
                raise ParseError(f"{key} given twice", line=lineno)
            data[key] = tuple(parse_end(tok, lineno) for tok in value.split())
        elif (kind, key) == ("sequence", "moves"):
            data[key].append((lineno, value))
        else:
            raise ParseError(f"unknown {kind} key {key!r}", line=lineno)

    while stack:
        close()
    for name, (line, data) in later["map"].items():
        if "source" not in data or "target" not in data:
            raise ParseError(f"map {name!r} needs source and target", line=line)
        src_line, src_ref = data.pop("source")
        tgt_line, tgt_ref = data.pop("target")
        source = _resolve_doc_track(src_ref, doc, src_line)
        target = _resolve_doc_track(tgt_ref, doc, tgt_line)
        images = {lab: parse_word(value, ln) for lab, (ln, value) in data.items()}
        try:
            doc.maps[name] = TrackMorphism(source, target, images, name=name)
        except TrackError as err:  # coverage and edge errors carry no line
            raise ParseError(f"map {name!r}: {err}", line=line) from None
    for name, (_, data) in later["sequence"].items():
        doc.sequences[name] = tuple(move for ln, value in data["moves"]
                                    for move in parse_sequence(value, line=ln))
    return doc


def _resolve_doc_track(ref: str, doc: Document, line: int) -> TrainTrack:
    if ref.startswith("atlas:"):
        return _atlas_entry(ref, "track", ParseError, line=line)
    if ref not in doc.tracks:
        raise ParseError(f"unknown track {ref!r}", line=line)
    return doc.tracks[ref]


# ----------------------------------------------------------------------
# writers (parse_document inverses, deterministic)


def _header(kind: str, name: str) -> str:
    """The section header `[kind name]`.  Raises BadIndex for a name that
    parse_document would not read back (NAME_RULE)."""
    if not is_name(name):
        raise BadIndex(f"{kind} name {name!r} cannot head a section: "
                       f"{NAME_RULE}")
    return f"[{kind} {name}]"


def dump_track(track: TrainTrack) -> str:
    out = [_header("track", track.name), "edges = " + " ".join(track.edges)]
    for bname, word in track.declared_boundaries:
        out.append(f"boundary {bname} = {format_word(word)}")
    for sw in track.switches:
        out.append("")
        out.append(_header("switch", sw.name))
        out.append("side_a = " + " ".join(format_end(e) for e in sw.side_a))
        out.append("side_b = " + " ".join(format_end(e) for e in sw.side_b))
    return "\n".join(out) + "\n"


def dump_map(m: TrackMorphism, name: str | None = None) -> str:
    out = [
        _header("map", name or m.name or "map"),
        f"source = {m.source.name}",
        f"target = {m.target.name}",
    ]
    for lab, w in m.images:
        out.append(f"{lab} = {format_word(w)}")
    return "\n".join(out) + "\n"


def dump_sequence(moves, name: str = "seq") -> str:
    return f"{_header('sequence', name)}\nmoves = {format_sequence(moves)}\n"


def dump_document(doc: Document) -> str:
    """Sequences, then tracks, then maps, each in its table's order."""
    parts = [dump_sequence(s, name) for name, s in doc.sequences.items()]
    parts += [dump_track(t) for t in doc.tracks.values()]
    parts += [dump_map(m, name) for name, m in doc.maps.items()]
    return "\n".join(parts)


def _dot_string(*lines: str) -> str:
    """A DOT quoted string holding `lines`, joined by DOT's \\n break."""
    return '"' + "\\n".join(
        x.replace("\\", "\\\\").replace('"', '\\"') for x in lines) + '"'


def track_to_dot(track: TrainTrack) -> str:
    """Graphviz rendering: switches as nodes, edges tail i(x) -> head t(x)."""
    out = [f"digraph {_dot_string(track.name)} {{"]
    out.append("  node [shape=circle];")
    for sw in track.switches:
        a = " ".join(format_end(e) for e in sw.side_a)
        b = " ".join(format_end(e) for e in sw.side_b)
        out.append(f"  {_dot_string(sw.name)} "
                   f"[label={_dot_string(sw.name, f'{a} | {b}')}];")
    for lab in track.edges:
        tail = _dot_string(track.switch_of((lab, "i")))
        head = _dot_string(track.switch_of((lab, "t")))
        out.append(f"  {tail} -> {head} [label={_dot_string(lab)}];")
    out.append("}")
    return "\n".join(out) + "\n"


# ----------------------------------------------------------------------
# command-line style resolvers; SPEC is "atlas:NAME", "FILE", or "FILE#NAME"


def _load_doc(path: str) -> Document:
    try:
        with open(path, encoding="utf-8") as fh:
            return parse_document(fh.read())
    except OSError as err:
        raise ParseError(f"cannot read {path!r}: {err.strerror}") from None


def _pick(kind: str, table: dict, name: str | None, path: str):
    if name is not None:
        if name not in table:
            raise UnknownEntry(f"no {kind} named {name!r} in {path!r}")
        return table[name]
    if len(table) == 1:
        return next(iter(table.values()))
    if not table:
        raise UnknownEntry(f"{path!r} holds no {kind}")
    raise UnknownEntry(
        f"{path!r} holds {len(table)} {kind}s; pick one with '#NAME'"
    )


_NOUNS = {"track": "a track", "map": "a map",
          "sequence": "a splitting sequence"}


def _atlas_entry(spec: str, kind: str, error=UnknownEntry, **where):
    """The value of the catalogue entry "atlas:NAME" names; `error` if its
    kind is not `kind`, or if no such entry exists."""
    try:
        found, value = entry(spec[len("atlas:"):])
    except UnknownEntry as err:
        raise error(str(err), **where) from None
    if found != kind:
        raise error(f"{spec!r} is not {_NOUNS[kind]}", **where)
    return value


def _resolve(spec: str, kind: str):
    if spec.startswith("atlas:"):
        return _atlas_entry(spec, kind)
    path, pick, name = spec.partition("#")
    return _pick(kind, getattr(_load_doc(path), kind + "s"),
                 name if pick else None, path)


def resolve_track(spec: str) -> TrainTrack:
    return _resolve(spec, "track")


def resolve_map(spec: str) -> TrackMorphism:
    return _resolve(spec, "map")


def resolve_sequence(spec: str) -> tuple[SplitMove, ...]:
    return _resolve(spec, "sequence")
