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
name a track from the same document or a catalogue entry via "atlas:NAME".
"#" starts a comment anywhere on a line.  Repeated "moves" keys append.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .atlas import entry
from .errors import BadIndex, InvalidTrack, ParseError, TrackError, UnknownEntry
from .morphism import TrackMorphism
from .splitting import SplitMove, format_sequence, parse_sequence
from .track import Switch, TrainTrack, format_end, is_name, parse_end
from .words import Word, format_word, parse_word

_HEADER_RE = re.compile(r"^\[\s*(track|switch|map|sequence)\s+([^\s\]]+)\s*\]$")


@dataclass
class Document:
    tracks: dict[str, TrainTrack] = field(default_factory=dict)
    maps: dict[str, TrackMorphism] = field(default_factory=dict)
    sequences: dict[str, tuple[SplitMove, ...]] = field(default_factory=dict)


class _TrackBuilder:
    def __init__(self, name: str, line: int):
        self.name = name
        self.line = line
        self.edges: tuple[str, ...] | None = None
        self.boundaries: list[tuple[str, Word]] = []
        self.switches: list[Switch] = []

    def finish(self) -> TrainTrack:
        if self.edges is None:
            raise ParseError(f"track {self.name!r} has no edges line",
                             line=self.line)
        try:
            return TrainTrack(self.name, self.edges, tuple(self.switches),
                              tuple(self.boundaries))
        except InvalidTrack as err:
            raise ParseError(f"track {self.name!r}: {err}",
                             line=self.line) from None


class _SwitchBuilder:
    def __init__(self, name: str, line: int):
        self.name = name
        self.line = line
        self.side_a: tuple | None = None
        self.side_b: tuple | None = None

    def finish(self) -> Switch:
        if self.side_a is None or self.side_b is None:
            raise ParseError(f"switch {self.name!r} needs side_a and side_b",
                             line=self.line)
        return Switch(self.name, self.side_a, self.side_b)


def _parse_side(value: str, line: int) -> tuple:
    return tuple(parse_end(tok, line) for tok in value.split())


def parse_document(text: str) -> Document:
    doc = Document()
    open_track: _TrackBuilder | None = None
    open_switch: _SwitchBuilder | None = None
    # (name, line, keys) triples resolved once all tracks are known
    raw_maps: list[tuple[str, int, dict[str, tuple[int, str]]]] = []
    raw_seqs: list[tuple[str, int, list[tuple[int, str]]]] = []
    section: tuple[str, object] | None = None

    def close_switch():
        nonlocal open_switch
        if open_switch is not None:
            if open_track is None:
                raise ParseError("switch section outside any track",
                                 line=open_switch.line)
            open_track.switches.append(open_switch.finish())
            open_switch = None

    def close_track():
        nonlocal open_track
        close_switch()
        if open_track is not None:
            t = open_track.finish()
            if t.name in doc.tracks:
                raise ParseError(f"duplicate track {t.name!r}",
                                 line=open_track.line)
            doc.tracks[t.name] = t
            open_track = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if not body:
            continue
        if body.startswith("["):
            m = _HEADER_RE.match(body)
            if not m:
                raise ParseError(f"bad section header {body!r}", line=lineno)
            kind, name = m.group(1), m.group(2)
            if kind == "switch":
                close_switch()
                if open_track is None:
                    raise ParseError("switch section outside any track",
                                     line=lineno)
                open_switch = _SwitchBuilder(name, lineno)
                section = ("switch", open_switch)
            else:
                close_track()
                if kind == "track":
                    open_track = _TrackBuilder(name, lineno)
                    section = ("track", open_track)
                elif kind == "map":
                    if any(name == n for n, _, _ in raw_maps):
                        raise ParseError(f"duplicate map {name!r}", line=lineno)
                    raw_maps.append((name, lineno, {}))
                    section = ("map", raw_maps[-1][2])
                else:
                    if any(name == n for n, _, _ in raw_seqs):
                        raise ParseError(f"duplicate sequence {name!r}",
                                         line=lineno)
                    raw_seqs.append((name, lineno, []))
                    section = ("sequence", raw_seqs[-1][2])
            continue
        if "=" not in body:
            raise ParseError(f"expected 'key = value', got {body!r}",
                             line=lineno)
        key, _, value = body.partition("=")
        key = key.strip()
        value = value.strip()
        if section is None:
            raise ParseError("data line before any section header", line=lineno)
        skind, store = section
        if skind == "track":
            tb: _TrackBuilder = store  # type: ignore[assignment]
            if key == "edges":
                if tb.edges is not None:
                    raise ParseError("edges given twice", line=lineno)
                tb.edges = tuple(value.split())
            elif key.startswith("boundary"):
                parts = key.split()
                if len(parts) != 2:
                    raise ParseError("boundary lines read 'boundary NAME = word'",
                                     line=lineno)
                tb.boundaries.append((parts[1], parse_word(value, lineno)))
            else:
                raise ParseError(f"unknown track key {key!r}", line=lineno)
        elif skind == "switch":
            sb: _SwitchBuilder = store  # type: ignore[assignment]
            if key == "side_a":
                sb.side_a = _parse_side(value, lineno)
            elif key == "side_b":
                sb.side_b = _parse_side(value, lineno)
            else:
                raise ParseError(f"unknown switch key {key!r}", line=lineno)
        elif skind == "map":
            entries: dict[str, tuple[int, str]] = store  # type: ignore[assignment]
            if key in entries:
                raise ParseError(f"duplicate map key {key!r}", line=lineno)
            entries[key] = (lineno, value)
        else:
            lines: list[tuple[int, str]] = store  # type: ignore[assignment]
            if key != "moves":
                raise ParseError(f"unknown sequence key {key!r}", line=lineno)
            lines.append((lineno, value))

    close_track()

    for name, header_line, entries in raw_maps:
        doc.maps[name] = _finish_map(name, header_line, entries, doc)
    for name, header_line, lines in raw_seqs:
        moves: list[SplitMove] = []
        for lineno, value in lines:
            moves.extend(parse_sequence(value, line=lineno))
        doc.sequences[name] = tuple(moves)
    return doc


def _resolve_doc_track(ref: str, doc: Document, line: int) -> TrainTrack:
    if ref.startswith("atlas:"):
        return _atlas_entry(ref, "track", ParseError, line=line)
    if ref not in doc.tracks:
        raise ParseError(f"unknown track {ref!r}", line=line)
    return doc.tracks[ref]


def _finish_map(name: str, header_line: int,
                entries: dict[str, tuple[int, str]], doc: Document) -> TrackMorphism:
    if "source" not in entries or "target" not in entries:
        raise ParseError(f"map {name!r} needs source and target",
                         line=header_line)
    src_line, src_ref = entries.pop("source")
    tgt_line, tgt_ref = entries.pop("target")
    source = _resolve_doc_track(src_ref, doc, src_line)
    target = _resolve_doc_track(tgt_ref, doc, tgt_line)
    images = {}
    for lab, (lineno, value) in entries.items():
        images[lab] = parse_word(value, lineno)
    try:
        return TrackMorphism(source, target, images, name=name)
    except TrackError as err:  # coverage and edge errors carry no line
        raise ParseError(f"map {name!r}: {err}", line=header_line) from None


# ----------------------------------------------------------------------
# writers (parse_document inverses, deterministic)


def _header(kind: str, name: str) -> str:
    """The section header `[kind name]`.  Raises BadIndex for a name that
    parse_document would not read back: empty, or holding whitespace, ']'
    or '#'."""
    if not is_name(name):
        raise BadIndex(f"{kind} name {name!r} cannot head a section: names "
                       "are non-empty, without whitespace, ']' or '#'")
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


def dump_map(m: TrackMorphism, name: str | None = None,
             source_ref: str | None = None, target_ref: str | None = None) -> str:
    out = [
        _header("map", name or m.name or "map"),
        f"source = {source_ref or m.source.name}",
        f"target = {target_ref or m.target.name}",
    ]
    for lab, w in m.images:
        out.append(f"{lab} = {format_word(w)}")
    return "\n".join(out) + "\n"


def dump_sequence(moves, name: str = "seq") -> str:
    return f"{_header('sequence', name)}\nmoves = {format_sequence(moves)}\n"


def dump_document(doc: Document) -> str:
    parts = [dump_track(t) for t in doc.tracks.values()]
    parts += [dump_map(m, name) for name, m in doc.maps.items()]
    parts += [dump_sequence(s, name) for name, s in doc.sequences.items()]
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
    kind is not `kind`."""
    found, value = entry(spec[len("atlas:"):])
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
