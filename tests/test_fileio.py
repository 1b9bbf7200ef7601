"""Text serialisation: dumps, parses, resolvers, dot export."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_track import small_tracks

from ttlab import atlas as A
from ttlab.errors import BadIndex, ParseError, UnknownEntry
from ttlab.fileio import (
    Document,
    dump_document,
    dump_map,
    dump_sequence,
    dump_track,
    parse_document,
    resolve_map,
    resolve_sequence,
    resolve_track,
    track_to_dot,
)
from ttlab.morphism import TrackMorphism
from ttlab.splitting import apply_sequence, apply_split, legal_splits
from ttlab.track import Switch, TrainTrack, tracks_equal
from ttlab.words import LABEL_RULE

ATLAS_MAP_NAMES = ["phi1", "phi2", "phi3", "alpha", "beta", "t_ig", "t_gi"]


def test_track_round_trip():
    text = dump_track(A.base_track())
    doc = parse_document(text)
    again = doc.tracks["tau"]
    assert tracks_equal(again, A.base_track())
    assert again.canonical_key == A.base_track().canonical_key
    assert again.declared_boundaries == A.base_track().declared_boundaries
    assert dump_track(again) == text


@pytest.mark.parametrize("name", ATLAS_MAP_NAMES)
def test_map_round_trip(name):
    m = A.atlas(name)
    text = dump_track(m.source)
    if m.target.name != m.source.name:
        text += "\n" + dump_track(m.target)
    text += "\n" + dump_map(m)
    doc = parse_document(text)
    again = doc.maps[m.name]
    assert again.mapping == m.mapping
    assert again.source.name == m.source.name
    again.check()


def test_sequence_round_trip():
    text = dump_sequence(A.s1_moves(), name="s1")
    doc = parse_document(text)
    assert doc.sequences["s1"] == A.s1_moves()
    assert dump_sequence(doc.sequences["s1"], name="s1") == text


def test_document_round_trip_is_fixed_point():
    doc = Document(
        tracks={"tau": A.base_track(), "tau_prime": A.twisted_track()},
        maps={"t_ig": A.t_ig()},
        sequences={"twist_ig": A.twist_ig_moves()},
    )
    text = dump_document(doc)
    doc2 = parse_document(text)
    assert dump_document(doc2) == text
    assert doc2.maps["t_ig"].mapping == A.t_ig().mapping


@st.composite
def _documents(draw):
    """A small track, a legal walk on it, and the walk's composite as a map
    from the final track, renamed, back to the start."""
    start = draw(small_tracks(draw(st.integers(3, 5))))
    moves, t = [], start
    for pick in draw(st.lists(st.integers(0, 10**6), min_size=1, max_size=8)):
        options = legal_splits(t)
        if not options:
            break
        moves.append(options[pick % len(options)])
        t, _ = apply_split(t, moves[-1])
    run = apply_sequence(start, moves)
    final = run.final.renamed("final")
    return Document(
        tracks={start.name: start, "final": final},
        maps={"walk": TrackMorphism(final, start, run.morphism.images)},
        sequences={"walk": tuple(moves)},
    )


@settings(max_examples=100, deadline=None)
@given(doc=_documents())
def test_random_document_round_trip(doc):
    text = dump_document(doc)
    again = parse_document(text)
    assert dump_document(again) == text
    assert again.tracks.keys() == doc.tracks.keys()
    for name, t in doc.tracks.items():
        assert tracks_equal(again.tracks[name], t)
    assert again.maps["walk"].images == doc.maps["walk"].images
    assert again.sequences == doc.sequences


@pytest.mark.parametrize("name", ["two words", "tab\there", "a]b", "a#b", ""])
def test_writers_reject_names_no_header_can_hold(name):
    # no track or switch is built under such a name (test_track), so the
    # names a writer meets free-form are those of sequences and maps
    writers = [lambda: dump_sequence(A.s1_moves(), name=name)]
    if name:  # an empty map name falls back on the map's own
        writers.append(lambda: dump_map(A.phi1(), name=name))
    for write in writers:
        with pytest.raises(BadIndex, match="cannot head a section"):
            write()


def test_map_external_source_reference():
    # a map section may point at tracks that live elsewhere
    text = dump_map(A.phi1(), name="probe", source_ref="tau", target_ref="tau")
    assert "[map probe]" in text
    assert "source = tau" in text
    doc = parse_document(dump_track(A.base_track()) + "\n" + text)
    assert doc.maps["probe"].mapping == A.phi1().mapping


def test_comments_and_blank_lines_ignored():
    text = "# top note\n\n" + dump_track(A.base_track()).replace(
        "[switch v1]", "# before v1\n[switch v1]")
    doc = parse_document(text)
    assert tracks_equal(doc.tracks["tau"], A.base_track())


def test_parse_error_bad_edge_label():
    with pytest.raises(ParseError, match="bad edge label"):
        parse_document("[track t]\nedges = a !\n")


def test_parse_error_bad_section():
    with pytest.raises(ParseError, match="bad section header"):
        parse_document("[blob x]\nfoo = 1\n")


def test_parse_error_map_before_track():
    with pytest.raises(ParseError, match="unknown (source|track)"):
        parse_document("[map m]\nsource = missing\ntarget = missing\na = a\n")


def test_resolve_atlas_specs():
    assert resolve_track("atlas:tau") is A.base_track()
    assert resolve_map("atlas:phi2") is A.phi2()
    assert resolve_sequence("atlas:s1") == A.s1_moves()
    assert resolve_sequence("atlas:seq:3") == A.splitting_sequence(3)


def test_resolve_files(tmp_path):
    track_file = tmp_path / "tracks.tt"
    track_file.write_text(
        dump_track(A.base_track()) + "\n" + dump_track(A.twisted_track())
        + "\n" + dump_map(A.t_gi()) + "\n" + dump_sequence(A.s1_moves()))
    # single-entry selection by fragment
    assert tracks_equal(resolve_track(f"{track_file}#tau_prime"),
                        A.twisted_track())
    assert resolve_map(f"{track_file}#t_gi").mapping == A.t_gi().mapping
    assert resolve_sequence(f"{track_file}#seq") == A.s1_moves()
    # a bare path works when the document holds exactly one entry of the kind
    assert resolve_map(str(track_file)).mapping == A.t_gi().mapping


def test_resolve_wrong_kind(tmp_path):
    with pytest.raises(UnknownEntry):
        resolve_map("atlas:tau")
    with pytest.raises(UnknownEntry):
        resolve_track("atlas:phi1")
    only_track = tmp_path / "only.tt"
    only_track.write_text(dump_track(A.base_track()))
    with pytest.raises(UnknownEntry):
        resolve_sequence(str(only_track))


def test_resolve_missing_fragment(tmp_path):
    f = tmp_path / "one.tt"
    f.write_text(dump_track(A.base_track()))
    with pytest.raises(UnknownEntry):
        resolve_track(f"{f}#nope")


def test_document_atlas_source_of_the_wrong_kind():
    text = "[map m]\nsource = atlas:phi1\ntarget = atlas:tau\n"
    with pytest.raises(ParseError, match="'atlas:phi1' is not a track") as err:
        parse_document(text)
    assert err.value.line == 2


def test_dot_export_escapes_names():
    t = A.base_track()
    names = {"v1": "v\\", "v2": 'a"b"'}
    odd = TrainTrack('x"y', t.edges, tuple(
        Switch(names.get(sw.name, sw.name), sw.side_a, sw.side_b)
        for sw in t.switches))
    dot = track_to_dot(odd)
    quoted = re.compile(r'"(?:[^"\\]|\\.)*"')
    assert '"' not in quoted.sub("", dot)  # every quote opens or closes one
    texts = [re.sub(r"\\(.)", lambda m: "\n" if m[1] == "n" else m[1], s[1:-1])
             for s in quoted.findall(dot)]
    assert texts[0] == 'x"y'
    for name in names.values():
        assert name in texts
        assert any(x.startswith(name + "\n") for x in texts)  # its label
    assert dot.startswith('digraph "x\\"y" {')


def test_dot_export():
    dot = track_to_dot(A.base_track())
    assert dot.startswith('digraph "tau" {')
    assert dot.rstrip().endswith("}")
    assert dot.count("->") == 12
    assert '"v5" [label="v5\\nt(f) t(g) | i(i) i(k)"];' in dot


_CIRCLES = ("[track circles]\nedges = a b\n[switch v]\nside_a = i(a)\n"
            "side_b = t(a)\n[switch w]\nside_a = i(b)\nside_b = t(b)\n")
_MAP = "[map m]\nsource = circles\ntarget = circles\na = b\nb = a\n"
_SEQ = "[sequence s]\nmoves = i(a)/t(b)\n"
_GOOD = _CIRCLES + _MAP + _SEQ  # lines 1-8 track, 9-13 map, 14-15 sequence


def _edit(old: str, new: str) -> str:
    assert old in _GOOD
    return _GOOD.replace(old, new)


@pytest.mark.parametrize("text, line, message", [
    (_edit("[map m]", "[blob m]"), 9, "bad section header '[blob m]'"),
    (_CIRCLES.replace("[track circles]\nedges = a b\n", "") + _CIRCLES,
     1, "switch section outside any track"),
    (_MAP + _CIRCLES.replace("[track circles]\nedges = a b\n", ""),
     6, "switch section outside any track"),
    (_GOOD + _MAP, 16, "duplicate map 'm'"),
    (_GOOD + _SEQ, 16, "duplicate sequence 's'"),
    (_edit("edges = a b", "edges a b"),
     2, "expected 'key = value', got 'edges a b'"),
    ("edges = a b\n" + _GOOD, 1, "data line before any section header"),
    (_edit("edges = a b", "edges = a b\nedges = a b"), 3, "edges given twice"),
    (_edit("edges = a b", "edges = a b\nboundary = a -a"),
     3, "boundary lines read 'boundary NAME = word'"),
    (_edit("edges = a b", "edges = a b\nedge = a b"), 3, "unknown track key 'edge'"),
    (_edit("edges = a b", "edges = a b\nboundaryzz outer = a b"),
     3, "unknown track key 'boundaryzz outer'"),
    (_edit("side_a = i(b)", "side_a = i(b)\nside_c = i(b)"),
     8, "unknown switch key 'side_c'"),
    (_edit("a = b\n", "a = b\na = a\n"), 13, "duplicate map key 'a'"),
    (_edit("moves = ", "move = "), 15, "unknown sequence key 'move'"),
    (_edit("edges = a b\n", ""), 1, "track 'circles' has no edges line"),
    (_edit("edges = a b", "edges = a b c"),
     1, "track 'circles': ends do not match edge list: missing i(c), t(c)"),
    (_GOOD + _CIRCLES, 16, "duplicate track 'circles'"),
    (_edit("side_b = t(b)\n", ""), 6, "switch 'w' needs side_a and side_b"),
    (_edit("source = circles\n", ""), 9, "map 'm' needs source and target"),
    (_edit("source = circles", "source = missing"), 10, "unknown track 'missing'"),
    (_edit("target = circles", "target = atlas:phi1"),
     11, "'atlas:phi1' is not a track"),
    (_edit("source = circles", "source = atlas:nope"),
     10, "no atlas entry named 'nope'"),
    (_edit("target = circles", "target = atlas:phi:x"),
     11, "bad parameter in atlas name 'phi:x'"),
    (_edit("source = circles", "source = atlas:phi:20003"),
     10, "atlas indices stop at 10001, not 20003"),
    (_edit("b = a\n", ""), 9, "map 'm': images must cover the source edges exactly; "
     "got ['a'], want ['a', 'b']"),
    (_edit("a = b\n", "a = b !\n"), 12, "col 3: bad letter token '!'"),
    (_edit("edges = a b", "edges = a b\nboundary d = a -b ?"),
     3, "col 6: bad letter token '?'"),
    (_edit("side_a = i(b)", "side_a = i(b) x(a)"),
     7, "bad end token 'x(a)', expected t(x) or i(x)"),
    (_edit("side_a = i(b)", "side_a = i(source)"),
     7, f"bad end token 'i(source)': {LABEL_RULE}"),
    (_edit("i(a)/t(b)", "i(a)/t(b); zzz"),
     15, "col 12: bad move token 'zzz', expected like t(a)/i(b)"),
])
def test_parse_document_single_fault(text, line, message):
    with pytest.raises(ParseError) as err:
        parse_document(text)
    sep = ", " if message.startswith("col ") else ": "
    assert str(err.value) == f"line {line}{sep}{message}"
    assert err.value.line == line


@pytest.mark.parametrize("old, new, line", [
    ("side_a = i(a)", "side_a = i(zz) t(q)\nside_a = i(a)", 5),
    ("side_b = t(a)", "side_b = t(zz)\nside_b = t(a)", 6),
])
def test_parse_document_rejects_a_repeated_switch_side(old, new, line):
    side = old.split()[0]
    with pytest.raises(ParseError) as err:
        parse_document(_edit(old, new))
    assert str(err.value) == f"line {line}: {side} given twice"
    assert err.value.line == line
