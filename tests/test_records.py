"""What ttlab's records promise: read-only fields, value semantics, and a
package import that generates no code."""

import subprocess
import sys
from pathlib import Path

import pytest

import ttlab
from ttlab import atlas
from ttlab.certify import certify
from ttlab.errors import InvalidTrack
from ttlab.incidence import incidence_matrix, irreducibility, primitivity
from ttlab.morphism import TrackMorphism
from ttlab.search import SearchConfig, replay
from ttlab.splitting import apply_sequence
from ttlab.track import isomorphisms


def _records():
    """One instance of every public record, with a field to assign to."""
    m = atlas.phi2()
    cert = certify(m)
    track = m.source
    orbit = cert.sides.orbits[0]
    loop = replay(atlas.initial_track(), atlas.splitting_sequence(1),
                  atlas.identification_ii(), SearchConfig(certify=False))
    mat = incidence_matrix(m)
    return [
        (track, "name"), (m, "images"), (track.switches[0], "side_a"),
        (track.boundary_curves[0], "word"), (track.validate(), "genus"),
        (isomorphisms(track, track)[0], "label_map"), (mat, "data"),
        (irreducibility(mat), "witness"), (primitivity(mat), "exponent"),
        (cert.perron, "lower"), (cert, "verdict"), (cert.boundary, "curves"),
        (cert.boundary.curves[0], "rotation"), (cert.sides, "orbits"),
        (orbit, "period"), (orbit.points[0], "label"),
        (SearchConfig(), "max_nodes"), (loop, "final"),
        (loop.sequence[0], "slid"),
        (apply_sequence(atlas.initial_track(), loop.sequence), "moves"),
    ]


def test_record_fields_cannot_be_assigned():
    records = _records()
    assert len({type(r).__name__ for r, _ in records}) == len(records)
    for record, field in records:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))


def test_records_keep_their_value_semantics():
    m = atlas.phi2()
    twin = TrackMorphism(m.source.renamed("other"), m.target, m.images,
                         name="twin")
    assert twin == m and twin is not m
    with pytest.raises(TypeError):
        hash(m)
    track = m.source
    same = track.renamed(track.name)
    assert same == track and hash(same) == hash(track) and same is not track
    assert track.renamed("other") != track
    with pytest.raises(InvalidTrack):
        track.renamed("bad name")
    for curve in track.boundary_curves:
        assert len(curve.word) == 12


def test_replace_changes_only_the_named_field():
    cert = certify(atlas.phi2())
    renamed = cert._replace(map_name="x")
    assert renamed.map_name == "x" and cert.map_name == "phi2"
    assert renamed._replace(map_name="phi2") == cert
    curve = atlas.base_track().boundary_curves[0]
    assert curve._replace(cusps=(0,)) == (curve.word, (0,))


def test_import_generates_no_code():
    # the benchmark's set-up, in an interpreter without site-packages; only
    # what ttlab loads on top of `typing` counts, since what `typing` itself
    # imports varies with the Python version
    src = str(Path(ttlab.__file__).resolve().parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r})\n"
            "import typing\n"
            "before = set(sys.modules)\n"
            "import ttlab.cli\n"
            "from ttlab import atlas\n"
            "atlas.base_track(); atlas.twisted_track(); atlas.initial_track()\n"
            "print(sorted({'dataclasses', 'inspect', 'ast', 'dis'}"
            " & (set(sys.modules) - before)))\n")
    out = subprocess.run([sys.executable, "-I", "-S", "-c", code],
                         capture_output=True, text=True, timeout=60, check=True)
    assert out.stdout == "[]\n"
