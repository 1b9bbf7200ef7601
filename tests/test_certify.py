"""End-to-end certification verdicts and report rendering."""

import importlib
import json
import sys
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ttlab.atlas import atlas, base_track, phi, phi1, phi2, phi3, psi, t_ig
from ttlab.certify import certify, render_text, to_json_dict
from ttlab.errors import BadIndex, InvalidTrack, NotASelfMap
from ttlab.fileio import resolve_track
from ttlab.incidence import dilatation, incidence_matrix
from ttlab.morphism import (
    TrackMorphism,
    compose,
    identity_morphism,
    relabel_morphism,
)
from ttlab.track import Switch, TrainTrack
from ttlab.words import parse_word

PHI2_DILATATION = 2.2966302628865


def test_phi1_certificate_reducible():
    cert = certify(phi1())
    assert cert.verdict == "reducible"
    assert cert.map_name == "phi1"
    assert cert.track_name == "tau"
    assert cert.fixed_edges == ()
    assert cert.fixed_point_free is True
    assert not cert.irreducibility.irreducible
    assert set(cert.irreducibility.witness) == set("acdfghjkl")
    assert cert.primitivity is None
    assert cert.perron is None
    assert cert.cusp_counts == (6, 6)


def test_phi2_certificate_pa():
    cert = certify(phi2())
    assert cert.verdict == "pA"
    assert cert.fixed_point_free is True
    assert cert.fixed_edges == ()
    assert cert.irreducibility.irreducible
    assert cert.primitivity.primitive
    assert cert.primitivity.exponent == 8
    assert cert.perron.lower < cert.perron.upper
    assert cert.perron.width < Fraction(1, 10**10)
    assert abs(cert.perron.value - PHI2_DILATATION) < 1e-9
    assert cert.cusp_counts == (6, 6)
    assert cert.warnings == ()


def test_phi3_certificate_pa():
    cert = certify(phi3())
    assert cert.verdict == "pA"
    assert cert.fixed_point_free is True
    assert abs(cert.perron.value - 2.7347706031529) < 1e-9


@pytest.mark.parametrize("n", [2, 3])
def test_family_certificates(n):
    assert certify(phi(2 * n + 1)).verdict == "pA"
    assert certify(psi(n)).verdict == "pA"


def test_identity_certificate():
    cert = certify(identity_morphism(base_track()))
    assert cert.verdict == "reducible"
    assert cert.fixed_point_free is False
    assert len(cert.fixed_edges) == 12
    assert all(count == 1 for _, count in cert.fixed_edges)


RELABELLED_MAPS = ("phi1", "phi2", "phi3", "phi:5", "phi:7",
                   "psi:0", "psi:1", "psi:2", "psi:3")


@lru_cache(maxsize=None)
def _atlas_certificate(name):
    return certify(atlas(name))


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(RELABELLED_MAPS),
       image=st.permutations("abcdefghijkl"))
def test_certificate_invariant_under_relabelling(name, image):
    m = atlas(name)
    perm = dict(zip("abcdefghijkl", image))
    there = relabel_morphism(m.source, perm)
    back = relabel_morphism(there.target, {v: k for k, v in perm.items()})
    cert = _atlas_certificate(name)
    moved = certify(compose(there, compose(m, back)))
    assert moved.verdict == cert.verdict
    assert moved.fixed_point_free == cert.fixed_point_free
    assert moved.primitivity == cert.primitivity
    if cert.perron is None:
        assert moved.perron is None
    else:
        assert (moved.perron.lower, moved.perron.upper,
                moved.perron.iterations) == \
            (cert.perron.lower, cert.perron.upper, cert.perron.iterations)
    mm = moved.matrix
    for r, row in zip(cert.matrix.rows, cert.matrix.data):
        for c, x in zip(cert.matrix.cols, row):
            assert mm.data[mm.rows.index(perm[r])][mm.cols.index(perm[c])] == x


def test_certify_builds_one_incidence_matrix(monkeypatch):
    calls = []

    def counted(m):
        calls.append(m.name)
        return incidence_matrix(m)

    # the attribute ttlab.certify is the function, so look the module up
    for module in ("ttlab.certify", "ttlab.incidence"):
        monkeypatch.setattr(importlib.import_module(module),
                            "incidence_matrix", counted)
    certify(phi2())
    assert calls == ["phi2"]


def test_certify_requires_self_map():
    with pytest.raises(NotASelfMap):
        certify(t_ig())


def test_certify_requires_connected_track():
    circles = TrainTrack(
        "circles",
        ("a", "b"),
        (Switch("v", (("a", "i"),), (("a", "t"),)),
         Switch("w", (("b", "i"),), (("b", "t"),))),
    )
    assert not circles.connected
    swap = TrackMorphism(circles, circles, {"a": (("b", 1),),
                                            "b": (("a", 1),)})
    swap.check()
    with pytest.raises(InvalidTrack, match="connected track"):
        certify(swap)


def test_custom_tolerance():
    cert = certify(phi2(), tol=1e-6)
    assert cert.tolerance == 1e-6
    assert float(cert.perron.width) < 1e-6
    assert cert.perron.iterations < certify(phi2()).perron.iterations


@pytest.mark.parametrize("tol", [0.0, -1e-3, float("nan"), float("inf")])
def test_bad_tolerance_rejected(tol):
    with pytest.raises(BadIndex):
        certify(phi2(), tol=tol)
    with pytest.raises(BadIndex):
        dilatation(incidence_matrix(phi2()), tol=tol)


def test_render_text_phi2():
    txt = render_text(certify(phi2()))
    assert "map: phi2 on track tau_prime" in txt
    assert "edges mapping over themselves: none" in txt
    assert "irreducible: yes" in txt
    assert "primitive: yes (exponent 8)" in txt
    assert "dilatation: 2.296630262877 in" in txt
    assert "boundary 0 -> 0, rotation 4 letters, cusp shift 2, "\
        "fold depths 1 3 1 1 1 1" in txt
    assert "side orbit [1.1 -> 1.3 -> 1.5] period 3, points per side: 1 1 1" in txt
    assert "[c*.d] -> k.[i.k*].j -> e.a.d.[h*.l].a -> l.[c*.d].f" in txt
    assert "boundary periodic points: 12" in txt
    assert "fixed point free: yes" in txt
    assert txt.rstrip().endswith("verdict: pA")


def test_render_text_phi1():
    txt = render_text(certify(phi1()))
    assert "irreducible: no, invariant edge set {a c d f g h j k l}" in txt
    assert txt.rstrip().endswith("verdict: reducible")


def test_render_text_identity():
    txt = render_text(certify(identity_morphism(base_track())))
    assert "edges mapping over themselves: a (x1), b (x1)" in txt
    assert "fixed point free: no" in txt


def test_readings():
    cert = certify(phi2())
    assert cert.punctured_reading == \
        "punctured: 2 boundary punctures with (6, 6) prongs"
    assert cert.closed_reading == \
        "closed: admissible, cone points with (6, 6) prongs"


def test_json_dict_shape():
    d = to_json_dict(certify(phi2()))
    assert d["schema"] == "ttlab/1"
    assert d["map"] == "phi2"
    assert d["track"] == "tau_prime"
    assert d["verdict"] == "pA"
    assert d["edges"] == list("abcdefghijkl")
    assert d["fixedEdges"] == []
    assert d["fixedPointFree"] is True
    assert d["irreducible"] is True
    assert d["primitive"] is True
    assert d["primitivityExponent"] == 8
    assert d["invariantWitness"] == []
    assert d["cuspCounts"] == [6, 6]
    assert d["warnings"] == []
    # exact rational bracket survives as strings
    dil = d["dilatation"]
    assert dil["lower"] == "63234029278151/27533395471251"
    assert dil["upper"] == "17170089837/7476209869"
    assert abs(dil["value"] - PHI2_DILATATION) < 1e-9
    assert len(d["matrix"]) == 12 and len(d["matrix"][0]) == 12
    orbits = d["sideOrbits"]
    assert len(orbits) == 4
    first = orbits[0]
    assert first["sides"] == [[0, 0], [0, 2], [0, 4]]
    assert first["period"] == 3
    assert first["counts"] == [1, 1, 1]
    assert first["points"][0]["label"] == "b"
    assert first["points"][0]["letters"] == ["b", "j", "e"]


def test_json_dict_reducible():
    d = to_json_dict(certify(phi1()))
    assert d["verdict"] == "reducible"
    assert d["dilatation"] is None
    assert d["primitive"] is None
    assert sorted(d["invariantWitness"]) == sorted("acdfghjkl")


# A smooth self map of the odd interval-exchange seed whose boundary image
# lands no cusp on a cusp: Perron data exist, the boundary action does not.
MISS_WORDS = {
    "a": "-d -e -d -e", "b": "-g -g", "c": "-b -g", "d": "-c -g -c -f",
    "e": "-b -g", "f": "-b -c", "g": "-f -a -g -b",
}
H22_ODD = Path(__file__).resolve().parent.parent / "examples" / "h22_odd.tt"


def test_inconclusive_when_the_boundary_action_is_unavailable():
    track = resolve_track(str(H22_ODD))
    cert = certify(TrackMorphism(
        track, track, {k: parse_word(v) for k, v in MISS_WORDS.items()},
        name="miss"))
    assert cert.irreducibility.irreducible
    assert cert.primitivity.primitive and cert.primitivity.exponent == 4
    assert cert.verdict == "inconclusive"
    assert cert.fixed_point_free is None
    assert any(w.startswith(
        "boundary action unavailable: image of curve 0 matches no target "
        "curve with cusps landing on cusps") for w in cert.warnings)
    d = to_json_dict(cert)
    assert d["boundary"] is None
    assert d["sideOrbits"] is None
    assert d["boundaryPeriodicPoints"] is None


def test_periodic_swap_is_inconclusive():
    # README's file-format track: one switch, curves a b, -a and -b
    v1 = Switch("v1", (("a", "t"), ("b", "i")),
                (("a", "i"), ("b", "t")))
    x = TrainTrack("x", ("a", "b"), (v1,))
    cert = certify(TrackMorphism(
        x, x, {"a": parse_word("b"), "b": parse_word("a")}, name="swap"))
    assert cert.irreducibility.irreducible
    assert (cert.primitivity.primitive, cert.primitivity.bound) == (False, 2)
    assert cert.perron is None and cert.sides is None
    assert cert.verdict == "inconclusive"
    assert cert.warnings == (
        "matrix is irreducible but not primitive (periodic)",
        "side dynamics unavailable: curve 1 has no cusps; side dynamics is "
        "undefined",
    )
    assert cert.closed_reading == ("closed: not admissible, filling in a "
                                   "boundary would leave a 0-pronged point")
    lines = render_text(cert).splitlines()
    assert "primitive: no (checked to 2)" in lines
    # a cuspless curve has no cusp shift and no fold depths
    assert "boundary 1 -> 2, rotation 0 letters, no cusp shift" in lines


def test_brackets_past_the_int_str_digit_cap_render_exactly():
    # a numerator of 5,001 digits is past str()'s default cap of 4,300
    cap = sys.get_int_max_str_digits()
    cert = certify(phi2())
    lower = Fraction(10**5000 + 1, 3)
    upper = Fraction(10**5000 + 2, 3)  # a whole number
    cert = cert._replace(perron=cert.perron._replace(lower=lower, upper=upper))
    want = "1" + "0" * 4999 + "1/3"
    assert f"dilatation: {cert.perron.value:.12f} in [{want}, " \
        in render_text(cert)
    dil = json.loads(json.dumps(to_json_dict(cert)))["dilatation"]
    assert dil["lower"] == want
    assert dil["upper"] == "3" * 4999 + "4/1"
    assert sys.get_int_max_str_digits() == cap
