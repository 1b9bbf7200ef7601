"""Boundary action and cusp-side dynamics of the atlas maps."""

import hashlib
import json

import pytest

from ttlab.atlas import atlas, atlas_names, involution, phi, phi1, phi2, phi3, psi
from ttlab.boundary import boundary_action, side_dynamics
from ttlab.certify import certify, render_text, to_json_dict
from ttlab.errors import AlignmentError, NotASelfMap
from ttlab.morphism import TrackMorphism, identity_morphism
from ttlab.search import SearchConfig, search_loops
from ttlab.track import Switch, TrainTrack


# Fold depths frozen from the certified runs; one entry per cusp side.
FOLD_DEPTHS = {
    "phi1": (1, 2, 0, 1, 1, 1),
    "phi2": (1, 3, 1, 1, 1, 1),
    "phi3": (1, 4, 2, 1, 1, 1),
}


def test_phi1_boundary_action():
    act = boundary_action(phi1())
    assert tuple(ci.target_index for ci in act.curves) == (0, 1)
    assert act.warnings == ()
    for ci in act.curves:
        assert ci.source_index == ci.target_index
        assert ci.rotation == 4
        assert ci.cusp_shift == 2
        assert ci.fold_depths == FOLD_DEPTHS["phi1"]
        assert ci.cusp_images == (2, 3, 4, 5, 0, 1)


@pytest.mark.parametrize("name", ["phi2", "phi3"])
def test_pa_map_boundary_actions(name):
    m = {"phi2": phi2, "phi3": phi3}[name]()
    act = boundary_action(m)
    assert tuple(ci.target_index for ci in act.curves) == (0, 1)
    for ci in act.curves:
        assert ci.rotation == 4
        assert ci.cusp_shift == 2
        assert ci.fold_depths == FOLD_DEPTHS[name]


def test_involution_swaps_curves():
    act = boundary_action(involution())
    assert tuple(ci.target_index for ci in act.curves) == (1, 0)
    for ci in act.curves:
        assert ci.rotation == 6
        assert ci.cusp_shift == 3
        assert ci.fold_depths == (0,) * 6


def test_curves_come_in_source_order():
    act = boundary_action(phi1())
    assert act.curves[0].source_index == 0


def test_cross_track_action_and_dynamics():
    # boundary_action compares source curves with target curves, so a
    # morphism between different tracks is fine; dynamics is not.
    from ttlab.atlas import t_ig
    act = boundary_action(t_ig())
    assert tuple(ci.target_index for ci in act.curves) == (0, 1)
    assert act.curves[0].fold_depths == (0, 1, 1, 0, 0, 0)
    with pytest.raises(NotASelfMap):
        side_dynamics(t_ig())


def test_phi1_side_dynamics_shape():
    sd = side_dynamics(phi1())
    assert sd.total_points == 12
    assert not sd.degenerate
    assert sd.warnings == ()
    assert len(sd.orbits) == 4
    for orb in sd.orbits:
        assert orb.period == 3
        assert orb.counts == (1, 1, 1)
        assert len(orb.points) == 3
    # the twelve cusp sides are covered exactly once
    seen = {side for orb in sd.orbits for side in orb.sides}
    assert seen == {(c, s) for c in range(2) for s in range(6)}


def test_phi1_side_dynamics_orbit_partition():
    sd = side_dynamics(phi1())
    assert [orb.sides for orb in sd.orbits] == [
        ((0, 0), (0, 2), (0, 4)),
        ((0, 1), (0, 3), (0, 5)),
        ((1, 0), (1, 2), (1, 4)),
        ((1, 1), (1, 3), (1, 5)),
    ]


def _point(sd, curve, side):
    for orb in sd.orbits:
        for p in orb.points:
            if (p.curve, p.side) == (curve, side):
                return p
    raise AssertionError(f"no point on side {curve}.{side}")


def test_phi1_marked_itineraries():
    sd = side_dynamics(phi1())
    p = _point(sd, 1, 5)
    assert p.label == "c"
    assert [lab for *_, lab in p.itinerary] == ["c", "k", "h"]
    assert p.rendered == "[c*.d] -> k.[g.k*].j -> a.d.[h*.l] -> l.[c*.d].f"
    q = _point(sd, 0, 0)
    assert q.rendered == "[b*.f] -> f.[i*.j].l.a -> [e*.a].d -> j.[b*.f].k"


def test_phi2_marked_itineraries():
    sd = side_dynamics(phi2())
    assert sd.total_points == 12
    p = _point(sd, 1, 5)
    assert p.rendered == "[c*.d] -> k.[i.k*].j -> e.a.d.[h*.l].a -> l.[c*.d].f"
    assert [lab for *_, lab in p.itinerary] == ["c", "k", "h"]
    q = _point(sd, 0, 0)
    assert q.rendered == "[b*.f] -> f.[g.j*].l.a.e -> a.[e*.a].d -> j.[b*.f].k"


def test_phi_family_single_point_per_side():
    for n in (1, 2, 3):
        sd = side_dynamics(phi(2 * n + 1))
        assert sd.total_points == 12
        assert all(orb.counts == (1, 1, 1) for orb in sd.orbits)


def test_involution_dynamics_degenerate():
    sd = side_dynamics(involution())
    assert sd.degenerate
    assert sd.total_points == 0
    assert len(sd.orbits) == 6
    assert all(orb.period == 2 for orb in sd.orbits)
    assert len(sd.warnings) == 24
    assert any("maps isometrically onto its own slot" in w for w in sd.warnings)


def test_identity_dynamics_degenerate():
    from ttlab.atlas import base_track
    sd = side_dynamics(identity_morphism(base_track()))
    assert sd.degenerate
    assert sd.total_points == 0


def test_boundary_points_count_the_boundary_warnings():
    maps = [atlas(n) for n in atlas_names() if ":" not in n]
    maps = [m for m in maps if isinstance(m, TrackMorphism) and m.is_self_map]
    maps += [phi(n) for n in (5, 7, 9)] + [psi(n) for n in range(5)]
    for m in maps:
        sd = side_dynamics(m)
        assert sd.boundary_points == sum(
            "boundary of letter" in w for w in sd.warnings)


def test_side_dynamics_accepts_precomputed_action():
    m = phi2()
    act = boundary_action(m)
    sd = side_dynamics(m, action=act)
    assert sd.total_points == 12


def test_identity_on_a_cuspless_track_has_no_side_dynamics():
    loop = TrainTrack("loop", ("a",),
                      (Switch("v", (("a", "i"),), (("a", "t"),)),))
    with pytest.raises(AlignmentError,
                       match="^curve 0 has no cusps; side dynamics is undefined$"):
        side_dynamics(identity_morphism(loop))


@pytest.mark.parametrize("field, value, message", [
    ("cusp_images", (0, 2, 1, 3, 4, 5),
     "side 0 of curve 0 maps over more than one side"),
    ("fold_depths", (0, 2, 0, 1, 1, 1),
     "side (0, 0): image does not decompose over side (0, 2)"),
])
def test_side_dynamics_rejects_an_action_that_does_not_fit(field, value, message):
    m = phi1()
    act = boundary_action(m)
    bent = act._replace(curves=(act.curves[0]._replace(**{field: value}),
                                 *act.curves[1:]))
    with pytest.raises(AlignmentError) as err:
        side_dynamics(m, bent)
    assert str(err.value) == message


# SHA-256 of the JSON and text certificates over the corpus below, in order
CORPUS_SHA256 = "d51bdfbf6b731764bda890562bcc154f8bdc4a6f41f18373e5385ac6787985bd"


def test_certificate_corpus_digest():
    maps = [atlas(name) for name in ("phi1", "phi2", "phi3", "beta")]
    maps += [phi(n) for n in range(1, 22, 2)] + [psi(n) for n in range(11)]
    found = search_loops(atlas("tau_prime"),
                         SearchConfig(max_depth=4, certify=False))
    maps += [m for loop in found for m in loop.self_maps]
    assert len(maps) == 186
    digest = hashlib.sha256()
    for m in maps:
        cert = certify(m)
        text = json.dumps(to_json_dict(cert), indent=2, sort_keys=True)
        digest.update((text + "\n" + render_text(cert)).encode())
    assert digest.hexdigest() == CORPUS_SHA256
