"""Cellular maps: validity, smoothness, composition algebra."""

import pytest

from ttlab.atlas import (
    alpha,
    base_track,
    initial_track,
    involution,
    phi,
    phi1,
    phi2,
    phi3,
    psi,
    t_gi,
    t_ig,
)
from ttlab.errors import ChainMismatch, InvalidMorphism, NotASelfMap
from ttlab.morphism import (
    TrackMorphism,
    compose,
    compose_chain,
    identity_morphism,
    power,
    relabel_morphism,
)
from ttlab.track import Switch, TrainTrack, isomorphisms
from ttlab.words import format_word, parse_word


ATLAS_MAPS = [phi1, phi2, phi3, alpha, involution, t_ig, t_gi,
              lambda: phi(5), lambda: phi(9), lambda: psi(1), lambda: psi(3)]


def test_atlas_maps_check_clean():
    for build in ATLAS_MAPS:
        m = build()
        m.check()


def test_sources_and_targets():
    assert phi1().source.name == "tau" and phi1().target.name == "tau"
    assert phi2().source.name == "tau_prime"
    assert alpha().source.name == "tau" and alpha().target.name == "tau_prime"
    assert t_ig().source.name == "tau_prime" and t_ig().target.name == "tau"
    assert t_gi().source.name == "tau" and t_gi().target.name == "tau_prime"


def test_identity_morphism():
    ident = identity_morphism(base_track())
    ident.check()
    assert all(format_word(w) == lab for lab, w in ident.images)
    assert ident.is_self_map


def test_compose_with_identity():
    ident = identity_morphism(base_track())
    assert compose(phi1(), ident).mapping == phi1().mapping
    assert compose(ident, phi1()).mapping == phi1().mapping


def test_compose_substitutes():
    sq = compose(phi1(), phi1())
    assert format_word(dict(sq.images)["c"]) == "d h l a d h l"  # phi1(k g k)
    sq.check()


def test_compose_rejects_mismatched_chain():
    with pytest.raises(ChainMismatch):
        compose(phi2(), phi1())  # phi1 lands on tau, phi2 starts on tau_prime


def test_compose_chain_left_to_right():
    # chain [alpha, phi1, t_ig] is alpha after phi1 after t_ig
    chain = compose_chain([alpha(), phi1(), t_ig()])
    assert chain.mapping == phi2().mapping


def test_power():
    p3 = power(phi1(), 3)
    assert p3.mapping == compose(phi1(), compose(phi1(), phi1())).mapping
    assert power(phi1(), 1).mapping == phi1().mapping
    assert power(phi1(), 0).mapping == identity_morphism(base_track()).mapping


def test_power_needs_self_map():
    with pytest.raises(NotASelfMap):
        power(alpha(), 2)


def test_relabel_morphism_is_alpha():
    swap = {"i": "g", "g": "i"}
    m = relabel_morphism(base_track(), swap, name="alpha")
    assert m.mapping == alpha().mapping


def test_isomorphism_morphisms_and_inverse():
    isos = isomorphisms(initial_track(), base_track())
    backs = isomorphisms(base_track(), initial_track())
    assert len(isos) == len(backs) == 2
    for iso in isos:
        m = TrackMorphism(initial_track(), base_track(),
                          {x: ((y, 1),) for x, y in iso.label_map})
        m.check()
        # the inverse bijection is one of the isomorphisms back
        inverse = [b for b in backs
                   if all(b.labels[y] == x for x, y in iso.label_map)]
        assert len(inverse) == 1
        inv = TrackMorphism(base_track(), initial_track(),
                            {x: ((y, 1),) for x, y in inverse[0].label_map})
        assert compose(inv, m).mapping == \
            identity_morphism(initial_track()).mapping
        assert compose(m, inv).mapping == \
            identity_morphism(base_track()).mapping


def test_morphism_requires_nonempty_images():
    t = base_track()
    images = {lab: parse_word(lab) for lab in t.edges}
    images["a"] = ()
    with pytest.raises(InvalidMorphism):
        TrackMorphism(t, t, images).check()


def test_morphism_requires_edge_paths():
    t = base_track()
    images = {lab: parse_word(lab) for lab in t.edges}
    # b ends at v4 side A, c starts at v1 side B: not consecutive anywhere
    images["a"] = parse_word("b c")
    with pytest.raises(InvalidMorphism):
        TrackMorphism(t, t, images).check()


@pytest.mark.parametrize("word, reason", [
    ("a -a", "image of 'a' is not reduced"),
    ("a -c", "image of 'a' has an illegal (cusped) turn at t(a) | t(c)"),
    ("-e", "side of switch 'v1' departs on two sides of 'v1'"),
])
def test_morphism_check_names_the_failure(word, reason):
    t = base_track()
    images = {lab: parse_word(lab) for lab in t.edges}
    images["a"] = parse_word(word)
    m = TrackMorphism(t, t, images)
    with pytest.raises(InvalidMorphism) as exc:
        m.check()
    assert str(exc.value) == reason


def test_morphism_must_not_fold_a_switch_onto_one_side():
    # a circle through two valence-2 switches; b -> a^-1 turns back at v
    v = Switch("v", (("a", "t"),), (("b", "i"),))
    w = Switch("w", (("b", "t"),), (("a", "i"),))
    t = TrainTrack("circle", ("a", "b"), (v, w))
    m = TrackMorphism(t, t, {"a": parse_word("a"), "b": parse_word("-a")})
    with pytest.raises(InvalidMorphism) as exc:
        m.check()
    assert str(exc.value) == "both sides of switch 'v' depart on side A of 'v'"


def test_morphism_images_name_only_target_edges():
    t = base_track()
    images = {lab: parse_word(lab) for lab in t.edges}
    images["a"] = parse_word("zz")
    with pytest.raises(InvalidMorphism, match="image of 'a' uses unknown edge 'zz'"):
        TrackMorphism(t, t, images)


def test_morphism_endpoints_must_match():
    t = base_track()
    images = {lab: parse_word(lab) for lab in t.edges}
    images["a"], images["b"] = images["b"], images["a"]
    # a and b do not share endpoints switch-for-switch, so swapping them
    # breaks the vertex map consistency
    with pytest.raises(InvalidMorphism, match=r"^ends of switch 'v1' map to "
                       r"different switches: v1, v3$"):
        TrackMorphism(t, t, images).check()


def test_twist_maps_exchange():
    pair = compose(t_ig(), t_gi())   # tau -> tau
    pair.check()
    assert pair.source.name == "tau" and pair.target.name == "tau"
    other = compose(t_gi(), t_ig())  # tau_prime -> tau_prime
    other.check()
    assert other.source.name == "tau_prime"
