"""Track structure: switches, ribbon boundaries, Euler data, isomorphism."""

import pytest

from ttlab.atlas import (
    D1,
    D1_PRIME,
    D2,
    D2_PRIME,
    INVOLUTION_PAIRS,
    base_track,
    initial_track,
    twisted_track,
)
from ttlab.errors import InvalidTrack, NotOrientable, UnknownEntry
from ttlab.track import (
    Switch,
    TrainTrack,
    automorphisms,
    end,
    isomorphisms,
    tracks_equal,
)
from ttlab.words import inverse, min_rotation, parse_word, word_key


# ----------------------------------------------------------------------
# golden structure


GOLDEN_TAU_SWITCHES = {
    "v1": ("t(l) t(e)", "i(c) i(a)"),
    "v2": ("t(a) t(c)", "i(e) i(d)"),
    "v3": ("t(j) t(h)", "i(b) i(l)"),
    "v4": ("t(d) t(b)", "i(h) i(f)"),
    "v5": ("t(f) t(g)", "i(i) i(k)"),
    "v6": ("t(k) t(i)", "i(g) i(j)"),
}


def _switch_table(t):
    return {
        sw.name: (
            " ".join(f"{k}({lab})" for lab, k in sw.side_a),
            " ".join(f"{k}({lab})" for lab, k in sw.side_b),
        )
        for sw in t.switches
    }


def test_base_track_switch_table():
    assert _switch_table(base_track()) == GOLDEN_TAU_SWITCHES


def test_base_track_valid():
    d = base_track().validate()
    assert d.n_switches == 6
    assert d.n_edges == 12
    assert d.chi == -6
    assert d.n_boundaries == 2
    assert d.genus == 3
    assert d.cusp_counts == (6, 6)
    assert d.total_boundary_length == 24
    assert d.coherently_orientable


def test_twisted_track_is_relabelled_base():
    tp = twisted_track()
    assert tp.validate().genus == 3
    swap = {"i": "g", "g": "i"}
    relab = base_track().relabel({lab: swap.get(lab, lab)
                                  for lab in base_track().edges})
    assert tracks_equal(relab, tp)


def test_initial_track_differs_but_same_profile():
    ti = initial_track()
    assert ti.validate().cusp_counts == (6, 6)
    assert not tracks_equal(ti, base_track())
    assert ti.side_profile == base_track().side_profile


# ----------------------------------------------------------------------
# boundary tracing


def test_boundary_words_of_base_track():
    curves = base_track().boundary_curves
    assert len(curves) == 2
    keys = {word_key(min_rotation(c.word)[0]) for c in curves}
    d1 = parse_word(D1)
    d2 = parse_word(D2)
    # the first declared curve is traced as printed, the second reversed
    assert word_key(min_rotation(d1)[0]) in keys
    assert word_key(min_rotation(inverse(d2))[0]) in keys


def test_boundary_words_of_twisted_track():
    curves = twisted_track().boundary_curves
    keys = {word_key(min_rotation(c.word)[0]) for c in curves}
    assert word_key(min_rotation(parse_word(D1_PRIME))[0]) in keys
    assert word_key(min_rotation(inverse(parse_word(D2_PRIME)))[0]) in keys


def test_cusps_alternate_every_other_letter():
    for c in base_track().boundary_curves:
        assert c.cusps == (0, 2, 4, 6, 8, 10)
        assert c.n_cusps == 6
        assert len(c.sides) == 6
        assert all(len(s) == 2 for s in c.sides)


def test_each_letter_appears_once_across_boundaries():
    seen = []
    for c in base_track().boundary_curves:
        seen.extend(c.word)
    assert len(seen) == 24
    assert len(set(seen)) == 24
    labels = [lab for lab, _ in seen]
    assert all(labels.count(lab) == 2 for lab in base_track().edges)


# ----------------------------------------------------------------------
# symmetry


def test_automorphism_group_is_order_two():
    autos = automorphisms(base_track())
    assert len(autos) == 2
    nontrivial = [a for a in autos if any(a.labels[x] != x for x in a.labels)]
    assert len(nontrivial) == 1
    beta = nontrivial[0]
    for x, y in INVOLUTION_PAIRS:
        assert beta.labels[x] == y
        assert beta.labels[y] == x


def test_isomorphisms_tau_to_tau_prime():
    isos = isomorphisms(base_track(), twisted_track())
    assert len(isos) == 2
    swaps = [i for i in isos if i.labels["i"] == "g"]
    assert len(swaps) == 1


def test_canonical_key_is_label_sensitive_but_name_blind():
    t = base_track()
    # switch names do not matter
    assert t.renamed("zzz").canonical_key == t.canonical_key
    # edge labels do: a relabelled track is a different labelled object,
    # but the relabel bijection survives as an isomorphism
    perm = {lab: lab for lab in t.edges}
    perm["a"], perm["k"] = "k", "a"
    r = t.relabel(perm)
    assert r.canonical_key != t.canonical_key
    isos = isomorphisms(t, r)
    assert len(isos) == 2
    assert any(i.labels["a"] == "k" and i.labels["b"] == "b" for i in isos)


def test_renamed_keeps_structure():
    t = base_track().renamed("other")
    assert t.name == "other"
    assert tracks_equal(t, base_track())


# ----------------------------------------------------------------------
# validation errors


def test_switch_sides_must_be_nonempty():
    with pytest.raises(InvalidTrack):
        TrainTrack(
            "bad",
            ("a",),
            (Switch("v", (end("a", "i"), end("a", "t")), ()),),
        ).validate()


def test_every_end_placed_exactly_once():
    with pytest.raises(InvalidTrack):
        TrainTrack(
            "bad",
            ("a", "b"),
            (
                Switch("v", (end("a", "i"),), (end("a", "t"),)),
                Switch("w", (end("a", "i"),), (end("b", "i"), end("b", "t"))),
            ),
        ).validate()


def test_track_needs_an_edge():
    with pytest.raises(InvalidTrack, match="at least one edge"):
        TrainTrack("empty", (), ())


def test_duplicate_switch_name_rejected():
    sw = Switch("v", (end("a", "i"),), (end("a", "t"),))
    with pytest.raises(InvalidTrack):
        TrainTrack("bad", ("a",), (sw, sw))


def test_edge_labels_checked_on_every_track():
    sw = Switch("v", (end("a", "i"),), (end("a", "t"),))
    for _ in range(2):  # the check is cached per edge tuple, its failure is not
        with pytest.raises(InvalidTrack, match="duplicate edge labels"):
            TrainTrack("bad", ("a", "a"), (sw,))
        with pytest.raises(InvalidTrack, match="bad edge label '1a'"):
            TrainTrack("bad", ("1a",), (sw,))
    assert TrainTrack("ok", ["a"], (sw,)).edges == ["a"]


def test_orientation_exists_on_base_track():
    orient = base_track().orientation()
    assert set(orient) == set(base_track().edges)
    assert all(s in (1, -1) for s in orient.values())


def test_one_loop_circle_is_orientable():
    t = TrainTrack(
        "loop",
        ("a",),
        (Switch("v", (end("a", "i"),), (end("a", "t"),)),),
    )
    t.validate()
    assert t.orientation()["a"] in (1, -1)


def test_non_orientable_track_raises():
    # an edge with both ends on the same side cannot be coherently oriented
    t = TrainTrack(
        "mono",
        ("a", "b"),
        (Switch("v",
                (end("a", "i"), end("a", "t")),
                (end("b", "i"), end("b", "t"))),),
    )
    t.validate()
    with pytest.raises(NotOrientable):
        t.orientation()


def test_relabel_requires_bijection():
    with pytest.raises((InvalidTrack, UnknownEntry, KeyError, ValueError)):
        base_track().relabel({lab: "a" for lab in base_track().edges})
