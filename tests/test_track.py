"""Track structure: switches, ribbon boundaries, Euler data, isomorphism."""

from itertools import permutations, product
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ttlab.atlas import (
    D1,
    D1_PRIME,
    D2,
    D2_PRIME,
    INVOLUTION_PAIRS,
    atlas_names,
    base_track,
    entry,
    initial_track,
    twisted_track,
)
from ttlab.errors import InvalidTrack, NotOrientable, UnknownEntry
from ttlab.fileio import resolve_track
from ttlab.splitting import apply_split, legal_splits
from ttlab.track import (
    Switch,
    TrainTrack,
    arrival_end,
    departure_end,
    isomorphisms,
    tracks_equal,
)
from ttlab.words import (
    find_rotations,
    inverse,
    is_label,
    min_rotation,
    parse_word,
    word_key,
)


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
    t = base_track()
    autos = isomorphisms(t, t)
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


def _switch_alignments(sv, dv):
    """Candidate end pairings of sv onto dv, each side onto a side in
    order, under both presentations of dv; kind-flipping pairings drop."""
    la, lb = len(sv.side_a), len(sv.side_b)
    cands = []
    for pa, pb in ((dv.side_a, dv.side_b),
                   (tuple(reversed(dv.side_b)), tuple(reversed(dv.side_a)))):
        if len(pa) != la or len(pb) != lb:
            continue
        pairs = list(zip(sv.side_a, pa)) + list(zip(sv.side_b, pb))
        if all(se[1] == de[1] for se, de in pairs):
            cands.append(pairs)
    return cands


def _reference_isomorphisms(src, dst):
    """Reference: backtrack switch by switch over the alignments, as
    sorted label maps."""
    if len(src.edges) != len(dst.edges) or len(src.switches) != len(dst.switches):
        return []
    if src.side_profile != dst.side_profile:
        return []
    s_sw = sorted(src.switches, key=lambda sw: (-sw.valence, sw.name))
    found = set()

    def rec(i, used, lmap):
        if i == len(s_sw):
            found.add(tuple(sorted(lmap.items())))
            return
        sv = s_sw[i]
        for dv in dst.switches:
            if dv.name in used:
                continue
            for pairs in _switch_alignments(sv, dv):
                add = {}
                ok = True
                for se, de in pairs:
                    cur = lmap.get(se[0], add.get(se[0]))
                    if cur is None:
                        if de[0] in lmap.values() or de[0] in add.values():
                            ok = False
                            break
                        add[se[0]] = de[0]
                    elif cur != de[0]:
                        ok = False
                        break
                if ok:
                    rec(i + 1, used | {dv.name}, {**lmap, **add})

    rec(0, set(), {})
    return sorted(found)


def _assert_walk_matches_reference(src, dst):
    got = [iso.label_map for iso in isomorphisms(src, dst)]
    assert got == _reference_isomorphisms(src, dst)


SEEDS = st.sampled_from([base_track, twisted_track, initial_track])


def _walk(t, picks):
    for pick in picks:
        options = legal_splits(t)
        t, _ = apply_split(t, options[pick % len(options)])
    return t


@settings(max_examples=50, deadline=None)
@given(seeds=st.tuples(SEEDS, SEEDS),
       picks=st.tuples(*[st.lists(st.integers(0, 10**6), max_size=5)] * 2),
       image=st.permutations("abcdefghijkl"))
def test_walk_matches_backtracking_on_split_tracks(seeds, picks, image):
    t, u = (_walk(seed(), p) for seed, p in zip(seeds, picks))
    relabelled = u.relabel(dict(zip("abcdefghijkl", image)))
    for src, dst in ((t, u), (t, relabelled), (seeds[0](), relabelled),
                     (t, t.relabel(dict(zip("abcdefghijkl", image))))):
        _assert_walk_matches_reference(src, dst)


@st.composite
def _switch_block(draw, labels, n_max, prefix):
    """1..n_max switches holding exactly the ends of `labels`, sides mixing
    i and t ends."""
    ends = draw(st.permutations([(lab, k) for lab in labels for k in "it"]))
    n_sw = draw(st.integers(1, min(n_max, len(labels))))
    sizes = [2] * n_sw
    for i in draw(st.lists(st.integers(0, n_sw - 1),
                           min_size=len(ends) - 2 * n_sw,
                           max_size=len(ends) - 2 * n_sw)):
        sizes[i] += 1
    switches, at = [], 0
    for k, size in enumerate(sizes):
        cut = draw(st.integers(1, size - 1))
        part = tuple(ends[at:at + size])
        switches.append(Switch(f"{prefix}{k}", part[:cut], part[cut:]))
        at += size
    return tuple(switches)


@st.composite
def small_tracks(draw, n_edges):
    """Any track on `n_edges` edges and 1-4 switches; often disconnected,
    by chance or by being drawn as two blocks."""
    labels = "abcde"[:n_edges]
    cut = draw(st.integers(0, n_edges - 1))
    blocks = [labels[:cut], labels[cut:]] if cut else [labels]
    switches = ()
    for k, block in enumerate(blocks):
        switches += draw(_switch_block(block, 4 // len(blocks), f"v{k}_"))
    return TrainTrack("small", labels, switches)


@st.composite
def small_track_pairs(draw):
    """A small track and either an independent one of its size or a copy
    with edges relabelled, switches renamed, reordered and re-presented."""
    n = draw(st.integers(1, 5))
    src = draw(small_tracks(n))
    if draw(st.booleans()):
        return src, draw(small_tracks(n))
    image = draw(st.permutations("abcde"[:n]))
    t = src.relabel(dict(zip("abcde", image)))
    names = draw(st.permutations([f"w{k}" for k in range(len(t.switches))]))
    flips = draw(st.lists(st.booleans(), min_size=len(names),
                          max_size=len(names)))
    switches = [
        Switch(name, tuple(reversed(sw.side_b)), tuple(reversed(sw.side_a)))
        if flip else Switch(name, sw.side_a, sw.side_b)
        for sw, name, flip in zip(t.switches, names, flips)]
    return src, TrainTrack("copy", t.edges, tuple(draw(st.permutations(switches))))


# three components, so the walk grows every partial map by each in turn
THREE_CIRCLES = TrainTrack("circles", ("a", "b", "c"), tuple(
    Switch(v, ((x, "i"),), ((x, "t"),)) for v, x in zip("vwu", "abc")))


def test_three_circles_have_six_automorphisms():
    # each permutation of the circles, and nothing else
    isos = isomorphisms(THREE_CIRCLES, THREE_CIRCLES)
    assert [iso.labels for iso in isos] == [
        dict(zip("abc", p)) for p in permutations("abc")]


@settings(max_examples=200, deadline=None)
@given(pair=small_track_pairs())
@example(pair=(THREE_CIRCLES, THREE_CIRCLES))
def test_walk_matches_backtracking_on_small_tracks(pair):
    src, dst = pair
    for a, b in ((src, dst), (dst, src), (src, src)):
        _assert_walk_matches_reference(a, b)


@settings(max_examples=100, deadline=None)
@given(track=st.integers(1, 5).flatmap(small_tracks))
def test_each_signed_letter_once_across_boundaries_of_small_tracks(track):
    # every end departs exactly once along the boundary curves
    letters = [lt for c in track.boundary_curves for lt in c.word]
    assert sorted(letters) == sorted(
        (lab, s) for lab in track.edges for s in (1, -1))


def _assert_ribbon_invariants(track):
    """What every connected ribbon graph satisfies, so validate() does not
    check it.  If a change to construction breaks one, this fails."""
    curves = track.boundary_curves
    # the trace departs from every end exactly once
    assert sum(len(c.word) for c in curves) == 2 * len(track.edges)
    # the ribbon cycle A + reversed(B) has (|A| - 1) + (|B| - 1) junctions
    # that stay on one side
    assert sum(c.n_cusps for c in curves) == sum(
        len(sw.side_a) - 1 + len(sw.side_b) - 1 for sw in track.switches)
    # V - E + b is even, so the genus is an integer
    assert (2 - len(curves) - (len(track.switches) - len(track.edges))) % 2 == 0
    # every junction joins an arrival and a departure at one switch
    for c in curves:
        for j, lt in enumerate(c.word):
            assert (track.switch_of(arrival_end(c.word[j - 1]))
                    == track.switch_of(departure_end(lt)))


@settings(max_examples=200, deadline=None)
@given(track=st.integers(1, 5).flatmap(small_tracks).filter(
    lambda t: t.connected))
def test_ribbon_invariants_of_small_tracks(track):
    _assert_ribbon_invariants(track)


ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("spec", [
    *(f"atlas:{name}" for name in atlas_names()
      if ":" not in name and entry(name)[0] == "track"),
    "examples/h22_hyp.tt",
    "examples/h22_odd.tt",
])
def test_ribbon_invariants_of_catalogue_tracks_and_seeds(spec):
    if not spec.startswith("atlas:"):
        spec = str(ROOT / spec)
    _assert_ribbon_invariants(resolve_track(spec))


@pytest.mark.parametrize("spec", [
    "atlas:tau", "atlas:tau_prime", "atlas:tau_initial",
    "examples/h22_hyp.tt", "examples/h22_odd.tt",
])
def test_end_site_gives_a_side_by_its_switch_field(spec):
    # the side of a site indexes the Switch tuple: 1 is side_a, 2 side_b
    t = resolve_track(spec if spec.startswith("atlas:") else str(ROOT / spec))
    for track in (t, apply_split(t, legal_splits(t)[0])[0]):
        assert len(track.end_site) == 2 * len(track.edges)
        for e, (k, side, i) in track.end_site.items():
            assert side in (1, 2)
            assert track.switches[k][side][i] == e


def _coherent(track, orient):
    """Whether one side of every switch arrives and the other departs."""
    for sw in track.switches:
        arrives = [{(k == "t") == (orient[x] > 0) for x, k in side}
                   for side in (sw.side_a, sw.side_b)]
        if len(arrives[0]) != 1 or len(arrives[1]) != 1 or arrives[0] == arrives[1]:
            return False
    return True


@settings(max_examples=300, deadline=None)
@given(track=st.integers(1, 5).flatmap(small_tracks))
def test_orientation_matches_brute_force(track):
    coherent = [o for o in (dict(zip(track.edges, signs)) for signs in
                            product((1, -1), repeat=len(track.edges)))
                if _coherent(track, o)]
    if not coherent:
        with pytest.raises(NotOrientable):
            track.orientation()
    else:
        assert track.orientation() in coherent


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
            (Switch("v", (("a", "i"), ("a", "t")), ()),),
        ).validate()


def test_every_end_placed_exactly_once():
    with pytest.raises(InvalidTrack):
        TrainTrack(
            "bad",
            ("a", "b"),
            (
                Switch("v", (("a", "i"),), (("a", "t"),)),
                Switch("w", (("a", "i"),), (("b", "i"), ("b", "t"))),
            ),
        ).validate()


def test_disconnected_track_fails_validation():
    t = TrainTrack(
        "circles",
        ("a", "b"),
        (Switch("v", (("a", "i"),), (("a", "t"),)),
         Switch("w", (("b", "i"),), (("b", "t"),))),
    )
    with pytest.raises(InvalidTrack, match="not connected"):
        t.validate()


def test_declared_boundaries_must_be_traced_curves():
    # tau's d1 is a rotation of a traced word, d2 of an inverse; tau_prime
    # likewise
    for t in (base_track(), twisted_track()):
        ways = {n: [any(find_rotations(v, c.word) for c in t.boundary_curves)
                    for v in (w, inverse(w))]
                for n, w in t.declared_boundaries}
        assert ways == {"d1": [True, False], "d2": [False, True]}
    x = (Switch("v1", (("a", "t"), ("b", "i")),
                (("a", "i"), ("b", "t"))),)
    for word in ("a b", "b a", "-b -a", "-a", "b"):
        TrainTrack("x", ("a", "b"), x, (("outer", parse_word(word)),))
    # the traced curves are a b, -a and -b
    for word in ("b b a -b", "a -b", "a a"):
        with pytest.raises(InvalidTrack, match="not a boundary curve"):
            TrainTrack("x", ("a", "b"), x, (("outer", parse_word(word)),))


def test_track_needs_an_edge():
    with pytest.raises(InvalidTrack, match="at least one edge"):
        TrainTrack("empty", (), ())


def test_duplicate_switch_name_rejected():
    sw = Switch("v", (("a", "i"),), (("a", "t"),))
    with pytest.raises(InvalidTrack):
        TrainTrack("bad", ("a",), (sw, sw))


@pytest.mark.parametrize("name", ["two words", "", "v#1", "a]b", "tab\there"])
def test_tracks_reject_names_no_header_can_hold(name):
    # a document could not hold such a track, so none is built
    t = base_track()
    with pytest.raises(InvalidTrack, match="track name .* cannot head"):
        t.renamed(name)
    switches = (Switch(name, *t.switches[0].canonical_presentation()),
                *t.switches[1:])
    with pytest.raises(InvalidTrack, match="switch name .* cannot head"):
        TrainTrack(t.name, t.edges, switches)


def test_bare_switches_need_no_name():
    # a switch alone is a presentation, named only inside a track
    sw = Switch("", (("a", "i"),), (("a", "t"),))
    assert sw.canonical_presentation() == ((("a", "i"),), (("a", "t"),))


def test_edge_labels_checked_on_every_track():
    sw = Switch("v", (("a", "i"),), (("a", "t"),))
    for _ in range(2):  # every build checks the labels again
        with pytest.raises(InvalidTrack, match="duplicate edge labels"):
            TrainTrack("bad", ("a", "a"), (sw,))
        with pytest.raises(InvalidTrack, match="bad edge label '1a'"):
            TrainTrack("bad", ("1a",), (sw,))
    assert TrainTrack("ok", ["a"], (sw,)).edges == ["a"]


@pytest.mark.parametrize("label", ["source", "target"])
def test_map_keys_cannot_label_edges(label):
    # a map section names its tracks under these keys, so a map on a track
    # with such an edge would dump a key twice and not read back
    assert not is_label(label)
    sw = Switch("v", ((label, "i"),), ((label, "t"),))
    with pytest.raises(InvalidTrack, match=f"bad edge label '{label}': .*"
                       "'source' or 'target', which are reserved map keys"):
        TrainTrack("bad", (label,), (sw,))


def test_orientation_exists_on_base_track():
    orient = base_track().orientation()
    assert set(orient) == set(base_track().edges)
    assert all(s in (1, -1) for s in orient.values())


def test_one_loop_circle_is_orientable():
    t = TrainTrack(
        "loop",
        ("a",),
        (Switch("v", (("a", "i"),), (("a", "t"),)),),
    )
    t.validate()
    assert t.orientation()["a"] in (1, -1)


def test_non_orientable_track_raises():
    # an edge with both ends on the same side cannot be coherently oriented
    t = TrainTrack(
        "mono",
        ("a", "b"),
        (Switch("v",
                (("a", "i"), ("a", "t")),
                (("b", "i"), ("b", "t"))),),
    )
    t.validate()
    with pytest.raises(NotOrientable):
        t.orientation()


def test_relabel_requires_bijection():
    with pytest.raises((InvalidTrack, UnknownEntry, KeyError, ValueError)):
        base_track().relabel({lab: "a" for lab in base_track().edges})
