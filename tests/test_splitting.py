"""Elementary splits: legality, invariants, unsplit, sequences."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_words import join

from ttlab.atlas import base_track, initial_track, s1_moves, twisted_track
from ttlab.errors import IllegalMove, InvalidTrack, ParseError
from ttlab.incidence import incidence_matrix, mat_mult
from ttlab.morphism import compose, identity_morphism
from ttlab.splitting import (
    SplitMove,
    _Layout,
    _moved,
    _reject,
    _split,
    apply_sequence,
    apply_split,
    format_sequence,
    legal_splits,
    parse_move,
    parse_sequence,
    split_switches,
    unsplit,
)
from ttlab.track import Switch, TrainTrack, flip_end, tracks_equal
from ttlab.words import inverse


def test_parse_and_format_move():
    mv = parse_move("i(b)/t(l)")
    assert mv.slid == ("b", "i")
    assert mv.over == ("l", "t")
    assert str(mv) == "i(b)/t(l)"


def test_parse_sequence_text():
    moves = parse_sequence("i(b)/t(l); t(b)/i(d)")
    assert len(moves) == 2
    assert format_sequence(moves) == "i(b)/t(l); t(b)/i(d)"


def test_parse_sequence_rejects_garbage():
    with pytest.raises(ParseError):
        parse_sequence("i(b)/t(l); nope")
    for token in ("i(b)", "i(b)/", "i(b)/t(l)/t(c)", "i(b)/t(l\n)", "x(b)/t(l)"):
        with pytest.raises(ParseError, match="bad move token"):
            parse_move(token)


def test_parse_sequence_line_offset():
    try:
        parse_sequence("i(b)/t(l)\nbad", line=10)
    except ParseError as err:
        assert err.line == 11
    else:
        raise AssertionError("expected ParseError")


def test_parse_sequence_reports_the_token_column():
    # the bad token also occurs inside an earlier one
    with pytest.raises(ParseError) as exc:
        parse_sequence("t(a)/i(bb);b")
    assert (exc.value.line, exc.value.col) == (1, 12)


def test_legal_split_counts():
    assert len(legal_splits(base_track())) == 24
    assert len(legal_splits(twisted_track())) == 24
    assert len(legal_splits(initial_track())) == 24


def test_illegal_move_rejected():
    t = base_track()
    mv = SplitMove(("a", "i"), ("a", "t"))
    with pytest.raises(IllegalMove):
        apply_split(t, mv)


# (moves from tau to the track, the move, its reason, its message)
ILLEGAL = [
    ("", "t(z)/i(c)", "missing-end", "t(z)/i(c): no end t(z)"),
    ("", "t(c)/i(z)", "missing-end", "t(c)/i(z): no end i(z)"),
    ("", "t(a)/i(a)", "same-edge",
     "t(a)/i(a): cannot slide an edge over itself"),
    ("", "t(l)/i(b)", "different-switches",
     "t(l)/i(b): ends sit at different switches v1, v3"),
    ("", "t(l)/t(e)", "same-side", "t(l)/t(e): ends sit on the same side"),
    ("t(e)/i(a)", "t(l)/i(c)", "valence",
     "t(l)/i(c): switch v1 has valence 3 < 4"),
    ("t(e)/i(a); i(e)/t(a)", "i(d)/t(c)", "thin-side",
     "i(d)/t(c): slid side of v2 would empty out"),
    ("", "t(l)/i(a)", "not-adjacent",
     "t(l)/i(a): ends are not ribbon-adjacent at an extremity of v1"),
    ("t(e)/i(a)", "t(e)/i(d)", "not-adjacent",
     "t(e)/i(d): ends are not ribbon-adjacent at an extremity of v2"),
]


@pytest.mark.parametrize("prefix, token, reason, message", ILLEGAL,
                         ids=[f"{c[2]}:{c[1]}" for c in ILLEGAL])
def test_every_illegal_move_reason(prefix, token, reason, message):
    t = apply_sequence(base_track(), parse_sequence(prefix)).final
    mv = parse_move(token)
    assert mv not in legal_splits(t)
    with pytest.raises(IllegalMove) as exc:
        apply_split(t, mv)
    assert exc.value.reason == reason
    assert str(exc.value) == message
    assert exc.value.move == mv


def test_apply_sequence_reports_failing_index():
    t = base_track()
    bad = SplitMove(("a", "i"), ("a", "t"))
    for k in (0, 1, 4):
        walk, _ = _picked_walk(t, [5, 17, 2, 9][:k])
        moves = walk + (bad, legal_splits(t)[0])
        with pytest.raises(IllegalMove) as exc:
            apply_sequence(t, moves)
        err = exc.value
        assert err.index == k
        assert err.move == bad and err.reason == "same-edge"
        assert str(err) == \
            f"move {k}: i(a)/t(a): cannot slide an edge over itself"
        # the track reached before move k, built and validated
        assert isinstance(err.track, TrainTrack)
        assert err.track.switches == \
            apply_sequence(t, moves[:k]).final.switches


def test_split_morphism_shape():
    t = base_track()
    mv = legal_splits(t)[0]
    child, m = apply_split(t, mv)
    assert m.source is child and m.target is t
    m.check()
    # exactly one edge image grew to two letters
    lengths = sorted(len(w) for _, w in m.images)
    assert lengths == [1] * 11 + [2]


def test_split_preserves_counts_and_type():
    t = base_track()
    d0 = t.validate()
    for mv in legal_splits(t):
        child, _ = apply_split(t, mv)
        d = child.validate()
        assert d.n_edges == d0.n_edges
        assert d.n_switches == d0.n_switches
        assert d.chi == d0.chi
        assert d.n_boundaries == d0.n_boundaries
        assert sorted(d.cusp_counts) == sorted(d0.cusp_counts)
        assert d.coherently_orientable == d0.coherently_orientable


def test_unsplit_inverts_every_legal_split():
    t = base_track()
    for mv in legal_splits(t):
        child, _ = apply_split(t, mv)
        back, _ = unsplit(child, mv)
        assert tracks_equal(back, t)


def test_unsplit_candidates_never_split_to_one_track():
    # unsplit puts the slid end first or last on the side opposite the over
    # end; the move slides the first end on one candidate and the last on
    # the other, so their splits put the slid end on either side of the far
    # end of the over edge, and unsplit never has two tracks to choose from.
    # Both candidates are legal only when the over end is alone on its side.
    both = 0
    for seed in (base_track(), initial_track(), twisted_track()):
        for t in [seed] + [apply_split(seed, mv)[0] for mv in legal_splits(seed)]:
            for over, (v, side_o, _) in t.end_site.items():
                sw = t.switches[v]
                if len(sw[side_o]) > 1:
                    continue
                opp = 3 - side_o
                for slid in t.end_site:
                    mv, splits = SplitMove(slid, over), []
                    for at in (0, len(sw[opp])):
                        try:
                            cand = TrainTrack(t.name, t.edges,
                                              _moved(t, slid, v, opp, at)[0])
                            splits.append(split_switches(cand, mv))
                        except (IllegalMove, InvalidTrack):
                            continue
                    assert len(set(splits)) == len(splits)
                    both += len(splits) == 2
    assert both > 1000


def test_unsplit_rejects_unfoldable_and_unknown_ends():
    t = base_track()
    # t(l) sits at v1, the far end t(c) of the over edge at v2
    with pytest.raises(IllegalMove) as exc:
        unsplit(t, parse_move("t(l)/i(c)"))
    assert exc.value.reason == "not-foldable"
    with pytest.raises(IllegalMove) as exc:
        unsplit(t, parse_move("t(z)/i(c)"))
    assert exc.value.reason == "missing-end"


def test_s1_runs_from_initial_track():
    run = apply_sequence(initial_track(), s1_moves())
    assert tracks_equal(run.final, base_track())
    run.morphism.check()


# ----------------------------------------------------------------------
# seeded random walks


def _random_walk(rng, start, depth):
    t = start
    moves = []
    for _ in range(depth):
        options = legal_splits(t)
        mv = options[rng.randrange(len(options))]
        t, _ = apply_split(t, mv)
        moves.append(mv)
    return moves


def test_random_split_walks_preserve_invariants():
    rng = random.Random(4021)
    d0 = base_track().validate()
    for _ in range(50):
        t = base_track()
        for mv in _random_walk(rng, t, rng.randrange(1, 5)):
            t, m = apply_split(t, mv)
            m.check()
        d = t.validate()
        assert (d.n_edges, d.n_switches, d.chi, d.n_boundaries) == \
            (d0.n_edges, d0.n_switches, d0.chi, d0.n_boundaries)
        assert sorted(d.cusp_counts) == sorted(d0.cusp_counts)
        assert d.coherently_orientable


def test_random_walks_unsplit_back_to_start():
    rng = random.Random(977)
    for _ in range(30):
        start = base_track()
        moves = _random_walk(rng, start, rng.randrange(1, 6))
        run = apply_sequence(start, moves)
        t = run.final
        for mv in reversed(moves):
            t, _ = unsplit(t, mv)
        assert tracks_equal(t, start)


def _picked_walk(t, picks):
    """A legal walk from `t`, each move the pick-th option modulo their
    number, until the picks run out or no move is legal; returns the moves
    and the final track."""
    moves = []
    for pick in picks:
        options = legal_splits(t)
        if not options:
            break
        moves.append(options[pick % len(options)])
        t, _ = apply_split(t, moves[-1])
    return tuple(moves), t


STARTS = st.sampled_from([base_track, twisted_track, initial_track])
PICKS = st.lists(st.integers(min_value=0, max_value=10**6), max_size=8)


def _reversed_edges(t, labels):
    """`t` with the ends of the edges in `labels` swapped, so sides mix i
    and t ends and moves ride edges backwards (negative ride letters)."""
    def ends(side):
        return tuple(flip_end(e) if e[0] in labels else e for e in side)
    return TrainTrack(t.name, t.edges, tuple(
        Switch(sw.name, ends(sw.side_a), ends(sw.side_b)) for sw in t.switches))


def _one_sided_edge_track():
    """A track with an edge whose two ends sit on one side of a switch:
    sliding t(b) over t(y) puts t(b) next to i(y), on the other side of the
    slid end's own switch, which no move from the atlas seeds does."""
    return TrainTrack("one_sided", ("a", "b", "y"), (
        Switch("v", (("a", "i"), ("b", "t")), (("y", "i"), ("y", "t"))),
        Switch("w", (("a", "t"),), (("b", "i"),))))


# the atlas seeds, and one whose sides mix i and t ends
WALK_SEEDS = [base_track, twisted_track, initial_track,
              lambda: _reversed_edges(base_track(), "acfhk")]
WALK_STARTS = st.sampled_from(WALK_SEEDS)
# and one whose walks reach every placement of the slid end
KERNEL_STARTS = st.sampled_from(WALK_SEEDS + [_one_sided_edge_track])


@settings(max_examples=50, deadline=None)
@given(start=KERNEL_STARTS,
       picks=st.lists(st.integers(min_value=0, max_value=10**6),
                      min_size=1, max_size=6))
def test_kernel_matches_apply_split_and_unsplit_undoes_it(start, picks):
    t = start()
    for pick in picks:
        options = legal_splits(t)
        if not options:
            break
        mv = options[pick % len(options)]
        child, step = apply_split(t, mv)
        assert split_switches(t, mv) == child.switches
        back, fold = unsplit(child, mv)
        assert back.canonical_key == t.canonical_key
        # one move has one morphism, whichever way it is reached
        assert (fold.images, fold.name) == (step.images, step.name)
        assert apply_sequence(t, (mv,)).morphism.images == step.images
        t = child


@settings(max_examples=60, deadline=None)
@given(start=KERNEL_STARTS, picks=PICKS)
def test_legal_splits_are_exactly_the_legal_moves(start, picks):
    _, t = _picked_walk(start(), picks)
    legal = set(legal_splits(t))
    for slid in t.end_site:
        for over in t.end_site:
            mv = SplitMove(slid, over)
            if mv in legal:
                apply_split(t, mv)
            else:
                with pytest.raises(IllegalMove):
                    apply_split(t, mv)


@settings(max_examples=30, deadline=None)
@given(start=STARTS, picks=PICKS)
def test_sequence_text_round_trip(start, picks):
    moves, _ = _picked_walk(start(), picks)
    assert parse_sequence(format_sequence(moves)) == moves


@settings(max_examples=60, deadline=None)
@given(start=WALK_STARTS,
       picks=st.lists(st.integers(min_value=0, max_value=10**6), max_size=30))
def test_layout_sites_match_the_built_track(start, picks):
    # a run of splits re-sites only the ends each move shifted; the sites
    # must be those of a track built and validated afresh
    t0 = start()
    sites = dict(t0.end_site)
    layout = _Layout(t0)
    for pick in picks:
        options = legal_splits(layout)
        layout.split(*_split(layout, options[pick % len(options)]))
        built = TrainTrack(t0.name, t0.edges, layout.switches)
        assert layout.end_site == built.end_site
    assert t0.end_site == sites  # the start's own sites stay put


@settings(max_examples=60, deadline=None)
@given(start=WALK_STARTS,
       picks=st.lists(st.integers(min_value=0, max_value=10**6), max_size=40))
def test_sequence_morphism_is_the_composite_of_its_splits(start, picks):
    t0 = start()
    moves, _ = _picked_walk(t0, picks)
    run = apply_sequence(t0, moves)
    # reference: compose every step's morphism onto the identity
    t, composite = t0, identity_morphism(t0)
    for mv in moves:
        t, step = apply_split(t, mv)
        composite = compose(composite, step)
    assert run.final.switches == t.switches
    assert run.morphism == composite
    assert run.morphism.name == composite.name
    assert run.morphism.source is run.final and run.morphism.target is t0


@settings(max_examples=60, deadline=None)
@given(start=WALK_STARTS,
       picks=st.lists(st.integers(min_value=0, max_value=10**6), max_size=40))
def test_sequence_images_are_the_stepwise_joins(start, picks):
    # reference: every move joins the current images of x and r into the
    # new image of x (x r for t(x), r^-1 x for i(x); r = y over i(y) and
    # y^-1 over t(y)), reduced at the seam, as the words grow
    t0 = start()
    moves, _ = _picked_walk(t0, picks)
    images = {lab: ((lab, 1),) for lab in t0.edges}
    for mv in moves:
        (x, kind), (y, over) = mv.slid, mv.over
        ride = images[y] if over == "i" else inverse(images[y])
        images[x] = (join(images[x], ride) if kind == "t"
                     else join(inverse(ride), images[x]))
    assert apply_sequence(t0, moves).morphism.mapping == images


@settings(max_examples=40, deadline=None)
@given(start=STARTS, picks=st.lists(st.integers(min_value=0, max_value=10**6),
                                    max_size=12))
def test_sequence_incidence_is_the_product_of_its_splits(start, picks):
    # M(f . g) = M(g) M(f): the run's morphism is step 1 after step 2 after
    # ..., so the first step's matrix comes last in the product
    t0 = start()
    moves, _ = _picked_walk(t0, picks)
    run = apply_sequence(t0, moves)
    t, product = t0, incidence_matrix(identity_morphism(t0)).data
    for mv in moves:
        t, step = apply_split(t, mv)
        product = mat_mult(incidence_matrix(step).data, product)
    assert incidence_matrix(run.morphism).data == tuple(map(tuple, product))


# ----------------------------------------------------------------------
# the split kernel against the one it replaced


def _reference_moves_at(sw):
    """The legal moves at `sw` as (slid, over, case).
    after:  sigma(slid) == over  (pairs A[-1]/B[-1] and B[0]/A[0])
    before: sigma(over) == slid  (pairs B[-1]/A[-1] and A[0]/B[0])"""
    a, b = sw.side_a, sw.side_b
    if len(a) + len(b) < 4:
        return []
    return [(slid, over, case)
            for slid_side, slid, over, case in ((a, a[-1], b[-1], "after"),
                                                (b, b[-1], a[-1], "before"),
                                                (a, a[0], b[0], "before"),
                                                (b, b[0], a[0], "after"))
            if len(slid_side) > 1 and slid[0] != over[0]]


def _reference_split(track, move):
    """Reference: classify `move` by listing every move at the slid end's
    switch, rebuild the sides it touches as lists, and return the switches
    with the positions of the switches rebuilt."""
    site = track.end_site.get(move.slid)
    cases = [] if site is None else [
        case for slid, over, case in _reference_moves_at(
            track.switches[site[0]])
        if (slid, over) == (move.slid, move.over)]
    if not cases:
        _reject(track, move)
    far = flip_end(move.over)
    d, side_f, _ = track.end_site[far]
    s, side_e, idx = site
    switches = list(track.switches)
    sides = {k: (list(switches[k].side_a), list(switches[k].side_b))
             for k in (s, d)}
    del sides[s][side_e - 1][idx]
    ends = sides[d][side_f - 1]
    step = (cases[0] == "after") == (side_f == 1)
    ends.insert(ends.index(far) + step, move.slid)
    for k, (a, b) in sides.items():
        switches[k] = Switch(switches[k].name, tuple(a), tuple(b))
    return tuple(switches), tuple(sides)


def _kernel_step(layout, mv):
    """Check the kernel on `mv` against the reference, which re-sites every
    end of the switches it rebuilt; returns the layout `mv` splits `layout`
    into, or None when `mv` is illegal."""
    try:
        want, rebuilt = _reference_split(layout, mv)
    except IllegalMove as exc:
        with pytest.raises(IllegalMove) as got:
            _split(layout, mv)
        assert (got.value.reason, str(got.value)) == (exc.reason, str(exc))
        return None
    switches, shifted = _split(layout, mv)
    assert switches == want
    child, sites = _Layout(layout), dict(layout.end_site)
    child.split(switches, shifted)
    for k in rebuilt:
        sw = switches[k]
        for side, ends in ((1, sw.side_a), (2, sw.side_b)):
            for i, e in enumerate(ends):
                sites[e] = (k, side, i)
    assert child.end_site == sites
    return child


@settings(max_examples=80, deadline=None)
@given(start=KERNEL_STARTS,
       steps=st.lists(st.tuples(*[st.integers(0, 10**6)] * 3), max_size=25))
def test_kernel_matches_the_reference_kernel(start, steps):
    # each step tries an arbitrary pair of ends, mostly illegal, then walks
    # on by a legal move; an end not on the track is among the pairs
    layout = _Layout(start())
    pool = sorted(layout.end_site) + [("z", "t")]
    for pick, slid, over in steps:
        _kernel_step(layout, SplitMove(pool[slid % len(pool)],
                                       pool[over % len(pool)]))
        options = legal_splits(layout)
        if not options:
            break
        layout = _kernel_step(layout, options[pick % len(options)])


def test_far_end_on_the_other_side_of_the_slid_switch():
    t = _one_sided_edge_track()
    mv = parse_move("t(b)/t(y)")
    # t(b) was last on A and joins B before i(y), which is first there
    assert split_switches(t, mv)[0] == Switch(
        "v", (("a", "i"),), (("b", "t"), ("y", "i"), ("y", "t")))
    layout = _Layout(t)
    layout.split(*_split(layout, mv))
    assert layout.end_site == apply_split(t, mv)[0].end_site
    assert tracks_equal(unsplit(apply_split(t, mv)[0], mv)[0], t)
