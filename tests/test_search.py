"""Loop search over splitting sequences, and sequence replay."""

import json
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ttlab.atlas import (
    TWIST_GI_TEXT,
    atlas,
    base_track,
    identification_ii,
    initial_track,
    phi,
    phi1,
    phi2,
    phi3,
    s1_moves,
    splitting_sequence,
    t_gi,
    twisted_track,
)
from ttlab.certify import certify, render_text, to_json_dict
from ttlab.errors import (
    BadIndex,
    IllegalMove,
    NotAnIdentification,
    ResourceLimit,
)
from ttlab.fileio import resolve_track
from ttlab.incidence import incidence_matrix
from ttlab.morphism import TrackMorphism, compose, compose_chain
from ttlab import search as search_module
from ttlab import splitting
from ttlab.search import (
    MAX_DEPTH,
    LoopResult,
    SearchConfig,
    _LoopSearch,
    replay,
    search_loops,
)
from ttlab.splitting import (
    SplitMove,
    apply_sequence,
    apply_split,
    format_sequence,
    legal_splits,
    parse_sequence,
    split_switches,
)
from ttlab.track import flip_end, isomorphisms, side_profile
from ttlab.words import format_word


@pytest.fixture(scope="module")
def census():
    return search_loops(twisted_track(), SearchConfig(max_depth=4))


def test_no_loops_below_depth_four():
    assert search_loops(base_track(), SearchConfig(max_depth=1)) == ()
    assert search_loops(twisted_track(), SearchConfig(max_depth=3)) == ()


def test_census_size_and_shape(census):
    assert len(census) == 80
    assert all(isinstance(r, LoopResult) for r in census)
    assert all(len(r.sequence) == 4 for r in census)
    assert all(len(r.identifications) == 2 for r in census)
    assert all(len(r.self_maps) == 2 for r in census)
    assert all(r.seed.name == "tau_prime" for r in census)


def test_census_closures_all_reducible(census):
    # a four move loop always carries an invariant edge set
    assert all(len(r.certificates) == 2 for r in census)
    assert {c.verdict for r in census for c in r.certificates} == {"reducible"}


def test_census_sequences_replay_cleanly(census):
    for r in census[:10]:
        run = apply_sequence(r.seed, r.sequence)
        assert run.morphism.mapping == r.composite.mapping
    for r in census:
        for sm in r.self_maps:
            sm.check()
            assert sm.source.name == sm.target.name


@pytest.mark.parametrize("make_seed, depth", [
    (twisted_track, 4), (base_track, 4), (initial_track, 5)])
def test_search_loops_match_their_replays(make_seed, depth):
    # search_loops packages each loop from the track and isomorphisms its
    # search closed on, without splitting; replay splits the loop again
    # from the seed with apply_sequence and tests for isomorphisms afresh
    seed = make_seed()
    loops = search_loops(seed, SearchConfig(max_depth=depth, certify=False))
    assert loops
    for r in loops:
        again = replay(seed, r.sequence, config=SearchConfig(certify=False))
        assert r.composite.images == again.composite.images
        assert r.composite.name == again.composite.name
        assert r.final.switches == again.final.switches
        assert r.identifications == again.identifications
        assert [(sm.name, sm.images) for sm in r.self_maps] == \
            [(sm.name, sm.images) for sm in again.self_maps]


def test_twist_loop_found(census):
    hits = [r for r in census if format_sequence(r.sequence) == TWIST_GI_TEXT]
    assert len(hits) == 1
    loop = hits[0]
    assert loop.composite.mapping == t_gi().mapping
    swap = dict(loop.identifications[0].labels)
    assert swap["i"] == "g" and swap["g"] == "i"
    assert all(swap[c] == c for c in "abcdefhjkl")
    words = {k: format_word(w) for k, w in loop.self_maps[0].mapping.items()}
    assert words == {
        "a": "a", "b": "b", "c": "c", "d": "d", "e": "e", "f": "f i",
        "g": "i", "h": "h", "i": "g", "j": "i j", "k": "g k g", "l": "l",
    }


def test_census_boundary_points_count_the_boundary_warnings(census):
    sides = [c.sides for r in census for c in r.certificates]
    assert len(sides) == 160
    assert {sd.boundary_points for sd in sides} == {4, 8}
    for sd in sides:
        assert sd.boundary_points == sum(
            "boundary of letter" in w for w in sd.warnings)


def test_filters_drop_reducible_loops(census):
    cfg = SearchConfig(max_depth=4, require_fixed_point_free=True)
    assert search_loops(twisted_track(), cfg) == ()
    cfg = SearchConfig(max_depth=4, require_irreducible=True)
    assert search_loops(twisted_track(), cfg) == ()


def test_node_budget():
    with pytest.raises(ResourceLimit):
        search_loops(twisted_track(), SearchConfig(max_depth=4, max_nodes=10))


def test_default_node_budget_is_finite():
    assert isinstance(SearchConfig().max_nodes, int)
    assert 0 < SearchConfig().max_nodes < 10**6


def test_census_node_budget_is_exact():
    cfg = SearchConfig(max_depth=4, certify=False, max_nodes=534)
    assert len(search_loops(twisted_track(), cfg)) == 80
    with pytest.raises(ResourceLimit):
        search_loops(twisted_track(),
                     SearchConfig(max_depth=4, certify=False, max_nodes=533))


def test_census_memo_sizes():
    # the memo is keyed on switch tuples, which partition the tracks as
    # whole-track structure keys do (see the depth-five test below)
    seed = twisted_track()
    search = _LoopSearch(seed, SearchConfig(max_depth=4))
    assert len(search.suffixes(seed, 4)) == 80
    assert [len(m) for m in search.memo[1:]] == [220, 260, 24]
    assert len(search.closes) == 32
    assert search.nodes == 534


def test_search_loops_splits_only_in_its_search(monkeypatch):
    # a found loop is packaged from the closure its search ended on, so the
    # census makes exactly the splits of the search itself
    seed, split, calls = twisted_track(), splitting._split, []

    def counted(track, move):
        calls.append(move)
        return split(track, move)

    for module in (search_module, splitting):
        monkeypatch.setattr(module, "_split", counted)
    _LoopSearch(seed, SearchConfig(max_depth=4)).suffixes(seed, 4)
    assert len(calls) == 1100
    calls.clear()
    assert len(search_loops(seed, SearchConfig(max_depth=4, certify=False))) == 80
    assert len(calls) == 1100


def test_depth_six_search_counters():
    # the budget counts expansions, memo misses plus leaf isomorphism
    # checks, however many tracks the search builds
    seed = twisted_track()
    search = _LoopSearch(seed, SearchConfig(max_depth=6))
    assert len(search.suffixes(seed, 6)) == 512
    assert search.nodes == 7345
    assert [len(m) for m in search.memo] == [0, 1485, 3630, 1796, 260, 24]
    assert len(search.closes) == 164


@pytest.mark.parametrize("make_seed, nodes", [
    (base_track, 1678), (initial_track, 1680), (twisted_track, 1678)])
def test_depth_five_memo_keys_are_distinct_structures(make_seed, nodes):
    # splitting keeps switch names and order, so no two switch tuples that
    # key one memo level, or the closure cache, present one structure
    seed = make_seed()
    search = _LoopSearch(seed, SearchConfig(max_depth=5))
    assert len(search.suffixes(seed, 5)) == 208
    assert search.nodes == nodes
    assert [len(m) for m in search.memo] == [0, 446, 880, 260, 24]
    assert len(search.closes) == 76
    for keys in (*search.memo, search.closes):
        structures = {tuple((sw.name, sw.canonical_presentation())
                            for sw in switches) for switches in keys}
        assert len(structures) == len(keys)


def _counter_lacking(profile, seed):
    return sum((Counter(profile) - Counter(seed)).values())


def _check_moves(track, seed):
    """_weighed lists the legal moves, each with the count of side sizes of
    the track it splits into that the seed's profile, or the parent's,
    lacks; a move changes that count by at most two.  Returns the (slid,
    far) side pairs met."""
    for ref in (seed, track):
        weighed = list(_LoopSearch(ref, SearchConfig())._weighed(track))
        moves = [SplitMove(slid, over) for slid, over, _ in weighed]
        assert sorted(moves, key=str) == list(legal_splits(track))
        for slid, over, lacking in weighed:
            split = side_profile(split_switches(track, SplitMove(slid, over)))
            assert lacking == _counter_lacking(split, ref.side_profile)
            assert abs(lacking - _counter_lacking(track.side_profile,
                                                  ref.side_profile)) <= 2
    return {(track.end_site[slid][:2], track.end_site[flip_end(over)][:2])
            for slid, over, _ in weighed}


@settings(max_examples=60, deadline=None)
@given(start=st.sampled_from([base_track, twisted_track, initial_track]),
       picks=st.lists(st.integers(min_value=0, max_value=10**6), max_size=8))
def test_leaf_profiles_are_the_split_tracks_profiles(start, picks):
    t = start()
    for pick in picks:
        options = legal_splits(t)
        t, _ = apply_split(t, options[pick % len(options)])
    _check_moves(t, start())


def test_leaf_profiles_of_moves_onto_the_slid_ends_switch():
    # after one split, some moves put the slid end back on its own side
    sites = set()
    for start in (base_track, twisted_track, initial_track):
        for mv in legal_splits(start()):
            sites |= _check_moves(apply_split(start(), mv)[0], start())
    assert any(src == far for src, far in sites)


@settings(max_examples=200, deadline=None)
@given(start=st.sampled_from([base_track, twisted_track, initial_track]),
       picks=st.lists(st.integers(min_value=0, max_value=10**6), max_size=6),
       ref=st.lists(st.integers(min_value=0, max_value=6), max_size=16))
def test_lacking_counts_the_multiset_difference(start, picks, ref):
    # against any reference multiset, not only the profiles of tracks
    t = start()
    for pick in picks:
        options = legal_splits(t)
        t, _ = apply_split(t, options[pick % len(options)])
    search = _LoopSearch(start(), SearchConfig())
    search.seed_counts = Counter(ref)
    for slid, over, lacking in search._weighed(t):
        split = side_profile(split_switches(t, SplitMove(slid, over)))
        assert lacking == _counter_lacking(split, ref)


@pytest.mark.parametrize("cfg", [
    SearchConfig(max_depth=-1),
    SearchConfig(max_depth=MAX_DEPTH + 1),
    SearchConfig(max_depth=1, certify=False, max_nodes=0),
    SearchConfig(max_depth=2, certify=False, max_nodes=-5),
    SearchConfig(max_depth=1, certify=False, tolerance=float("nan")),
    SearchConfig(max_depth=1, certify=False, tolerance=0.0),
])
def test_bad_search_parameters_rejected(cfg):
    with pytest.raises(BadIndex):
        search_loops(base_track(), cfg)


def _plain_dfs(seed, max_depth):
    """Reference enumerator: the unmemoized search, one apply_split per edge
    of the split tree.  Maps each closing sequence to its closures as
    (label map, switch map, self-map images)."""
    found = {}

    def walk(track, moves, steps):
        if moves:
            closures = []
            for iso in isomorphisms(seed, track):
                composite = compose_chain(steps)
                there = TrackMorphism(seed, track, {
                    x: ((y, 1),) for x, y in iso.label_map})
                images = compose(there, composite).images
                closures.append((iso.label_map, iso.switch_map, images))
            if closures:
                found[tuple(str(m) for m in moves)] = closures
        if len(moves) == max_depth:
            return
        for mv in legal_splits(track):
            child, step = apply_split(track, mv)
            walk(child, moves + [mv], steps + [step])

    walk(seed, [], [])
    return found


def _closures(loops):
    return {
        tuple(str(m) for m in r.sequence): [
            (iso.label_map, iso.switch_map, sm.images)
            for iso, sm in zip(r.identifications, r.self_maps)
        ]
        for r in loops
    }


@pytest.mark.parametrize("make_seed", [base_track, initial_track,
                                       twisted_track])
def test_memoized_search_matches_plain_dfs_to_depth_three(make_seed):
    # no atlas seed closes a loop in under four moves, so this checks that
    # the memo invents no closure; the census below checks real ones
    seed = make_seed()
    loops = search_loops(seed, SearchConfig(max_depth=3, certify=False))
    assert _closures(loops) == _plain_dfs(seed, 3)


def test_memoized_census_matches_plain_dfs(census):
    want = _plain_dfs(twisted_track(), 4)
    assert len(want) == 80
    assert _closures(census) == want
    assert [tuple(str(m) for m in r.sequence) for r in census] == sorted(want)


def _conjugate(m, iso, src):
    """The self map m carried onto `src` by iso: src -> m.source."""
    there = TrackMorphism(src, m.source,
                          {x: ((y, 1),) for x, y in iso.label_map})
    back = TrackMorphism(m.source, src,
                         {y: ((x, 1),) for x, y in iso.label_map})
    return compose(back, compose(m, there))


def _assert_conjugate_certifies_alike(m, cert, iso, src):
    moved = certify(_conjugate(m, iso, src))
    assert moved.verdict == cert.verdict
    assert moved.fixed_point_free == cert.fixed_point_free
    assert moved.primitivity == cert.primitivity
    if cert.perron is None:
        assert moved.perron is None
    else:
        assert (moved.perron.lower, moved.perron.upper,
                moved.perron.iterations) == \
            (cert.perron.lower, cert.perron.upper, cert.perron.iterations)
    back = {y: x for x, y in iso.label_map}
    mm = moved.matrix
    for r, row in zip(cert.matrix.rows, cert.matrix.data):
        for c, x in zip(cert.matrix.cols, row):
            assert mm.data[mm.rows.index(back[r])][mm.cols.index(back[c])] == x


@pytest.mark.parametrize("name", ["phi1", "phi3", "phi:5", "psi:2"])
def test_certificates_survive_conjugation_onto_tau_prime(name):
    m = atlas(name)
    cert = certify(m)
    isos = isomorphisms(twisted_track(), base_track())
    assert len(isos) == 2
    for iso in isos:
        _assert_conjugate_certifies_alike(m, cert, iso, twisted_track())


def test_census_certificates_survive_conjugation_onto_the_seed(census):
    for r in census:
        isos = isomorphisms(r.seed, r.final)
        assert len(isos) == 2
        for sm, cert in zip(r.self_maps, r.certificates, strict=True):
            for iso in isos:
                _assert_conjugate_certifies_alike(sm, cert, iso, r.seed)


def test_census_certifies_each_distinct_closure_once(monkeypatch):
    calls = []

    def counted(m, tol):
        calls.append(m.name)
        return certify(m, tol=tol)

    monkeypatch.setattr("ttlab.search.certify", counted)
    loops = search_loops(twisted_track(), SearchConfig(max_depth=4))
    assert sum(len(r.certificates) for r in loops) == 160
    assert len(calls) == 22


def test_shared_certificates_match_fresh_ones(census):
    for r in census:
        for sm, cert in zip(r.self_maps, r.certificates, strict=True):
            assert cert.map_name == sm.name
            fresh = certify(sm)
            assert json.dumps(to_json_dict(cert), indent=2, sort_keys=True) \
                == json.dumps(to_json_dict(fresh), indent=2, sort_keys=True)
            assert render_text(cert) == render_text(fresh)


def _components(arcs):
    """The strongly connected components of the digraph `arcs`, which maps
    each node to the nodes it has arcs to."""
    reach = {}
    for x in arcs:
        seen, todo = {x}, [x]
        while todo:
            for y in arcs[todo.pop()] - seen:
                seen.add(y)
                todo.append(y)
        reach[x] = seen
    return {"".join(sorted(y for y in reach[x] if x in reach[y]))
            for x in arcs}


def test_depth_four_closures_share_four_components(census):
    # conjugated onto the seed, every closure's incidence digraph lies in
    # one union whose components are these four, so no product of the
    # closures is irreducible
    from_tau = search_loops(base_track(),
                            SearchConfig(max_depth=4, certify=False))
    for loops in (census, from_tau):
        assert len(loops) == 80
        arcs = {lab: set() for lab in loops[0].seed.edges}
        for r in loops:
            for iso, sm in zip(r.identifications, r.self_maps, strict=True):
                mat = incidence_matrix(_conjugate(sm, iso, r.seed))
                for lab, row in zip(mat.rows, mat.data):
                    arcs[lab].update(c for c, x in zip(mat.cols, row) if x)
        assert _components(arcs) == {"acegik", "bh", "dj", "fl"}


# One-switch tracks of two 7-letter interval exchanges in H(2,2): the
# hyperelliptic class (reverse permutation) and the odd class.  At their one
# switch the four legal moves are the left and right Rauzy-Veech moves.
EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


@pytest.mark.parametrize("seed, depth, n_loops, verdicts", [
    ("h22_hyp", 6, 268, {"pA": 108, "reducible": 160}),
    ("h22_odd", 7, 1037, {"reducible": 1037}),
])
def test_interval_exchange_seed_censuses(seed, depth, n_loops, verdicts):
    track = resolve_track(str(EXAMPLES / f"{seed}.tt"))
    loops = search_loops(track, SearchConfig(max_depth=depth))
    assert len(loops) == n_loops
    assert Counter(c.verdict for r in loops for c in r.certificates) == verdicts
    # no closure is fixed point free
    assert search_loops(track, SearchConfig(
        max_depth=depth, require_fixed_point_free=True)) == ()


def test_phi2_twin_from_the_hyperelliptic_seed():
    # the first closure from h22_hyp at depth 8 in notation order with the
    # dilatation of phi2; none exists at depth <= 7
    twin = replay(
        resolve_track(str(EXAMPLES / "h22_hyp.tt")),
        parse_sequence("i(a)/t(g); i(g)/t(a); t(g)/i(b); t(a)/i(g); "
                       "t(f)/i(b); t(e)/i(b); t(d)/i(b); t(c)/i(b)"),
        dict(zip("abcdefg", "bcdefag")),
        SearchConfig(tolerance=1e-30)).certificates[0]
    assert twin.verdict == "pA"
    assert twin.fixed_edges == (("c", 1), ("g", 2))
    assert twin.fixed_point_free is False
    assert twin.cusp_counts == (6, 6)
    assert tuple(ci.target_index for ci in twin.boundary.curves) == (1, 0)
    cert = certify(phi2(), tol=1e-30)
    assert cert.verdict == "pA"
    assert cert.fixed_point_free is True
    assert cert.cusp_counts == (6, 6)
    # both brackets hold a root of phi2's Perron factor, and they overlap:
    # the same dilatation on a map with fixed points, so not conjugate
    def perron_factor(x: Fraction) -> Fraction:
        return x**4 - 2 * x**3 - 2 * x + 1

    for c in (twin, cert):
        assert perron_factor(c.perron.lower) < 0 < perron_factor(c.perron.upper)
    assert max(twin.perron.lower, cert.perron.lower) \
        <= min(twin.perron.upper, cert.perron.upper)


def test_replay_sigma1_closure():
    result = replay(initial_track(), s1_moves(), identification_ii())
    assert len(result.self_maps) == 1
    sm = result.self_maps[0]
    assert sm.mapping == phi1().mapping
    assert result.certificates[0].verdict == "reducible"


def test_replay_longer_sequence_is_pa():
    result = replay(initial_track(), splitting_sequence(3), identification_ii())
    assert result.self_maps[0].mapping == phi3().mapping
    assert result.certificates[0].verdict == "pA"
    assert result.certificates[0].fixed_point_free


@pytest.mark.parametrize("n", [1, 3, 5, 41, 161])
def test_replay_of_the_odd_family_is_phi(n):
    result = replay(initial_track(), splitting_sequence(n), identification_ii(),
                    SearchConfig(certify=False))
    assert result.self_maps[0].images == phi(n).images


def test_replay_empty_sequence_identity():
    track = base_track()
    ident = {c: c for c in "abcdefghijkl"}
    result = replay(track, (), ident)
    sm = result.self_maps[0]
    assert all(format_word(w) == lab for lab, w in sm.mapping.items())
    assert result.certificates[0].verdict == "reducible"


def test_replay_without_identification_keeps_all_closures():
    result = replay(initial_track(), s1_moves())
    assert len(result.self_maps) == 2
    assert any(sm.mapping == phi1().mapping for sm in result.self_maps)


def test_replay_rejects_wrong_identification():
    bogus = {c: c for c in "abcdefghijkl"}
    with pytest.raises(NotAnIdentification):
        replay(initial_track(), s1_moves(), bogus)


def test_replay_propagates_illegal_moves():
    bad = (s1_moves()[0], SplitMove(("a", "i"), ("a", "t")))
    with pytest.raises(IllegalMove) as err:
        replay(initial_track(), bad)
    assert err.value.index == 1
