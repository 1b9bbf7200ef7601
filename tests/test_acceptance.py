"""Acceptance gate: one test per acceptance criterion, one line per verdict.

Run with -v (or -s for the PASS lines) to get the per-criterion report.
Every numeric claim is checked at the tolerance it is stated with.
"""

import random
import time
from collections import Counter
from fractions import Fraction

from ttlab import atlas as A
from ttlab.boundary import boundary_action
from ttlab.certify import certify
from ttlab.incidence import (
    fixed_edge_points,
    incidence_matrix,
    irreducibility,
    mat_mult,
)
from ttlab.morphism import compose, compose_chain
from ttlab.search import SearchConfig, replay, search_loops
from ttlab.splitting import apply_sequence, format_sequence, legal_splits
from ttlab.track import isomorphisms
from ttlab.words import format_word, inverse, parse_word, word_key


def _report(n, text):
    print(f"PASS: criterion {n} - {text}")


def _rotations(word):
    return {word_key(word[k:] + word[:k]) for k in range(len(word))}


def test_criterion_1_reconstruction():
    track = A.reconstruct_base_track()
    data = track.validate()
    assert data.n_switches == 6
    assert data.n_edges == 12
    assert data.chi == -6
    assert data.n_boundaries == 2
    assert data.cusp_counts == (6, 6)
    assert data.genus == 3
    assert data.coherently_orientable
    assert track.canonical_key == A.base_track().canonical_key
    assert len(isomorphisms(track, track)) == 2
    _report(1, "base track rebuilt: chi -6, genus 3, two 6-cusped curves, "
               "automorphism group of order 2")


def test_criterion_2_s1_closure():
    run = apply_sequence(A.initial_track(), A.s1_moves())
    isos = isomorphisms(A.initial_track(), run.source)
    assert len(isos) == 2
    result = replay(A.initial_track(), A.s1_moves(), A.identification_ii())
    assert len(result.self_maps) == 1
    assert result.self_maps[0].mapping == A.phi1().mapping
    _report(2, "s1 closes with exactly two identifications; "
               "identification II reproduces phi1 verbatim")


def test_criterion_3_phi1_reducible():
    m = A.phi1()
    mat = incidence_matrix(m)
    assert fixed_edge_points(mat) == ()
    rep = irreducibility(mat)
    assert not rep.irreducible
    assert set(rep.witness) == set("acdfghjkl")
    action = boundary_action(m)
    assert tuple(ci.target_index for ci in action.curves) == (0, 1)
    assert all(ci.rotation % len(A.base_track().boundary_curves[0].word) != 0
               for ci in action.curves)
    _report(3, "phi1 has no diagonal but keeps an invariant edge set; "
               "both boundary curves rotate nontrivially")


def test_criterion_4_twist_composite():
    run = apply_sequence(A.base_track(), A.twist_ig_moves())
    words = {lab: format_word(w) for lab, w in run.mapping.items()}
    assert words["f"] == "f i"
    assert words["j"] == "i j"
    assert words["k"] == "g k g"
    assert all(words[c] == c for c in "abcdeghil")
    chain = compose_chain([A.alpha(), A.phi1(), A.t_ig()])
    assert chain.mapping == A.phi2().mapping
    _report(4, "four-move twist realises f -> f.i, j -> i.j, k -> g.k.g; "
               "alpha o phi1 o T(i,g) equals phi2 word for word")


def test_criterion_5_phi2_certificate():
    cert = certify(A.phi2(), tol=1e-10)
    assert cert.verdict == "pA"
    assert cert.fixed_edges == ()
    assert cert.irreducibility.irreducible
    assert cert.primitivity.primitive
    assert cert.perron.width < Fraction(1, 10**10)
    assert cert.perron.lower < Fraction(2296630262887, 10**12) < cert.perron.upper

    action = cert.boundary
    assert tuple(ci.target_index for ci in action.curves) == (0, 1)
    curve_words = [b.word for b in A.twisted_track().boundary_curves]
    d1p, d2p = parse_word(A.D1_PRIME), parse_word(A.D2_PRIME)
    assert {word_key(w) for w in (d1p,)} <= _rotations(curve_words[1])
    assert word_key(curve_words[0]) in _rotations(inverse(d2p))

    # twelve cusp sides in period-3 orbits carrying one point each
    sides = cert.sides
    assert sides.total_points == 12
    assert len(sides.orbits) == 4
    for orb in sides.orbits:
        assert orb.period == 3
        assert orb.counts == (1, 1, 1)
    per_curve = {0: 0, 1: 0}
    for orb in sides.orbits:
        per_curve[orb.sides[0][0]] += 1
    assert per_curve == {0: 2, 1: 2}
    rendered = {p.rendered for orb in sides.orbits for p in orb.points}
    assert "[c*.d] -> k.[i.k*].j -> e.a.d.[h*.l].a -> l.[c*.d].f" in rendered
    assert cert.fixed_point_free
    _report(5, "phi2 certified pA: primitive matrix, dilatation bracketed "
               "below 1e-10, twelve period-3 boundary points, fixed point free")


def test_criterion_6_phi_family():
    certs = []
    prev_matrix = None
    for n in range(1, 6):
        closed = A.phi(2 * n + 1)
        chain = A.phi1()
        for _ in range(n):
            chain = compose(compose(chain, A.t_ig()), A.t_gi())
        assert closed.mapping == chain.mapping

        counts = Counter(lab for lab, _ in closed.mapping["k"])
        assert counts["a"] == 2 * n and counts["e"] == 2 * n

        mat = incidence_matrix(closed)
        if prev_matrix is not None:
            assert (mat.rows, mat.cols) == (prev_matrix.rows, prev_matrix.cols)
            for row, prev in zip(mat.data, prev_matrix.data):
                assert all(x >= y for x, y in zip(row, prev))
        prev_matrix = mat

        cert = certify(closed, tol=1e-10)
        assert cert.verdict == "pA"
        assert cert.fixed_point_free
        assert cert.fixed_edges == ()
        assert cert.cusp_counts == (6, 6)
        certs.append(cert)

    for low, high in zip(certs, certs[1:]):
        assert low.perron.upper < high.perron.lower
    _report(6, "phi(2n+1) for n = 1..5: closed form equals twist chain, "
               "all certified pA and fixed point free, matrices grow "
               "entrywise, dilatations strictly increase on disjoint brackets")


def test_criterion_7_psi_family():
    for n in (1, 2, 3):
        closed = A.psi(n)
        block = compose(A.t_ig(), A.t_gi())
        chain = A.phi1()
        for _ in range(n):
            chain = compose(block, chain)
        assert closed.mapping == chain.mapping
        cert = certify(closed, tol=1e-10)
        assert cert.verdict == "pA"
        assert cert.fixed_point_free
    _report(7, "psi(n) for n = 1..3 equals its twist chain and is "
               "certified pA without fixed points")


def test_criterion_8_loop_search():
    t0 = time.monotonic()
    census = search_loops(A.twisted_track(), SearchConfig(max_depth=4))
    assert len(census) == 80
    assert all(len(r.sequence) == 4 for r in census)

    twist = [r for r in census
             if format_sequence(r.sequence) == A.TWIST_GI_TEXT]
    assert len(twist) == 1
    loop = twist[0]
    assert loop.composite.mapping == A.t_gi().mapping
    words = {lab: format_word(w)
             for lab, w in loop.self_maps[0].mapping.items()}
    assert words["f"] == "f i" and words["j"] == "i j" and words["k"] == "g k g"

    # certification filters nothing here, so a search without it must find
    # the same loops closed by the same identifications, in the same order
    def closures(loops):
        return [(format_sequence(r.sequence),
                 [i.label_map for i in r.identifications]) for r in loops]

    plain = search_loops(A.twisted_track(),
                         SearchConfig(max_depth=4, certify=False))
    assert closures(plain) == closures(census)
    elapsed = time.monotonic() - t0
    assert elapsed < 300
    _report(8, f"depth-4 search from tau_prime finds all 80 loops incl. the "
               f"T(i,g) twist; the uncertified search finds the same "
               f"sequences and identifications, in {elapsed:.1f}s")


def test_criterion_9_property_suites():
    rng = random.Random(20260817)

    # functoriality of the incidence matrix over split compositions
    for _ in range(200):
        track = A.base_track()
        steps = []
        for _ in range(rng.randint(2, 4)):
            move = rng.choice(legal_splits(track))
            from ttlab.splitting import apply_split
            track, step = apply_split(track, move)
            steps.append(step)
        composite = steps[0]
        product = incidence_matrix(steps[0]).data
        for step in steps[1:]:
            composite = compose(composite, step)
            product = mat_mult(incidence_matrix(step).data, product)
        assert incidence_matrix(composite).data == product

    # elementary splits preserve the topological shape
    base = A.base_track().validate()
    track = A.base_track()
    base_curves = {word_key(b.word) for b in A.base_track().boundary_curves}
    for i in range(200):
        move = rng.choice(legal_splits(track))
        from ttlab.splitting import apply_split
        track, _ = apply_split(track, move)
        data = track.validate()
        assert (data.n_edges, data.n_switches, data.chi) == (12, 6, -6)
        assert data.cusp_counts == base.cusp_counts
        assert data.genus == base.genus
        assert data.coherently_orientable
        if i % 50 == 0:
            curves = {word_key(b.word) for b in track.boundary_curves}
            assert len(curves) == len(base_curves)

    # the diagonal of the matrix reads off the fixed edge points
    atlas_maps = [A.phi1(), A.phi2(), A.phi3(), A.involution(), A.alpha(),
                  A.t_ig(), A.t_gi(), A.phi(5), A.phi(7), A.psi(1), A.psi(2)]
    for m in atlas_maps:
        mat = incidence_matrix(m)
        diagonal = [(lab, row[mat.cols.index(lab)])
                    for lab, row in zip(mat.rows, mat.data)]
        expected = {(lab, x) for lab, x in diagonal if x}
        assert set(fixed_edge_points(mat)) == expected
    _report(9, "200 random split compositions are functorial, 200 random "
               "splits preserve the shape, and every atlas map obeys the "
               "diagonal law")
