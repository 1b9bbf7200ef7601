"""The worked examples: tracks, maps, sequences, and their relations."""

from collections import Counter

import pytest

from ttlab import atlas as A
from ttlab.errors import BadIndex, InconsistentConstraints, UnknownEntry
from ttlab.morphism import TrackMorphism, compose, compose_chain
from ttlab.splitting import apply_sequence, format_sequence
from ttlab.track import isomorphisms, tracks_equal
from ttlab.words import format_word, inverse, parse_word

PHI1_WORDS = {
    "a": "k", "b": "f i j", "c": "k g k", "d": "j", "e": "j b f",
    "f": "l a", "g": "a", "h": "l c d", "i": "e", "j": "a d",
    "k": "d h l", "l": "f",
}
PHI2_WORDS = {
    "a": "k", "b": "f g j", "c": "k i k", "d": "j", "e": "j b f",
    "f": "l a e", "g": "a", "h": "l c d", "i": "e", "j": "e a d",
    "k": "a d h l a", "l": "f",
}
TWIST_IG_WORDS = {"f": "f i", "j": "i j", "k": "g k g"}
TWIST_GI_WORDS = {"f": "f g", "j": "g j", "k": "i k i"}


def _words(m):
    return {label: format_word(w) for label, w in m.mapping.items()}


def test_phi1_words():
    m = A.phi1()
    assert m.source.name == "tau" and m.target.name == "tau"
    assert _words(m) == PHI1_WORDS


def test_phi2_words():
    m = A.phi2()
    assert m.source.name == "tau_prime" and m.target.name == "tau_prime"
    assert _words(m) == PHI2_WORDS


def test_phi3_words():
    expected = dict(PHI1_WORDS,
                    f="l a e a", j="a e a d", k="e a d h l a e")
    assert _words(A.phi3()) == expected


def test_twist_morphism_words():
    for m, twisted in [(A.t_ig(), TWIST_IG_WORDS), (A.t_gi(), TWIST_GI_WORDS)]:
        words = _words(m)
        for label in "abcdefghijkl":
            assert words[label] == twisted.get(label, label)
    assert A.t_ig().source.name == "tau_prime" and A.t_ig().target.name == "tau"
    assert A.t_gi().source.name == "tau" and A.t_gi().target.name == "tau_prime"


def test_phi2_factorisation():
    chain = compose_chain([A.alpha(), A.phi1(), A.t_ig()])
    assert chain.mapping == A.phi2().mapping
    assert chain.source.name == "tau_prime"


def test_phi3_factorisation():
    chain = compose(compose(A.phi1(), A.t_ig()), A.t_gi())
    assert chain.mapping == A.phi3().mapping
    assert chain.source.name == "tau"


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_phi_family_closed_form_matches_chain(n):
    chain = A.phi1()
    for _ in range(n):
        chain = compose(compose(chain, A.t_ig()), A.t_gi())
    assert A.phi(2 * n + 1).mapping == chain.mapping


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_psi_family_closed_form_matches_chain(n):
    block = compose(A.t_ig(), A.t_gi())
    chain = A.phi1()
    for _ in range(n):
        chain = compose(block, chain)
    assert A.psi(n).mapping == chain.mapping


def test_phi_family_k_row_growth():
    # image of k picks up one "e a ... a e" conjugation layer per twist pair
    for n in (1, 2, 3):
        counts = Counter(lab for lab, _ in A.phi(2 * n + 1).mapping["k"])
        assert counts["a"] == 2 * n and counts["e"] == 2 * n
        assert counts["d"] == counts["h"] == counts["l"] == 1


def test_family_bad_indices():
    with pytest.raises(BadIndex):
        A.phi(4)
    with pytest.raises(BadIndex):
        A.phi(1 - 2)
    with pytest.raises(BadIndex):
        A.psi(-1)
    with pytest.raises(BadIndex):
        A.splitting_sequence(2)
    assert A.psi(0).mapping == A.phi1().mapping


def test_family_indices_stop_at_the_cap():
    cap = A.MAX_INDEX
    assert len(A.splitting_sequence(cap)) == 12 + 4 * (cap - 1)
    assert A.phi(cap).name == f"phi{cap}"
    assert A.psi(cap).name == f"psi{cap}"
    for build, n in ((A.phi, cap + 2), (A.psi, cap + 1),
                     (A.splitting_sequence, cap + 2), (A.phi, 999999999999),
                     (A.psi, 99999999), (A.splitting_sequence, 999999999999)):
        with pytest.raises(BadIndex, match=f"stop at {cap}, not {n}"):
            build(n)
    with pytest.raises(UnknownEntry):
        A.atlas("seq:999999999999")


def test_involution_pairs():
    inv = A.involution()
    assert inv.source.name == inv.target.name == "tau"
    for x, y in A.INVOLUTION_PAIRS:
        assert _words(inv)[x] == y and _words(inv)[y] == x


def test_alpha_is_the_relabel():
    al = A.alpha()
    words = _words(al)
    assert words["i"] == "g" and words["g"] == "i"
    assert all(words[c] == c for c in "abcdefhjkl")


def test_s1_lands_on_base_track():
    run = apply_sequence(A.initial_track(), A.s1_moves())
    assert len(A.s1_moves()) == 12
    assert tracks_equal(run.source, A.base_track())
    isos = isomorphisms(A.initial_track(), run.source)
    assert len(isos) == 2
    assert any(dict(i.labels) == A.identification_ii() for i in isos)


def test_s1_closures_differ_by_involution():
    run = apply_sequence(A.initial_track(), A.s1_moves())
    isos = isomorphisms(A.initial_track(), run.source)
    beta = {x: y for x, y in A.INVOLUTION_PAIRS}
    beta.update({y: x for x, y in A.INVOLUTION_PAIRS})
    one, two = (dict(i.labels) for i in isos)
    assert {k: beta[v] for k, v in one.items()} == two


def test_twist_sequences_compose_to_twist_morphisms():
    run = apply_sequence(A.base_track(), A.twist_ig_moves())
    assert tracks_equal(run.source, A.twisted_track())
    assert run.mapping == A.t_ig().mapping
    back = apply_sequence(A.twisted_track(), A.twist_gi_moves())
    assert tracks_equal(back.source, A.base_track())
    assert back.mapping == A.t_gi().mapping


def test_splitting_sequence_layout():
    assert A.splitting_sequence(1) == A.s1_moves()
    pair = A.twist_ig_moves() + A.twist_gi_moves()
    assert A.splitting_sequence(3) == A.s1_moves() + pair
    assert A.splitting_sequence(7) == A.s1_moves() + pair * 3


def test_sequence_texts():
    assert format_sequence(A.s1_moves()) == A.S1_TEXT
    assert format_sequence(A.twist_ig_moves()) == A.TWIST_IG_TEXT
    assert format_sequence(A.twist_gi_moves()) == A.TWIST_GI_TEXT


def test_boundary_word_constants():
    from ttlab.words import parse_word
    assert A.atlas("d1") == parse_word(A.D1)
    assert A.atlas("d2_prime") == parse_word(A.D2_PRIME)


def test_reconstruction_round_trip():
    track = A.reconstruct_base_track()
    assert track.canonical_key == A.base_track().canonical_key
    derived = A.derive_initial_track()
    assert derived.canonical_key == A.initial_track().canonical_key


def test_reconstruction_does_not_swallow_programming_errors(monkeypatch):
    def broken(self):
        raise RuntimeError("broken check")

    monkeypatch.setattr(TrackMorphism, "check", broken)
    with pytest.raises(RuntimeError, match="broken check"):
        A.reconstruct_base_track()


@pytest.mark.parametrize("d1", ["j i -h -d e a -c -l b f -g -k",
                                A.D1_PRIME])
def test_reconstruction_fails_on_other_printed_words(monkeypatch, d1):
    # the first two letters swapped, or the twisted track's first word;
    # the stored track is cached first, so it keeps the printed words
    A.base_track()
    monkeypatch.setattr(A, "D1", d1)
    with pytest.raises(InconsistentConstraints, match="0 solutions"):
        A.reconstruct_base_track()


def test_reconstruction_ignores_the_direction_of_d2(monkeypatch):
    want = A.base_track().canonical_key
    monkeypatch.setattr(A, "D2", format_word(inverse(parse_word(A.D2))))
    assert A.reconstruct_base_track().canonical_key == want


def test_atlas_lookup():
    assert A.atlas("tau") is A.base_track()
    assert A.atlas("phi2") is A.phi2()
    # names are matched case-insensitively
    assert A.atlas("T_ig") is A.t_ig()
    assert A.atlas("S1") == A.s1_moves()
    assert A.atlas("phi:7").mapping == A.phi(7).mapping
    assert A.atlas("psi:2").mapping == A.psi(2).mapping
    assert len(A.atlas("seq:5")) == 28


def test_atlas_unknown_entries():
    with pytest.raises(UnknownEntry):
        A.atlas("zeta")
    with pytest.raises(UnknownEntry):
        A.atlas("phi:4")
    with pytest.raises(UnknownEntry):
        A.atlas("psi:x")


def test_atlas_names_and_describe():
    names = A.atlas_names()
    for expected in ("tau", "tau_prime", "phi1", "t_gi", "s1", "phi:N"):
        assert expected in names
    assert names == tuple(sorted(names))
    for name in ("tau", "phi2", "identification_ii"):
        assert isinstance(A.describe(name), str) and A.describe(name)
