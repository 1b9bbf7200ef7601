"""Built-in catalogue of tracks, maps, and splitting sequences.

Entry names are part of the command line contract.  The table _ENTRIES
at the end of this module declares each name once, with its kind, a
description and the builder that makes it:

  tau, tau_initial, tau_prime          track
  d1, d2, d1_prime, d2_prime           word (boundary words as printed)
  phi1, phi2, phi3, phi:N (odd N)      map (self maps of the closed family)
  psi:N (N >= 0)                       map (the second infinite family)
  alpha, beta, t_ig, t_gi              map (relabel, involution, twists)
  s1, seq:N (odd N), twist_ig, twist_gi   sequence
  identification_ii                    labels (the bijection closing s1)

A name ending in ":N" is a family whose builder takes the index; the
indices stop at MAX_INDEX.

The base track is stored as a golden table and can also be re-derived from
the printed boundary words plus the map words alone, see
reconstruct_base_track().  That derivation rests on two facts: when the
junctions of the two words give 24 distinct arrival ends, their ribbon
successor is a permutation of the ends, and a cycle of it is a switch
exactly when the end kind changes twice around it.

The initial track (the one the twelve move opening sequence starts from)
is recovered by unfolding that sequence backwards from the base track; its
golden table is frozen here and derive_initial_track() cross-checks it.
"""

from __future__ import annotations

import re
from functools import lru_cache, partial
from itertools import product

from .errors import BadIndex, InconsistentConstraints, TrackError, UnknownEntry
from .morphism import TrackMorphism, relabel_morphism
from .splitting import SplitMove, parse_sequence, unsplit
from .track import Switch, TrainTrack, arrival_end, departure_end, parse_end
from .words import Word, find_rotations, inverse, parse_word

ALPHABET = tuple("abcdefghijkl")

# Largest index phi:N, psi:N and seq:N accept.  Their words and move lists
# grow linearly in N, so an absurd index would exhaust memory instead of
# failing; this cap keeps phi:1281 and seq:2561 and builds in seconds.
MAX_INDEX = 10_001

# ----------------------------------------------------------------------
# golden tables

_TAU_SWITCHES = (
    ("v1", "t(l) t(e)", "i(c) i(a)"),
    ("v2", "t(a) t(c)", "i(e) i(d)"),
    ("v3", "t(j) t(h)", "i(b) i(l)"),
    ("v4", "t(d) t(b)", "i(h) i(f)"),
    ("v5", "t(f) t(g)", "i(i) i(k)"),
    ("v6", "t(k) t(i)", "i(g) i(j)"),
)

# frozen output of derive_initial_track(); the shape the opening sequence
# starts from, before any splitting has happened
_TAU_INITIAL_SWITCHES = (
    ("v1", "t(l) t(c)", "i(b) i(a)"),
    ("v2", "t(a) t(b)", "i(c) i(d)"),
    ("v3", "t(j) t(e)", "i(k) i(l)"),
    ("v4", "t(d) t(k)", "i(e) i(f)"),
    ("v5", "t(g) t(h)", "i(i) i(j)"),
    ("v6", "t(f) t(i)", "i(h) i(g)"),
)

D1 = "i j -h -d e a -c -l b f -g -k"
D2 = "i -k -g j b -d -c a e -l -h f"
D1_PRIME = "c d -b -j i k -g -f h l -e -a"
D2_PRIME = "l c -a -e d h -j -g k i -f -b"

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

TWIST_IG_WORDS = {  # tau_prime -> tau
    "a": "a", "b": "b", "c": "c", "d": "d", "e": "e", "f": "f i",
    "g": "g", "h": "h", "i": "i", "j": "i j", "k": "g k g", "l": "l",
}

TWIST_GI_WORDS = {  # tau -> tau_prime
    "a": "a", "b": "b", "c": "c", "d": "d", "e": "e", "f": "f g",
    "g": "g", "h": "h", "i": "i", "j": "g j", "k": "i k i", "l": "l",
}

INVOLUTION_PAIRS = (("a", "k"), ("c", "i"), ("b", "h"), ("d", "j"),
                    ("e", "g"), ("f", "l"))

S1_TEXT = (
    "i(b)/t(l); t(b)/i(d); t(k)/i(f); i(k)/t(j); t(e)/i(l); t(c)/i(a); "
    "i(c)/t(a); i(e)/t(d); i(h)/t(f); t(h)/i(j); t(f)/i(g); i(j)/t(g)"
)
TWIST_IG_TEXT = "t(f)/i(i); i(j)/t(i); i(k)/t(g); t(k)/i(g)"  # legal on tau
TWIST_GI_TEXT = "t(f)/i(g); i(j)/t(g); i(k)/t(i); t(k)/i(i)"  # legal on tau_prime

# frozen output of the identification search in the closure of s1; maps
# labels of tau_initial to labels of tau (identification II reproduces phi1,
# the other closure is beta composed with this one)
IDENTIFICATION_II_LABELS = {
    "a": "k", "b": "i", "c": "g", "d": "j", "e": "b", "f": "l",
    "g": "a", "h": "c", "i": "e", "j": "d", "k": "h", "l": "f",
}


def _parse_switches(table) -> tuple[Switch, ...]:
    out = []
    for name, a_txt, b_txt in table:
        side_a = tuple(parse_end(tok) for tok in a_txt.split())
        side_b = tuple(parse_end(tok) for tok in b_txt.split())
        out.append(Switch(name, side_a, side_b))
    return tuple(out)


def _words(d: dict[str, str]) -> dict[str, Word]:
    return {k: parse_word(v) for k, v in d.items()}


# ----------------------------------------------------------------------
# tracks


@lru_cache(maxsize=None)
def base_track() -> TrainTrack:
    """The genus three base track with two 6-cusped boundary circles."""
    return TrainTrack(
        "tau",
        ALPHABET,
        _parse_switches(_TAU_SWITCHES),
        (("d1", parse_word(D1)), ("d2", parse_word(D2))),
    )


@lru_cache(maxsize=None)
def twisted_track() -> TrainTrack:
    """The base track with the parallel pair i, g exchanged."""
    t = base_track().relabel({"i": "g", "g": "i"}, name="tau_prime")
    return TrainTrack(
        t.name, t.edges, t.switches,
        (("d1", parse_word(D1_PRIME)), ("d2", parse_word(D2_PRIME))),
    )


@lru_cache(maxsize=None)
def initial_track() -> TrainTrack:
    return TrainTrack("tau_initial", ALPHABET,
                      _parse_switches(_TAU_INITIAL_SWITCHES))


def derive_initial_track() -> TrainTrack:
    """Unfold the opening sequence backwards from the base track."""
    current = base_track()
    for mv in reversed(s1_moves()):
        current, _ = unsplit(current, mv)
    return TrainTrack("tau_initial", current.edges, current.switches)


# ----------------------------------------------------------------------
# morphisms


@lru_cache(maxsize=None)
def phi1() -> TrackMorphism:
    t = base_track()
    return TrackMorphism(t, t, _words(PHI1_WORDS), name="phi1")


@lru_cache(maxsize=None)
def phi2() -> TrackMorphism:
    t = twisted_track()
    return TrackMorphism(t, t, _words(PHI2_WORDS), name="phi2")


def phi3() -> TrackMorphism:
    return phi(3)


@lru_cache(maxsize=None)
def alpha() -> TrackMorphism:
    """Relabel morphism tau -> tau_prime exchanging i and g."""
    m = relabel_morphism(base_track(), {"i": "g", "g": "i"}, name="alpha")
    return TrackMorphism(m.source, twisted_track(), m.images, name="alpha")


@lru_cache(maxsize=None)
def involution() -> TrackMorphism:
    t = base_track()
    perm = {}
    for x, y in INVOLUTION_PAIRS:
        perm[x] = y
        perm[y] = x
    return TrackMorphism(t, t, {lab: ((perm[lab], 1),) for lab in t.edges},
                         name="beta")


@lru_cache(maxsize=None)
def t_ig() -> TrackMorphism:
    """Carrier of the twist pair: tau_prime -> tau."""
    return TrackMorphism(twisted_track(), base_track(), _words(TWIST_IG_WORDS),
                         name="t_ig")


@lru_cache(maxsize=None)
def t_gi() -> TrackMorphism:
    """Carrier of the reverse twist pair: tau -> tau_prime."""
    return TrackMorphism(base_track(), twisted_track(), _words(TWIST_GI_WORDS),
                         name="t_gi")


def _check_cap(n: int) -> None:
    if n > MAX_INDEX:
        raise BadIndex(f"atlas indices stop at {MAX_INDEX}, not {n}")


def _rep(chunk: str, n: int) -> str:
    return (" ".join([chunk] * n) + " ") if n else ""


@lru_cache(maxsize=64)
def phi(n: int) -> TrackMorphism:
    """The map family: odd n on the base track, n == 2 on the twisted one.

    phi(1) and phi(2) are the named entries; for odd n = 2m+1 the words
    differ from phi1 only on f, j, k, with twist blocks of depth m.
    """
    if n == 1:
        return phi1()
    if n == 2:
        return phi2()
    if n < 1 or n % 2 == 0:
        raise BadIndex(f"phi is defined for odd indices and 2, not {n}")
    _check_cap(n)
    m = (n - 1) // 2
    words = dict(PHI1_WORDS)
    words["f"] = "l a " + _rep("e a", m).strip()
    words["j"] = _rep("a e", m) + "a d"
    words["k"] = _rep("e a", m) + "d h l " + _rep("a e", m).strip()
    t = base_track()
    return TrackMorphism(t, t, _words(words), name=f"phi{n}")


@lru_cache(maxsize=64)
def psi(n: int) -> TrackMorphism:
    """The twisted family: psi(0) is phi1, higher n wrap the images of the
    invariant-side edges in twist blocks."""
    if n < 0:
        raise BadIndex(f"psi needs n >= 0, not {n}")
    _check_cap(n)
    if n == 0:
        return phi1()
    a_blk = _rep("i g", n) + "k " + _rep("g i", n)
    words = dict(PHI1_WORDS)
    words["a"] = a_blk.strip()
    words["b"] = ("f " + _rep("i g", n) + "i " + _rep("g i", n) + "j").strip()
    words["c"] = (a_blk + "g " + a_blk).strip()
    words["d"] = (_rep("g i", n) + "j").strip()
    words["e"] = (_rep("g i", n) + "j b f " + _rep("i g", n)).strip()
    words["l"] = ("f " + _rep("i g", n)).strip()
    t = base_track()
    return TrackMorphism(t, t, _words(words), name=f"psi{n}")


# ----------------------------------------------------------------------
# sequences


@lru_cache(maxsize=None)
def s1_moves() -> tuple[SplitMove, ...]:
    return parse_sequence(S1_TEXT)


@lru_cache(maxsize=None)
def twist_ig_moves() -> tuple[SplitMove, ...]:
    return parse_sequence(TWIST_IG_TEXT)


@lru_cache(maxsize=None)
def twist_gi_moves() -> tuple[SplitMove, ...]:
    return parse_sequence(TWIST_GI_TEXT)


def splitting_sequence(n: int) -> tuple[SplitMove, ...]:
    """Moves of the odd family: the opening sequence followed by (n-1)/2
    twist pairs.  Starts on the initial track and ends on the base track."""
    if n < 1 or n % 2 == 0:
        raise BadIndex(f"splitting sequences exist for odd n, not {n}")
    _check_cap(n)
    m = (n - 1) // 2
    return s1_moves() + (twist_ig_moves() + twist_gi_moves()) * m


def identification_ii() -> dict[str, str]:
    """Label bijection tau_initial -> tau closing the opening sequence so
    that the induced self map is phi1 verbatim."""
    return dict(IDENTIFICATION_II_LABELS)


# ----------------------------------------------------------------------
# reconstruction of the base track from printed data


def reconstruct_base_track() -> TrainTrack:
    """Rebuild the base track from the printed boundary words and the map
    words, without the golden switch table.

    Consecutive letters x y of a boundary word put the arrival end of x
    next to the departure end of y, which gives the ribbon successor
    sigma; each cycle of sigma is a switch.  Each printed word is tried in
    both traversal directions.  A choice survives only if

    - sigma has all 24 ends as keys.  A clash or a repeated junction drops
      a key.  With 24 distinct arrival ends the 24 letters are distinct
      signed letters, so sigma is a permutation and every cycle closes;
    - the end kind changes at exactly two places around each cycle, which
      cuts it into the two non-empty sides of a switch;
    - the first printed word reappears as printed on the traced boundary;
    - the catalogued self maps come out smooth, which includes that
      consecutive letters x y of an image put t(x) and i(y) at one switch.

    Two surviving choices would have different sigma, hence different
    tracks, so the survivors are counted as they are.
    """
    map_words = [m.mapping for m in (phi1(), phi(3), psi(1))]
    d1, d2 = parse_word(D1), parse_word(D2)
    survivors = []
    for words in product((d1, inverse(d1)), (d2, inverse(d2))):
        sigma = {arrival_end(w[k - 1]): departure_end(w[k])
                 for w in words for k in range(len(w))}
        if len(sigma) < 2 * len(ALPHABET):
            continue
        # walked from least ends up, so each cycle starts at its least end
        # and v1, v2, ... follow the least end of each switch
        switches, seen = [], set()
        for start in sorted(sigma):
            if start in seen:
                continue
            cyc = [start]
            while sigma[cyc[-1]] != start:
                cyc.append(sigma[cyc[-1]])
            seen.update(cyc)
            cuts = [k for k in range(len(cyc)) if cyc[k - 1][1] != cyc[k][1]]
            if len(cuts) != 2:
                break  # no switch has this cycle: reject the choice
            i, j = cuts
            side_b = tuple(reversed(cyc[j:] + cyc[:i]))
            switches.append(Switch(
                f"v{len(switches) + 1}",
                *Switch("", tuple(cyc[i:j]), side_b).canonical_presentation()))
        else:
            track = TrainTrack("tau", ALPHABET, tuple(switches))
            if not any(find_rotations(d1, c.word)
                       for c in track.boundary_curves):
                continue
            try:
                for images in map_words:
                    TrackMorphism(track, track, images).check()
            except TrackError:
                continue
            survivors.append(track)
    if len(survivors) != 1:
        raise InconsistentConstraints(
            f"reconstruction is not unique: {len(survivors)} solutions"
        )
    return survivors[0]


# ----------------------------------------------------------------------
# registry: name -> (kind, description, builder)

_ENTRIES = {
    "tau": ("track", "base track, genus 3, two 6-cusped boundary circles",
            base_track),
    "tau_initial": ("track", "track the opening sequence starts from",
                    initial_track),
    "tau_prime": ("track", "base track with the parallel pair i, g exchanged",
                  twisted_track),
    "d1": ("word", "first boundary word of tau as printed",
           partial(parse_word, D1)),
    "d2": ("word", "second boundary word of tau as printed",
           partial(parse_word, D2)),
    "d1_prime": ("word", "first boundary word of tau_prime as printed",
                 partial(parse_word, D1_PRIME)),
    "d2_prime": ("word", "second boundary word of tau_prime as printed",
                 partial(parse_word, D2_PRIME)),
    "phi1": ("map", "reducible self map of tau carried by the opening sequence",
             phi1),
    "phi2": ("map", "pseudo-Anosov self map of tau_prime (one extra twist)",
             phi2),
    "phi3": ("map", "pseudo-Anosov self map of tau (two extra twists)", phi3),
    "phi:N": ("map", "odd map family on tau; phi:1, phi:3 are the named entries",
              phi),
    "psi:N": ("map", "twisted map family on tau; psi:0 is phi1", psi),
    "alpha": ("map", "relabel morphism tau -> tau_prime exchanging i and g",
              alpha),
    "beta": ("map", "label involution of tau", involution),
    "t_ig": ("map", "twist pair carrier tau_prime -> tau", t_ig),
    "t_gi": ("map", "twist pair carrier tau -> tau_prime", t_gi),
    "s1": ("sequence",
           "opening sequence of twelve moves, from tau_initial to tau",
           s1_moves),
    "seq:N": ("sequence",
              "s1 plus (N-1)/2 twist pairs, from tau_initial to tau (odd N)",
              splitting_sequence),
    "twist_ig": ("sequence",
                 "four move twist pair, legal on tau, lands on tau_prime",
                 twist_ig_moves),
    "twist_gi": ("sequence",
                 "four move twist pair, legal on tau_prime, lands on tau",
                 twist_gi_moves),
    "identification_ii": ("labels",
                          "label bijection closing s1 so the self map is phi1",
                          identification_ii),
}


def atlas_names() -> tuple[str, ...]:
    return tuple(sorted(_ENTRIES))


def describe(name: str) -> str:
    return _ENTRIES[name][1] if name in _ENTRIES else ""


# a family index in plain ASCII decimal, so each member has one spelling:
# no '+', spaces, leading zeros, digit underscores or '-0'
_INDEX_RE = re.compile(r"0|-?[1-9][0-9]*")


def entry(name: str) -> tuple[str, object]:
    """The kind and value of a catalogue entry; parametric names use a
    colon, phi:7.

    Lookup is case insensitive, so T_ig and t_ig are the same entry.
    """
    name = name.lower()
    head, colon, tail = name.partition(":")
    if colon:
        if not _INDEX_RE.fullmatch(tail):
            raise UnknownEntry(f"bad parameter in atlas name {name!r}")
        n = int(tail)
        head += ":N"
    if head not in _ENTRIES:
        raise UnknownEntry(f"no atlas entry named {name!r}")
    kind, _, build = _ENTRIES[head]
    if not colon:
        return kind, build()
    try:
        return kind, build(n)
    except BadIndex as err:
        raise UnknownEntry(str(err)) from None


def atlas(name: str):
    """The value of a catalogue entry, see entry()."""
    return entry(name)[1]
