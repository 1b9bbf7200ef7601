"""Embedded train tracks as labelled ribbon graphs.

A track is a finite graph whose edge ends are grouped around switches.  The
ends at a switch come in two ordered, non-empty sides; the cyclic (ribbon)
order around the switch is side A followed by side B reversed.  The pair
(A, B) and the pair (reversed B, reversed A) present the same switch.

Ends are written t(x) and i(x) for the terminal and initial end of edge x.
Boundary curves of the fibered neighborhood are traced by the successor map
F = sigma . alpha, where alpha flips an end to the opposite end of its edge
and sigma is the ribbon successor.  A junction of the trace is a cusp
exactly when the arriving and the departing end lie on the same side.
"""

from __future__ import annotations

import re
from functools import cached_property
from typing import NamedTuple

from .errors import InvalidTrack, NotOrientable, ParseError
from .words import (
    LABEL_RULE,
    Letter,
    Word,
    find_rotations,
    format_word,
    inverse,
    is_label,
    min_rotation,
    word_key,
)

End = tuple[str, str]  # (edge label, "i" or "t")

_NAME_RE = re.compile(r"[^\s\]#]+")  # what a section header reads back
NAME_RULE = "names are non-empty, without whitespace, ']' or '#'"


def is_name(text: str) -> bool:
    """Whether `text` can name a track, switch, map or sequence in a
    document: a section header reads back a name that is non-empty and
    holds no whitespace, ']' or '#'."""
    return bool(_NAME_RE.fullmatch(text))


def flip_end(e: End) -> End:
    return (e[0], "t" if e[1] == "i" else "i")


def format_end(e: End) -> str:
    return f"{e[1]}({e[0]})"


def parse_end(token: str, line: int | None = None) -> End:
    token = token.strip()
    if len(token) >= 4 and token[0] in "it" and token[1] == "(" and token.endswith(")"):
        label = token[2:-1]
        if is_label(label):
            return (label, token[0])
        raise ParseError(f"bad end token {token!r}: {LABEL_RULE}", line)
    raise ParseError(f"bad end token {token!r}, expected t(x) or i(x)", line)


# letter traversal: (x, +1) runs from i(x) to t(x)

def departure_end(lt: Letter) -> End:
    lab, s = lt
    return (lab, "i" if s > 0 else "t")


def arrival_end(lt: Letter) -> End:
    lab, s = lt
    return (lab, "t" if s > 0 else "i")


def letter_from_departure(e: End) -> Letter:
    return (e[0], 1 if e[1] == "i" else -1)


class Switch(NamedTuple):
    name: str
    side_a: tuple[End, ...]
    side_b: tuple[End, ...]

    @property
    def ends(self) -> tuple[End, ...]:
        return self.side_a + self.side_b

    @property
    def ribbon(self) -> tuple[End, ...]:
        # cyclic order around the switch
        return self.side_a + tuple(reversed(self.side_b))

    @property
    def valence(self) -> int:
        return len(self.side_a) + len(self.side_b)

    def canonical_presentation(self) -> tuple:
        """The lesser of (A, B) and (reversed B, reversed A)."""
        return min((self.side_a, self.side_b),
                   (tuple(reversed(self.side_b)), tuple(reversed(self.side_a))))


class BoundaryCurve(NamedTuple):
    """One boundary circle of the fibered neighborhood, in canonical rotation.

    `cusps` holds junction indices: junction j sits just before letter j.
    When the curve has cusps, junction 0 is one of them.
    """

    word: Word
    cusps: tuple[int, ...]

    @property
    def sides(self) -> tuple[Word, ...]:
        """Arcs between consecutive cusps, in cusp order."""
        if not self.cusps:
            return (self.word,)
        out = []
        k = len(self.cusps)
        for m in range(k):
            a = self.cusps[m]
            b = self.cusps[(m + 1) % k]
            if b <= a:
                out.append(self.word[a:] + self.word[:b])
            else:
                out.append(self.word[a:b])
        return tuple(out)

    @property
    def n_cusps(self) -> int:
        return len(self.cusps)


class EulerData(NamedTuple):
    n_switches: int
    n_edges: int
    chi: int
    n_boundaries: int
    genus: int
    total_boundary_length: int
    cusp_counts: tuple[int, ...]
    coherently_orientable: bool


class TrainTrack:
    """A track, built only by __init__, which checks it in __post_init__.
    Its fields cannot be set; cached_property stores the lookups without
    __setattr__.  `declared_boundaries` keeps input boundary words verbatim;
    each must be a rotation of a traced curve's word or of its inverse."""

    def __init__(self, name: str, edges: tuple[str, ...],
                 switches: tuple[Switch, ...],
                 declared_boundaries: tuple[tuple[str, Word], ...] = ()):
        self.__dict__.update(name=name, edges=edges, switches=switches,
                             declared_boundaries=declared_boundaries)
        self.__post_init__()

    def __post_init__(self) -> None:
        if not self.edges:
            raise InvalidTrack("a track needs at least one edge")
        for kind, name in (("track", self.name),
                           *(("switch", sw.name) for sw in self.switches)):
            if not is_name(name):
                raise InvalidTrack(f"{kind} name {name!r} cannot head a "
                                   f"section: {NAME_RULE}")
        seen_sw = set()
        for sw in self.switches:
            if sw.name in seen_sw:
                raise InvalidTrack(f"duplicate switch name {sw.name!r}")
            seen_sw.add(sw.name)
            if not sw.side_a or not sw.side_b:
                raise InvalidTrack(f"switch {sw.name!r} has an empty side")
        if len(set(self.edges)) != len(self.edges):
            raise InvalidTrack("duplicate edge labels")
        for lab in self.edges:
            if not is_label(lab):
                raise InvalidTrack(f"bad edge label {lab!r}: {LABEL_RULE}")
        placed: set[End] = set()
        for sw in self.switches:
            for e in sw.ends:
                if e in placed:
                    raise InvalidTrack(f"end {format_end(e)} placed twice")
                placed.add(e)
        want = {(lab, k) for lab in self.edges for k in "it"}
        if placed != want:
            bits = [f"{what} " + ", ".join(map(format_end, sorted(ends)))
                    for what, ends in (("missing", want - placed),
                                       ("stray", placed - want)) if ends]
            raise InvalidTrack("ends do not match edge list: " + "; ".join(bits))
        for bname, w in self.declared_boundaries:  # none on a split track
            if not any(find_rotations(v, c.word) for v in (w, inverse(w))
                       for c in self.boundary_curves):
                raise InvalidTrack(f"boundary {bname!r} = {format_word(w)} is "
                                   "not a boundary curve in either direction")

    def __setattr__(self, name, value):
        raise AttributeError(f"a TrainTrack is immutable: cannot set {name!r}")

    def _key(self) -> tuple:
        return (self.name, self.edges, self.switches, self.declared_boundaries)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    # ------------------------------------------------------------------

    @cached_property
    def end_site(self) -> dict[End, tuple[int, int, int]]:
        """end -> (switch position, side, index within the side), the side
        being the index of the Switch field holding the end: 1 for side_a, 2
        for side_b.  Splitting keeps switch order, so a position holds along
        a run."""
        site: dict[End, tuple[int, int, int]] = {}
        for k, sw in enumerate(self.switches):
            for side in (1, 2):
                for i, e in enumerate(sw[side]):
                    site[e] = (k, side, i)
        return site

    @cached_property
    def sigma(self) -> dict[End, End]:
        """Ribbon successor around each switch."""
        succ: dict[End, End] = {}
        for sw in self.switches:
            cyc = sw.ribbon
            n = len(cyc)
            for i, e in enumerate(cyc):
                succ[e] = cyc[(i + 1) % n]
        return succ

    @cached_property
    def side_profile(self) -> tuple[int, ...]:
        """Sorted multiset of side sizes; cheap isomorphism prefilter."""
        return tuple(sorted(len(side) for sw in self.switches
                            for side in (sw.side_a, sw.side_b)))

    def switch_of(self, e: End) -> str:
        return self.switches[self.end_site[e][0]].name

    # ------------------------------------------------------------------
    # boundary tracing

    @cached_property
    def boundary_curves(self) -> tuple[BoundaryCurve, ...]:
        site = self.end_site
        sigma = self.sigma
        darts = set(site)  # every end once, as a departure
        curves = []
        while darts:
            start = min(darts)
            seq = []
            d = start
            while True:
                seq.append(d)
                darts.discard(d)
                d = sigma[flip_end(d)]
                if d == start:
                    break
            word = tuple(letter_from_departure(e) for e in seq)
            n = len(seq)
            cusps = []
            for j in range(n):  # sigma keeps a junction at one switch
                if site[flip_end(seq[j - 1])][1] == site[seq[j]][1]:
                    cusps.append(j)
            word, r = min_rotation(word, starts=cusps or None)
            cusps = tuple(sorted((c - r) % n for c in cusps))
            curves.append(BoundaryCurve(word, cusps))
        curves.sort(key=lambda c: word_key(c.word))
        return tuple(curves)

    @cached_property
    def connected(self) -> bool:
        """Whether flips and ribbon successors reach every end from one."""
        reached, todo = set(), [min(self.end_site)]
        while todo:
            e = todo.pop()
            if e not in reached:
                reached.add(e)
                todo += (flip_end(e), self.sigma[e])
        return len(reached) == len(self.end_site)

    def validate(self) -> EulerData:
        """Euler data of the track; InvalidTrack if it is not connected.

        Its ends were checked when it was built.  The rest holds for every
        connected ribbon graph, so it is not checked again: the boundary
        curves have total length 2E, they carry sum(|side| - 1) cusps over
        all sides, and 2 - b - chi is even, so the genus is an integer."""
        if not self.connected:
            raise InvalidTrack("track is not connected, so it has no genus")
        v = len(self.switches)
        e = len(self.edges)
        chi = v - e
        curves = self.boundary_curves
        b = len(curves)
        try:
            self.orientation()
            orientable = True
        except NotOrientable:
            orientable = False
        return EulerData(
            n_switches=v,
            n_edges=e,
            chi=chi,
            n_boundaries=b,
            genus=(2 - b - chi) // 2,
            total_boundary_length=sum(len(c.word) for c in curves),
            cusp_counts=tuple(c.n_cusps for c in curves),
            coherently_orientable=orientable,
        )

    # ------------------------------------------------------------------

    def orientation(self) -> dict[str, int]:
        """Coherent edge orientation (+1 means the edge flows i -> t).

        At every switch one whole side must arrive and the other depart.
        One flip bit per label, set to 0 at the least label of each
        component and walked along the switches: end (x, k) arrives iff
        (k == "t") ^ flip[x].  Raises NotOrientable when two ends disagree.
        """
        flip: dict[str, bool] = {}
        for root in sorted(self.edges):
            if root in flip:
                continue
            flip[root] = False
            todo = [root]
            while todo:
                lab = todo.pop()
                for kind in "it":
                    k, side, _ = self.end_site[(lab, kind)]
                    sw = self.switches[k]
                    arrives = (kind == "t") ^ flip[lab]
                    for other in (1, 2):
                        # ends on one side agree, the two sides differ
                        for x, kx in sw[other]:
                            want = (kx == "t") ^ arrives ^ (other != side)
                            if x not in flip:
                                flip[x] = want
                                todo.append(x)
                            elif flip[x] != want:
                                raise NotOrientable("no coherent orientation")
        return {lab: -1 if flip[lab] else 1 for lab in self.edges}

    # ------------------------------------------------------------------

    @cached_property
    def canonical_key(self) -> tuple:
        """Structure key: labels plus switch presentations, names ignored."""
        reps = sorted(sw.canonical_presentation() for sw in self.switches)
        return (tuple(sorted(self.edges)), tuple(reps))

    def relabel(self, mapping: dict[str, str], name: str | None = None) -> "TrainTrack":
        """Rename edges; identity outside `mapping`.  Switch names persist."""
        full = {lab: mapping.get(lab, lab) for lab in self.edges}
        if len(set(full.values())) != len(full):
            raise InvalidTrack("relabel map is not injective")

        def m_end(e: End) -> End:
            return (full[e[0]], e[1])

        switches = tuple(
            Switch(sw.name, tuple(m_end(e) for e in sw.side_a), tuple(m_end(e) for e in sw.side_b))
            for sw in self.switches
        )
        bounds = tuple(
            (bn, tuple((full[lab], s) for lab, s in w)) for bn, w in self.declared_boundaries
        )
        return TrainTrack(
            name if name is not None else self.name,
            tuple(full[lab] for lab in self.edges),
            switches,
            bounds,
        )

    def renamed(self, name: str) -> "TrainTrack":
        return TrainTrack(name, self.edges, self.switches, self.declared_boundaries)


def tracks_equal(a: TrainTrack, b: TrainTrack) -> bool:
    """Same labels and same switch structure; names and presentation choices
    do not matter."""
    return a.canonical_key == b.canonical_key


# ----------------------------------------------------------------------
# isomorphisms


class TrackIso(NamedTuple):
    """Flip-free, orientation-preserving isomorphism: ends map
    kind-preservingly, (x,k) -> (f(x),k), and side orders are kept.

    Edge-direction-reversing symmetries and reflections are deliberately
    out of scope.
    """

    label_map: tuple[tuple[str, str], ...]

    @property
    def labels(self) -> dict[str, str]:
        return dict(self.label_map)


def isomorphisms(src: TrainTrack, dst: TrainTrack) -> tuple[TrackIso, ...]:
    """All flip-free isomorphisms src -> dst in the embedded sense, without
    reflection; sorted by label map.

    An isomorphism is a bijection of ends that keeps end kinds, commutes
    with `flip_end` and the ribbon successor `sigma`, and keeps whether
    sigma(e) lies on the side of e.  So the image of one end fixes the map
    on its whole component: each component costs one walk per candidate
    image, and no search over switches is needed.
    """
    # equal side profiles give equal end counts, so a one-to-one end map
    # is onto
    if src.side_profile != dst.side_profile:
        return ()
    s_sig, d_sig = src.sigma, dst.sigma
    s_site, d_site = src.end_site, dst.end_site

    def walk(fmap: dict[End, End], e: End, d: End) -> dict[End, End] | None:
        """`fmap` grown from e -> d along flips and ribbon successors, or
        None at the first clash."""
        fmap = dict(fmap)
        images = set(fmap.values())
        stack = [(e, d)]
        while stack:
            e, d = stack.pop()
            if e in fmap:
                if fmap[e] != d:
                    return None
                continue
            if (d in images or e[1] != d[1]
                    or (s_site[s_sig[e]][1] == s_site[e][1])
                    != (d_site[d_sig[d]][1] == d_site[d][1])):
                return None
            fmap[e] = d
            images.add(d)
            stack.append((s_sig[e], d_sig[d]))
            stack.append((flip_end(e), flip_end(d)))
        return fmap

    # a walk covers the whole component of its start, so every partial map
    # covers the same components: grow them all by the next one left out
    maps: list[dict[End, End]] = [{}]
    for start in sorted(s_site):
        if maps and start not in maps[0]:
            maps = [grown for fmap in maps for d in d_site
                    if (grown := walk(fmap, start, d)) is not None]
    return tuple(sorted(
        TrackIso(tuple(sorted((e[0], d[0]) for e, d in fmap.items()
                              if e[1] == "i")))
        for fmap in maps))
