"""Memoized search for splitting loops.

A loop is a legal splitting sequence whose final track is isomorphic to the
seed (embedded sense, no mirror).  Every identification closing the loop
induces a cellular self map of the final track; those are packaged together
with their certificates.

Which moves close up from a track depends only on its structure and on the
depth left, so the search expands each (structure, remaining depth) once and
shares the result among every path that reaches it.  Splitting keeps switch
names and order, so the switch tuple a split returns keys the structure.
Expansions split the bare switches and their end sites, after weighing each
move by its side sizes, once per pair of sizes it changes; a TrainTrack is
built and validated only for an isomorphism test, and ends every loop that
closes on it.  Each suffix found carries that track and its isomorphisms,
so a loop is packaged without splitting again: its composite depends on
its moves alone, and each closure's self map renames the letters of that
composite.  Within one search, closures with the same final track and edge
images get the same certificate up to the map name, so each such pair is
certified once: the depth-4 census from tau_prime certifies 22 pairs for
its 160 closures, and depth 6 certifies 122 for 1,024.
"""

from __future__ import annotations

from collections import Counter
from typing import NamedTuple

from .certify import Certificate, certify
from .errors import BadIndex, NotAnIdentification, ResourceLimit
from .morphism import TrackMorphism
from .splitting import (
    SplitMove,
    _images,
    _Layout,
    _moves_at,
    _split,
    apply_sequence,
    format_sequence,
)
from .track import Switch, TrackIso, TrainTrack, flip_end, isomorphisms


# where a closing suffix ends: the track and the isomorphisms from the seed
_Closure = tuple[TrainTrack, tuple[TrackIso, ...]]

# Deepest search accepted.  Each level multiplies the tracks to expand
# (about 3.3x from depth 6 to 7), so no exhaustive search gets near it, and
# its recursion stays well inside Python's default limit.
MAX_DEPTH = 100

# Default budget of tracks to expand (memo misses plus leaf isomorphism
# checks); depth 7 from tau_prime expands 24,694.
MAX_NODES = 50_000


class SearchConfig(NamedTuple):
    max_depth: int = 4
    certify: bool = True
    max_nodes: int = MAX_NODES
    # certificate filters; they narrow what is emitted, never what is found
    require_fixed_point_free: bool = False
    require_irreducible: bool = False

    @property
    def needs_certificates(self) -> bool:
        return (self.certify or self.require_fixed_point_free
                or self.require_irreducible)


class LoopResult(NamedTuple):
    sequence: tuple[SplitMove, ...]
    composite: TrackMorphism          # final track -> seed
    identifications: tuple[TrackIso, ...]
    self_maps: tuple[TrackMorphism, ...]   # on the final track, aligned
    certificates: tuple[Certificate, ...]  # aligned, empty when not certified

    @property
    def depth(self) -> int:
        return len(self.sequence)

    @property
    def notation(self) -> str:
        return format_sequence(self.sequence)


def _admits(cert: Certificate, cfg: SearchConfig) -> bool:
    if cfg.require_irreducible and not cert.irreducibility.irreducible:
        return False
    if cfg.require_fixed_point_free and cert.fixed_point_free is not True:
        return False
    return True


def _package(moves: tuple[SplitMove, ...], composite: TrackMorphism,
             isos: tuple[TrackIso, ...], cfg: SearchConfig,
             certified: dict[tuple, Certificate]) -> LoopResult | None:
    """The loop of `moves`, whose composite is `composite`, with its
    closures by `isos`, or None when the filters drop them all.
    `certified` maps (final switches, images), the inputs of `certify` that
    vary within one search, to the certificate already made for them, and
    gains the ones made here."""
    final = composite.source
    kept_isos = []
    self_maps = []
    certs = []
    for iso in isos:
        # iso: seed -> final renames letters, which keeps images reduced
        rename = {(x, s): (y, s) for x, y in iso.label_map for s in (1, -1)}
        sm = TrackMorphism(final, final,
                           {x: tuple(map(rename.__getitem__, w))
                            for x, w in composite.images},
                           name=f"loop[{format_sequence(moves)}]")
        if cfg.needs_certificates:
            key = (final.switches, sm.images)
            cert = certified.get(key)
            if cert is None:
                cert = certified[key] = certify(sm)
            else:
                cert = cert._replace(map_name=sm.name)
            if not _admits(cert, cfg):
                continue
            certs.append(cert)
        kept_isos.append(iso)
        self_maps.append(sm)
    if not kept_isos:
        return None
    return LoopResult(sequence=moves, composite=composite,
                      identifications=tuple(kept_isos),
                      self_maps=tuple(self_maps), certificates=tuple(certs))


class _LoopSearch:
    """Closing suffixes of the tracks below one seed.

    A suffix of a track is a sequence of 1 up to the remaining depth moves
    that ends on a track isomorphic to the seed.  `memo[r]` maps the
    switches of a track met with r >= 1 moves left to its suffixes, plus
    the empty one when the track itself closes, each paired with the
    `closes` entry of the track it ends on.  Leaves (no move left) get no
    entry.
    A move changes at most two side sizes, so a child with more than 2r
    sizes the seed lacks cannot close in the r moves left after it; each
    move is weighed without splitting (_weighed), and such a move is not
    split (IDA*-style lower-bound pruning).  `closes` keeps, under each
    tested track's switches, that track and the isomorphisms from the seed
    onto it.  A child's layout is its parent's with the ends the move
    shifted re-sited.
    """

    def __init__(self, seed: TrainTrack, cfg: SearchConfig):
        self.seed = seed
        self.seed_counts = Counter(seed.side_profile)  # sides per size
        self.max_nodes = cfg.max_nodes
        self.nodes = 0
        self.memo: list[dict[tuple[Switch, ...], tuple]] = [
            {} for _ in range(cfg.max_depth)]
        self.closes: dict[tuple[Switch, ...], _Closure] = {}

    def _expand(self) -> None:
        """Count one expansion against the budget."""
        self.nodes += 1
        if self.nodes > self.max_nodes:
            raise ResourceLimit(
                f"search expanded more than {self.max_nodes} tracks")

    def _closes(self, switches: tuple[Switch, ...]) -> _Closure:
        """The track on `switches` and the seed's isomorphisms onto it."""
        if switches not in self.closes:
            track = TrainTrack(self.seed.name, self.seed.edges, switches)
            self.closes[switches] = track, isomorphisms(self.seed, track)
        return self.closes[switches]

    def _weighed(self, track: TrainTrack | _Layout):
        """Each legal move on `track` as (slid, over, lacking): how many
        side sizes of the track it splits into the seed's profile lacks, as
        a multiset difference.  The slid end's side shrinks by one and the
        far end's (the over edge's other end) grows by one, so `lacking`
        depends only on the track's sizes and that pair of sizes, and is
        worked out once per pair; a far end on the slid end's own side
        changes no size."""
        switches, site = track.switches, track.end_site
        # size -> how many more sides of it the track has than the seed
        excess = {n: -k for n, k in self.seed_counts.items()}
        for sw in switches:
            for ends in (sw.side_a, sw.side_b):
                excess[len(ends)] = excess.get(len(ends), 0) + 1
        by_pair: dict[tuple[int, int] | None, int] = {}
        for sw in switches:
            for slid, over in _moves_at(sw):
                k, side, _ = site[flip_end(over)]
                own, far = sw[site[slid][1]], switches[k][side]
                pair = None if far is own else (len(own), len(far))
                lacking = by_pair.get(pair)
                if lacking is None:
                    child = excess.copy()
                    if pair:
                        a, b = pair
                        for n, d in ((a, -1), (a - 1, 1), (b, -1), (b + 1, 1)):
                            child[n] = child.get(n, 0) + d
                    lacking = by_pair[pair] = sum(
                        k for k in child.values() if k > 0)
                yield slid, over, lacking

    def suffixes(self, track: TrainTrack | _Layout, depth: int
                 ) -> tuple[tuple[tuple[SplitMove, ...], _Closure], ...]:
        """The closing suffixes of `track`, with `depth` >= 1 moves left,
        each with the `closes` entry of the track it ends on."""
        found = []
        left = depth - 1
        memo = self.memo[left]
        for slid, over, lacking in self._weighed(track):
            if lacking > 2 * left:
                continue
            mv = SplitMove(slid, over)
            switches, shifted = _split(track, mv)
            if not left:
                if switches not in self.closes:
                    self._expand()  # a leaf isomorphism check
                if (closure := self._closes(switches))[1]:
                    found.append(((mv,), closure))
                continue
            tail = memo.get(switches)
            if tail is None:
                self._expand()
                child = _Layout(track)
                child.split(switches, shifted)
                tail = self.suffixes(child, left)
                if not lacking and (closure := self._closes(switches))[1]:
                    tail = (((), closure),) + tail
                memo[switches] = tail
            found.extend(((mv,) + s, closure) for s, closure in tail)
        # most tracks close nothing; tuple() of an empty list is the one
        # shared empty tuple, so those memo entries cost no value object
        return tuple(found)


def search_loops(seed: TrainTrack,
                 config: SearchConfig | None = None) -> tuple[LoopResult, ...]:
    """Enumerate all loops from the seed up to the configured depth.

    The result tuple is deterministic: sorted by move notation.  Raises
    BadIndex for a depth outside 0..MAX_DEPTH or a node budget below 1, and
    ResourceLimit once more than `max_nodes` tracks are expanded.
    """
    cfg = config or SearchConfig()
    if not 0 <= cfg.max_depth <= MAX_DEPTH:
        raise BadIndex(f"search depth must be between 0 and {MAX_DEPTH}, "
                       f"got {cfg.max_depth}")
    if cfg.max_nodes < 1:
        raise BadIndex("search node budget must be at least 1, "
                       f"got {cfg.max_nodes}")
    # packaging needs only the suffixes, so the memo is freed before it
    found = (_LoopSearch(seed, cfg).suffixes(seed, cfg.max_depth)
             if cfg.max_depth else ())
    results: list[LoopResult] = []
    certified: dict[tuple, Certificate] = {}
    for moves, (final, isos) in sorted(
            found, key=lambda f: tuple(str(m) for m in f[0])):
        composite = TrackMorphism(final, seed, _images(seed.edges, moves))
        packed = _package(moves, composite, isos, cfg, certified)
        if packed is not None:
            results.append(packed)
    return tuple(results)


def replay(seed: TrainTrack, moves,
           identification: dict[str, str] | None = None,
           config: SearchConfig | None = None) -> LoopResult:
    """Rebuild a LoopResult from a recorded sequence, for audit.

    The sequence re-validates move by move (IllegalMove on failure).  When
    an identification (a label dict) is given, only that closure is packaged;
    it must be one of the label bijections closing the loop, otherwise
    NotAnIdentification.  The certificate is always recomputed.
    """
    cfg = config or SearchConfig()
    moves = tuple(moves)
    composite = apply_sequence(seed, moves)
    isos = isomorphisms(seed, composite.source)
    if not isos:
        raise NotAnIdentification(
            f"the sequence ends on a track not isomorphic to {seed.name}")
    if identification is not None:
        isos = tuple(i for i in isos if i.labels == identification)
        if not isos:
            raise NotAnIdentification(
                "the given label bijection does not close this loop")
    packed = _package(moves, composite, isos, cfg, {})
    if packed is None:
        raise NotAnIdentification(
            "no closure of this loop passes the configured filters")
    return packed
