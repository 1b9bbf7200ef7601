"""Exhaustive search for splitting loops.

A loop is a legal splitting sequence whose final track is isomorphic to the
seed (embedded sense, no mirror).  Every identification closing the loop
induces a cellular self map of the final track; those are packaged together
with their certificates.
"""

from __future__ import annotations

from dataclasses import dataclass

from .certify import Certificate, certify
from .errors import NotAnIdentification, ResourceLimit
from .morphism import TrackMorphism, compose, iso_morphism
from .splitting import SplitMove, apply_sequence, apply_split, legal_splits
from .track import TrackIso, TrainTrack, isomorphisms


@dataclass(frozen=True)
class SearchConfig:
    max_depth: int = 4
    certify: bool = True
    tolerance: float = 1e-10
    max_nodes: int | None = None
    # certificate filters; they narrow what is emitted, never what is found
    require_fixed_point_free: bool = False
    require_irreducible: bool = False

    @property
    def needs_certificates(self) -> bool:
        return (self.certify or self.require_fixed_point_free
                or self.require_irreducible)


@dataclass(frozen=True)
class LoopResult:
    sequence: tuple[SplitMove, ...]
    seed: TrainTrack
    final: TrainTrack
    composite: TrackMorphism          # final -> seed
    identifications: tuple[TrackIso, ...]
    self_maps: tuple[TrackMorphism, ...]   # on the final track, aligned
    certificates: tuple[Certificate, ...]  # aligned, empty when not certified

    @property
    def depth(self) -> int:
        return len(self.sequence)

    @property
    def notation(self) -> str:
        return "; ".join(str(m) for m in self.sequence)


class _Budget:
    def __init__(self, limit: int | None):
        self.limit = limit
        self.count = 0

    def bump(self) -> None:
        self.count += 1
        if self.limit is not None and self.count > self.limit:
            raise ResourceLimit(
                f"search visited more than {self.limit} tracks"
            )


def _admits(cert: Certificate, cfg: SearchConfig) -> bool:
    if cfg.require_irreducible and not cert.irreducibility.irreducible:
        return False
    if cfg.require_fixed_point_free and cert.fixed_point_free is not True:
        return False
    return True


def _package(seed: TrainTrack, moves: tuple[SplitMove, ...],
             isos: tuple[TrackIso, ...],
             cfg: SearchConfig) -> LoopResult | None:
    run = apply_sequence(seed, moves)
    kept_isos = []
    self_maps = []
    certs = []
    for iso in isos:
        carrier = iso_morphism(iso, seed, run.final)
        sm = TrackMorphism(run.final, run.final,
                           compose(carrier, run.morphism).images,
                           name=f"loop[{'; '.join(str(m) for m in moves)}]")
        if cfg.needs_certificates:
            cert = certify(sm, tol=cfg.tolerance)
            if not _admits(cert, cfg):
                continue
            certs.append(cert)
        kept_isos.append(iso)
        self_maps.append(sm)
    if not kept_isos:
        return None
    return LoopResult(
        sequence=tuple(moves),
        seed=seed,
        final=run.final,
        composite=run.morphism,
        identifications=tuple(kept_isos),
        self_maps=tuple(self_maps),
        certificates=tuple(certs),
    )


def _dfs(seed: TrainTrack, profile, track: TrainTrack,
         moves: list[SplitMove], cfg: SearchConfig, budget: _Budget,
         out: list[LoopResult]) -> None:
    budget.bump()
    if moves and track.side_profile == profile:
        isos = isomorphisms(seed, track)
        if isos:
            packed = _package(seed, tuple(moves), isos, cfg)
            if packed is not None:
                out.append(packed)
    if len(moves) >= cfg.max_depth:
        return
    for mv in legal_splits(track):
        child, _ = apply_split(track, mv)
        moves.append(mv)
        _dfs(seed, profile, child, moves, cfg, budget, out)
        moves.pop()


def search_loops(seed: TrainTrack,
                 config: SearchConfig | None = None) -> tuple[LoopResult, ...]:
    """Enumerate all loops from the seed up to the configured depth.

    The result tuple is deterministic: sorted by move notation.
    """
    cfg = config or SearchConfig()
    results: list[LoopResult] = []
    _dfs(seed, seed.side_profile, seed, [], cfg, _Budget(cfg.max_nodes),
         results)
    results.sort(key=lambda r: tuple(str(m) for m in r.sequence))
    return tuple(results)


def replay(seed: TrainTrack, moves,
           identification: TrackIso | dict | None = None,
           config: SearchConfig | None = None) -> LoopResult:
    """Rebuild a LoopResult from a recorded sequence, for audit.

    The sequence re-validates move by move (IllegalMove on failure).  When
    an identification is given, only that closure is packaged; it must be
    one of the label bijections closing the loop, otherwise
    NotAnIdentification.  The certificate is always recomputed.
    """
    cfg = config or SearchConfig()
    run = apply_sequence(seed, tuple(moves))
    isos = isomorphisms(seed, run.final)
    if not isos:
        raise NotAnIdentification(
            f"the sequence ends on a track not isomorphic to {seed.name}")
    if identification is not None:
        want = identification.labels if isinstance(identification, TrackIso) \
            else dict(identification)
        isos = tuple(i for i in isos if dict(i.labels) == want)
        if not isos:
            raise NotAnIdentification(
                "the given label bijection does not close this loop")
    packed = _package(seed, tuple(moves), isos, cfg)
    if packed is None:
        raise NotAnIdentification(
            "no closure of this loop passes the configured filters")
    return packed
