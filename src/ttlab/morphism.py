"""Cellular maps between train tracks.

A morphism sends each edge of the source to a non-empty reduced edge path in
the target and every switch to a switch, smoothly: ends on one side of a
switch keep departing on one common side of the image switch, the two sides
of a switch depart on the two distinct sides of the image switch, and the
interior junctions of every edge image cross their switches from side to
side.  This is exactly what lets the image be pulled tight along the track.
"""

from __future__ import annotations

from functools import cached_property
from collections.abc import Mapping

from .errors import ChainMismatch, InvalidMorphism, NotASelfMap
from .track import (
    End,
    TrainTrack,
    arrival_end,
    departure_end,
    format_end,
    tracks_equal,
)
from .words import Word, free_reduce, substitute


class TrackMorphism:
    """Edge images, given as a mapping or (label, word) pairs, kept sorted.
    Fields cannot be set; `==` ignores names, and there is no hash."""

    def __init__(self, source: TrainTrack, target: TrainTrack, images,
                 name: str = ""):
        imgs = images.items() if isinstance(images, Mapping) else images
        imgs = tuple(sorted((k, tuple(w)) for k, w in imgs))
        self.__dict__.update(source=source, target=target, images=imgs,
                             name=name)
        have = [k for k, _ in self.images]
        want = sorted(self.source.edges)
        if have != want:
            raise InvalidMorphism(
                f"images must cover the source edges exactly; got {have}, want {want}"
            )
        known = set(self.target.edges)
        if not {x for _, w in imgs for x, _ in w} <= known:
            lab, x = next((lab, x) for lab, w in imgs for x, _ in w if x not in known)
            raise InvalidMorphism(f"image of {lab!r} uses unknown edge {x!r}")

    @cached_property
    def mapping(self) -> dict[str, Word]:
        return dict(self.images)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TrackMorphism):
            return NotImplemented
        return (
            tracks_equal(self.source, other.source)
            and tracks_equal(self.target, other.target)
            and self.images == other.images
        )

    __hash__ = None  # type: ignore[assignment]

    def __setattr__(self, name, value):
        raise AttributeError(f"a TrackMorphism is immutable: cannot set {name!r}")

    @property
    def is_self_map(self) -> bool:
        return tracks_equal(self.source, self.target)

    # ------------------------------------------------------------------

    def _image_direction(self, e: End) -> End:
        """End of the target by which the image path leaves the image switch
        of e.  For i(x) that is the departure end of the first image letter,
        for t(x) the arrival end of the last one."""
        w = self.mapping[e[0]]
        if e[1] == "i":
            return departure_end(w[0])
        return arrival_end(w[-1])

    @cached_property
    def switch_images(self) -> dict[str, str]:
        """Induced switch map; raises InvalidMorphism when ends disagree."""
        out: dict[str, str] = {}
        switch_of = self.target.switch_of
        for sw in self.source.switches:
            hits = {switch_of(self._image_direction(e)) for e in sw.ends}
            if len(hits) != 1:
                raise InvalidMorphism(
                    f"ends of switch {sw.name!r} map to different switches: "
                    + ", ".join(sorted(hits))
                )
            out[sw.name] = hits.pop()
        return out

    def check(self) -> None:
        """Full morphism check; raises InvalidMorphism with the reason."""
        tsite = self.target.end_site
        for lab, w in self.images:
            if not w:
                raise InvalidMorphism(f"image of {lab!r} is empty")
            if w != free_reduce(w):
                raise InvalidMorphism(f"image of {lab!r} is not reduced")
            # path condition and interior smoothness
            for k in range(len(w) - 1):
                arr = arrival_end(w[k])
                dep = departure_end(w[k + 1])
                sa = tsite[arr]
                sd = tsite[dep]
                if sa[0] != sd[0]:
                    raise InvalidMorphism(
                        f"image of {lab!r} breaks between {format_end(arr)} "
                        f"and {format_end(dep)}"
                    )
                if sa[1] == sd[1]:
                    raise InvalidMorphism(
                        f"image of {lab!r} has an illegal (cusped) turn at "
                        f"{format_end(arr)} | {format_end(dep)}"
                    )
        # switch condition and side smoothness
        for sw in self.source.switches:
            vt = self.switch_images[sw.name]  # may raise
            sides_hit = []
            for side in (sw.side_a, sw.side_b):
                hit = {tsite[self._image_direction(e)][1] for e in side}
                if len(hit) != 1:
                    raise InvalidMorphism(
                        f"side of switch {sw.name!r} departs on two sides of {vt!r}"
                    )
                sides_hit.append(hit.pop())
            if sides_hit[0] == sides_hit[1]:
                raise InvalidMorphism(
                    f"both sides of switch {sw.name!r} depart on side "
                    f"{'AB'[sides_hit[0] - 1]} of {vt!r}"
                )


# ----------------------------------------------------------------------


def identity_morphism(track: TrainTrack) -> TrackMorphism:
    return TrackMorphism(
        track, track, {lab: ((lab, 1),) for lab in track.edges}, name="id"
    )


def compose(outer: TrackMorphism, inner: TrackMorphism) -> TrackMorphism:
    """outer . inner, defined when inner.target and outer.source agree as
    structures (names are ignored)."""
    if not tracks_equal(inner.target, outer.source):
        raise ChainMismatch(
            f"cannot compose: inner target {inner.target.name!r} does not match "
            f"outer source {outer.source.name!r}"
        )
    images = {
        lab: free_reduce(substitute(w, outer.mapping)) for lab, w in inner.images
    }
    name = f"{outer.name}.{inner.name}" if outer.name and inner.name else ""
    return TrackMorphism(inner.source, outer.target, images, name=name)


def compose_chain(morphisms) -> TrackMorphism:
    """Compose left to right: compose_chain([f, g, h]) = f . g . h."""
    ms = list(morphisms)
    if not ms:
        raise ChainMismatch("empty chain")
    cur = ms[0]
    for m in ms[1:]:
        cur = compose(cur, m)
    return cur


def power(m: TrackMorphism, k: int) -> TrackMorphism:
    if not m.is_self_map:
        raise NotASelfMap("powers need a self map")
    if k < 0:
        raise InvalidMorphism("negative powers are not defined")
    result = identity_morphism(m.source)
    for _ in range(k):
        result = compose(m, result)
    return result


def relabel_morphism(src: TrainTrack, mapping: dict[str, str],
                     name: str = "") -> TrackMorphism:
    """The tautological morphism src -> src.relabel(mapping)."""
    dst = src.relabel(mapping)
    full = {lab: mapping.get(lab, lab) for lab in src.edges}
    return TrackMorphism(src, dst, {lab: ((full[lab], 1),) for lab in src.edges},
                         name=name)
