"""Elementary splitting moves and their morphisms.

A move END(x)/END(y) slides the end of edge x over the end of edge y.  The
two ends must sit at one switch on opposite sides, ribbon-adjacent at an
extremity of the switch: first of side A with first of side B, or last of A
with last of B.  The slid end leaves the switch and reattaches at the far
end of the over edge, next to it.

The move comes with a morphism from the NEW track back to the OLD one: the
slid edge now rides along the over edge, every other edge is untouched.
With r = y when the over end is i(y) and r = y^-1 when it is t(y):

    sliding t(x) gives x -> x r,   sliding i(x) gives x -> r^-1 x.

Unsplitting folds the slid end back: of the tracks that differ from the
given one only in where the slid end sits, it keeps the one the move splits
into the given track.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NoReturn

from .errors import IllegalMove, InvalidTrack, ParseError
from .morphism import TrackMorphism
from .track import (End, Switch, TrainTrack, flip_end, format_end, parse_end,
                    site_ends)
from .words import Word, inv_letter, inverse, join


@dataclass(frozen=True)
class SplitMove:
    slid: End
    over: End

    def __str__(self) -> str:
        return f"{format_end(self.slid)}/{format_end(self.over)}"


def parse_move(token: str, line: int | None = None, col: int | None = None) -> SplitMove:
    slid, _, over = token.partition("/")
    try:
        return SplitMove(parse_end(slid), parse_end(over))
    except ParseError:
        raise ParseError(f"bad move token {token!r}, expected like t(a)/i(b)",
                         line, col) from None


def parse_sequence(text: str, line: int = 1) -> tuple[SplitMove, ...]:
    """Whitespace or semicolon separated move tokens; # starts a comment.
    `line` offsets reported positions when the text sits inside a file."""
    moves = []
    for ln, raw in enumerate(text.splitlines(), start=line):
        body = raw.split("#", 1)[0].replace(";", " ")
        col = 1
        for chunk in body.split():
            col = body.index(chunk, col - 1) + 1
            moves.append(parse_move(chunk, ln, col))
            col += len(chunk)
    return tuple(moves)


def format_sequence(moves) -> str:
    return "; ".join(str(m) for m in moves)


# ----------------------------------------------------------------------


def _moves_at(sw: Switch) -> list[tuple[End, End, str]]:
    """The legal moves at `sw` as (slid, over, case): the ends are
    ribbon-adjacent at an extremity of a switch of valence >= 4, of
    different edges, and the slid side keeps an end.

    after:  sigma(slid) == over  (pairs A[-1]/B[-1] and B[0]/A[0])
    before: sigma(over) == slid  (pairs B[-1]/A[-1] and A[0]/B[0])
    """
    a, b = sw.side_a, sw.side_b
    if len(a) + len(b) < 4:
        return []
    return [(slid, over, case)
            for slid_side, slid, over, case in ((a, a[-1], b[-1], "after"),
                                                (b, b[-1], a[-1], "before"),
                                                (a, a[0], b[0], "before"),
                                                (b, b[0], a[0], "after"))
            if len(slid_side) > 1 and slid[0] != over[0]]


class _Layout:
    """The switches, end sites and switch positions of a track, which is
    all the split kernel reads of it.  Splitting keeps switch names and
    order, so `switch_index` serves a whole run.  A legal move takes an end
    from a side that keeps another and puts it back on a side, so it keeps
    all that TrainTrack validates: a run of moves needs a TrainTrack only
    where a caller does."""

    __slots__ = ("switches", "end_site", "switch_index")

    def __init__(self, track):
        self.switches = track.switches
        self.end_site = dict(track.end_site)
        self.switch_index = track.switch_index

    def split(self, switches: tuple[Switch, ...], rebuilt) -> None:
        """Take on `switches`, which differ from ours at the positions
        `rebuilt`."""
        self.switches = switches
        for k in rebuilt:
            site_ends(self.end_site, switches[k])


def _switch(track, name: str) -> Switch:
    return track.switches[track.switch_index[name]]


def _case(track: TrainTrack, move: SplitMove) -> str | None:
    """The case of `move` on `track`, None when the move is illegal."""
    site = track.end_site.get(move.slid)
    if site is not None:
        for slid, over, case in _moves_at(_switch(track, site[0])):
            if slid == move.slid and over == move.over:
                return case
    return None


def _check_ends(track: TrainTrack, move: SplitMove) -> None:
    """Raise IllegalMove when an end of `move` is not on `track`."""
    for e in (move.slid, move.over):
        if e not in track.end_site:
            raise IllegalMove(f"{move}: no end {format_end(e)}", move=move,
                              reason="missing-end")


def _reject(track: TrainTrack, move: SplitMove) -> NoReturn:
    """Raise IllegalMove saying why `move` is not legal on `track`."""
    _check_ends(track, move)
    site = track.end_site
    vs, side_s, _ = site[move.slid]
    vo, side_o, _ = site[move.over]
    if move.slid[0] == move.over[0]:
        raise IllegalMove(f"{move}: cannot slide an edge over itself", move=move,
                          reason="same-edge")
    if vs != vo:
        raise IllegalMove(f"{move}: ends sit at different switches {vs}, {vo}",
                          move=move, reason="different-switches")
    if side_s == side_o:
        raise IllegalMove(f"{move}: ends sit on the same side", move=move,
                          reason="same-side")
    sw = _switch(track, vs)
    if sw.valence < 4:
        raise IllegalMove(f"{move}: switch {vs} has valence {sw.valence} < 4",
                          move=move, reason="valence")
    slid_side = sw.side_a if side_s == "A" else sw.side_b
    if len(slid_side) < 2:
        raise IllegalMove(f"{move}: slid side of {vs} would empty out",
                          move=move, reason="thin-side")
    raise IllegalMove(
        f"{move}: ends are not ribbon-adjacent at an extremity of {vs}",
        move=move, reason="not-adjacent",
    )


def is_legal(track: TrainTrack, move: SplitMove) -> bool:
    return _case(track, move) is not None


def legal_splits(track: TrainTrack) -> tuple[SplitMove, ...]:
    """All legal moves, sorted by notation for deterministic traversal."""
    return tuple(sorted((SplitMove(slid, over) for sw in track.switches
                         for slid, over, _ in _moves_at(sw)), key=str))


def _ride_letter(over: End):
    y, kind = over
    return (y, 1) if kind == "i" else (y, -1)


def _slid_image(move: SplitMove) -> Word:
    """The image of the slid edge under the move's morphism."""
    x, r = move.slid[0], _ride_letter(move.over)
    return ((x, 1), r) if move.slid[1] == "t" else (inv_letter(r), (x, 1))


def _split_images(track: TrainTrack, move: SplitMove) -> dict[str, Word]:
    images: dict[str, Word] = {lab: ((lab, 1),) for lab in track.edges}
    images[move.slid[0]] = _slid_image(move)
    return images


def _moved(track: TrainTrack, e: End, dest: str, side: str,
           at) -> tuple[tuple[Switch, ...], tuple[int, ...]]:
    """The switches of `track` with end `e` moved to side `side` of switch
    `dest`, at index `at(ends)`, where `ends` lists that side once `e` has
    left, and the positions of the switches rebuilt.  Switches the edit
    leaves alone are the original objects."""
    src, side_e, idx = track.end_site[e]
    s, d = track.switch_index[src], track.switch_index[dest]
    switches = list(track.switches)
    sides = {k: (list(switches[k].side_a), list(switches[k].side_b))
             for k in (s, d)}
    del sides[s][0 if side_e == "A" else 1][idx]
    ends = sides[d][0 if side == "A" else 1]
    ends.insert(at(ends), e)
    for k, (a, b) in sides.items():
        switches[k] = Switch(switches[k].name, tuple(a), tuple(b))
    return tuple(switches), tuple(sides)


def _split(track: TrainTrack,
           move: SplitMove) -> tuple[tuple[Switch, ...], tuple[int, ...]]:
    """split_switches, with the positions of the switches the move
    rebuilt."""
    case = _case(track, move)
    if case is None:
        _reject(track, move)
    # the slid end reattaches next to the far end of the over edge, before
    # or after it in the ribbon order; side B runs against that order
    far = flip_end(move.over)
    w, side_f, _ = track.end_site[far]
    step = (case == "after") == (side_f == "A")
    return _moved(track, move.slid, w, side_f,
                  lambda ends: ends.index(far) + step)


def split_switches(track: TrainTrack, move: SplitMove) -> tuple[Switch, ...]:
    """The switches of the track `move` splits `track` into, in the same
    order and under the same names.  This is the structure-only kernel of
    apply_split: no track is built or validated.  Switches the move leaves
    alone are the original objects."""
    return _split(track, move)[0]


def apply_split(track: TrainTrack, move: SplitMove) -> tuple[TrainTrack, TrackMorphism]:
    """Perform one move; returns (new track, morphism new -> old)."""
    new_track = TrainTrack(track.name, track.edges, split_switches(track, move))
    morphism = TrackMorphism(new_track, track, _split_images(track, move),
                             name=str(move))
    return new_track, morphism


def unsplit(track: TrainTrack, move: SplitMove) -> tuple[TrainTrack, TrackMorphism]:
    """Undo `move`: fold the slid end back to the over end's switch.

    The result T satisfies apply_split(T, move) == (track, same morphism).
    Candidates put the slid end at either extremity of the side opposite
    the over end; the one that split_switches takes back to `track` wins.
    """
    _check_ends(track, move)
    v, side_o, _ = track.end_site[move.over]
    opp = "B" if side_o == "A" else "A"  # the side opposite the over end
    survivors = []
    for at in ((lambda ends: 0), len):
        # a side left empty, or a move illegal on the candidate, rules it out
        try:
            cand = TrainTrack(track.name, track.edges,
                              _moved(track, move.slid, v, opp, at)[0])
            if split_switches(cand, move) == track.switches:
                survivors.append(cand)
        except (IllegalMove, InvalidTrack):
            continue
    if not survivors:
        raise IllegalMove(
            f"cannot unsplit {move}: no track splits to the given one",
            move=move, reason="not-foldable",
        )
    if len(survivors) > 1:
        raise IllegalMove(f"unsplit {move} is ambiguous", move=move,
                          reason="ambiguous")
    cand = survivors[0]
    return cand, TrackMorphism(track, cand, _split_images(cand, move),
                               name=str(move))


# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SplitRun:
    start: TrainTrack
    final: TrainTrack
    moves: tuple[SplitMove, ...]
    morphism: TrackMorphism  # final -> start


def apply_sequence(track: TrainTrack, moves) -> SplitRun:
    """Apply moves in order; the composite morphism maps the final track back
    to the start.  IllegalMove carries the index and the track reached.

    Every move is checked for legality on one layout, updated in place;
    only the final track, or the one a move fails on, is built (_Layout).

    A move changes only the image of its slid edge: x r becomes the join of
    the images of x and r (r^-1 x likewise).  Both are reduced, so the
    composite grows at the seam and is reduced there alone; a composite of
    splits is a train path, which never cancels at the seam.  When one side
    of each switch holds only t ends and the other only i ends, as on the
    atlas tracks, r is a positive letter and no image is inverted either."""
    layout = _Layout(track)
    images: dict[str, Word] = {lab: ((lab, 1),) for lab in track.edges}

    def image(lt):
        return images[lt[0]] if lt[1] > 0 else inverse(images[lt[0]])

    def reached() -> TrainTrack:
        if layout.switches is track.switches:  # no move made yet
            return track
        return TrainTrack(track.name, track.edges, layout.switches)

    mv_tuple = tuple(moves)
    for i, mv in enumerate(mv_tuple):
        try:
            layout.split(*_split(layout, mv))
        except IllegalMove as exc:
            raise IllegalMove(
                f"move {i}: {exc}", index=i, move=mv, reason=exc.reason,
                track=reached(),
            ) from exc
        u, v = _slid_image(mv)
        images[mv.slid[0]] = join(image(u), image(v))
    final = reached()
    name = ".".join(["id"] + [str(mv) for mv in mv_tuple])
    return SplitRun(track, final, mv_tuple,
                    TrackMorphism(final, track, images, name=name))
