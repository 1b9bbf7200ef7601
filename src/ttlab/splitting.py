"""Elementary splitting moves and their morphisms.

A move END(x)/END(y) slides the end of edge x over the end of edge y.  The
two ends must sit at one switch on opposite sides, ribbon-adjacent at an
extremity of the switch: first of side A with first of side B, or last of A
with last of B, so the two extremity pairs of the slid end's switch decide a
move.  The slid end leaves the switch and reattaches at the far end of the
over edge, next to it; only the two sides it leaves and joins change.

The move comes with a morphism from the NEW track back to the OLD one: the
slid edge now rides along the over edge, every other edge is untouched.
With r = y when the over end is i(y) and r = y^-1 when it is t(y):

    sliding t(x) gives x -> x r,   sliding i(x) gives x -> r^-1 x.

Unsplitting folds the slid end back: of the tracks that differ from the
given one only in where the slid end sits, it keeps the one the move splits
into the given track.
"""

from __future__ import annotations

from collections import deque
from typing import NamedTuple, NoReturn

from .errors import IllegalMove, InvalidTrack, ParseError
from .morphism import TrackMorphism
from .track import End, Switch, TrainTrack, flip_end, format_end, parse_end
from .words import Word, free_reduce, inverse


class SplitMove(NamedTuple):
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


def _moves_at(sw: Switch) -> list[tuple[End, End]]:
    """The legal moves at `sw` as (slid, over) pairs: the ends are
    ribbon-adjacent at an extremity of a switch of valence >= 4, of
    different edges, and the slid side keeps an end."""
    a, b = sw.side_a, sw.side_b
    if len(a) + len(b) < 4:
        return []
    return [(slid, over)
            for slid_side, slid, over in ((a, a[-1], b[-1]), (b, b[-1], a[-1]),
                                          (a, a[0], b[0]), (b, b[0], a[0]))
            if len(slid_side) > 1 and slid[0] != over[0]]


_Runs = tuple[tuple[int, int, int], ...]  # (switch position, side, first)


class _Layout:
    """The switches and end sites of a track, which is all the split kernel
    reads of it.  A site holds its switch's position, which splitting keeps,
    so no name is looked up along a run, and its side's field index.  A
    legal move takes an end from a side that keeps another and puts it back
    on a side, so it keeps all that TrainTrack validates: a run of moves
    needs a TrainTrack only where a caller does.  A move re-sites only the
    ends it shifts (_moved)."""

    __slots__ = ("switches", "end_site")

    def __init__(self, track):
        self.switches = track.switches
        self.end_site = dict(track.end_site)

    def split(self, switches: tuple[Switch, ...], shifted: _Runs) -> None:
        """Take on `switches`; each end whose site moved is in a run of
        `shifted`, from its first index to the end of its side."""
        self.switches = switches
        site = self.end_site
        for k, side, first in shifted:
            ends = switches[k][side]
            for i in range(first, len(ends)):
                site[ends[i]] = (k, side, i)


def _extremity(track, move: SplitMove) -> bool | None:
    """True when `move` slides the last end of a side over the last end of
    the other side, False when the first over the first, None when `move`
    is illegal: the test of _moves_at, made for one move."""
    site = track.end_site.get(move.slid)
    if site is None or move.slid[0] == move.over[0]:
        return None
    k, side, idx = site
    sw = track.switches[k]
    own, other = sw[side], sw[3 - side]
    last = idx == len(own) - 1
    if (len(own) > 1 and len(own) + len(other) >= 4 and (last or idx == 0)
            and other[-1 if last else 0] == move.over):
        return last
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
    ks, side_s, _ = track.end_site[move.slid]
    ko, side_o, _ = track.end_site[move.over]
    sw = track.switches[ks]
    vs, vo = sw.name, track.switches[ko].name
    if move.slid[0] == move.over[0]:
        raise IllegalMove(f"{move}: cannot slide an edge over itself", move=move,
                          reason="same-edge")
    if ks != ko:
        raise IllegalMove(f"{move}: ends sit at different switches {vs}, {vo}",
                          move=move, reason="different-switches")
    if side_s == side_o:
        raise IllegalMove(f"{move}: ends sit on the same side", move=move,
                          reason="same-side")
    if sw.valence < 4:
        raise IllegalMove(f"{move}: switch {vs} has valence {sw.valence} < 4",
                          move=move, reason="valence")
    if len(sw[side_s]) < 2:
        raise IllegalMove(f"{move}: slid side of {vs} would empty out",
                          move=move, reason="thin-side")
    raise IllegalMove(
        f"{move}: ends are not ribbon-adjacent at an extremity of {vs}",
        move=move, reason="not-adjacent",
    )


def legal_splits(track: TrainTrack) -> tuple[SplitMove, ...]:
    """All legal moves, sorted by notation for deterministic traversal."""
    return tuple(sorted((SplitMove(slid, over) for sw in track.switches
                         for slid, over in _moves_at(sw)), key=str))


def _moved(track, e: End, d: int, side: int,
           at: int) -> tuple[tuple[Switch, ...], _Runs]:
    """The switches of `track` with end `e` moved to index `at` of side
    `side` of the switch at position `d`, counted once `e` has left (past
    the end: last), and the runs of ends whose sites that shifts: from
    where `e` left its side and from where it joined one, to the side's
    end.  Switches the edit leaves alone are the original objects."""
    s, side_e, idx = track.end_site[e]
    switches = list(track.switches)
    sw = list(switches[s])  # name, side_a, side_b: a side is its index
    sw[side_e] = sw[side_e][:idx] + sw[side_e][idx + 1:]
    if s != d:
        switches[s] = Switch(*sw)
        sw = list(switches[d])
    sw[side] = sw[side][:at] + (e,) + sw[side][at:]
    switches[d] = Switch(*sw)
    if s == d and side_e == side:  # one run from the first of the two points
        return tuple(switches), ((d, side, idx if idx < at else at),)
    return tuple(switches), ((s, side_e, idx), (d, side, at))


def _split(track, move: SplitMove) -> tuple[tuple[Switch, ...], _Runs]:
    """split_switches, with the runs of ends whose sites the move
    shifted."""
    last = _extremity(track, move)
    if last is None:
        _reject(track, move)
    # the slid end reattaches next to the far end of the over edge: on a
    # side of the slid side's index after it if the slid end was last and
    # before it if first, on the other index (side_b runs against the
    # ribbon order) the other way round
    site = track.end_site
    v, side_s, idx = site[move.slid]
    w, side_f, at = site[flip_end(move.over)]
    same = side_f == side_s
    if same and w == v and at > idx:
        at -= 1  # the slid end leaves from before the far end
    return _moved(track, move.slid, w, side_f, at + (last == same))


def split_switches(track: TrainTrack, move: SplitMove) -> tuple[Switch, ...]:
    """The switches of the track `move` splits `track` into, in the same
    order and under the same names.  This is the structure-only kernel of
    apply_split: no track is built or validated.  Switches the move leaves
    alone are the original objects."""
    return _split(track, move)[0]


def _images(edges: tuple[str, ...], moves) -> dict[str, Word]:
    """The edge images of the morphism of a run of legal `moves`.  A move
    turns the slid edge's image x into x r or r^-1 x: it gains the letters
    of r's image at its end, or of r^-1's at its start, so a run copies
    each letter of its result once; the seams are reduced at the end."""
    images = {lab: deque(((lab, 1),)) for lab in edges}
    for (x, kind), (y, over) in ((mv.slid, mv.over) for mv in moves):
        ride = images[y]  # the image of r when r = y (over i(y)), else of r^-1
        if kind == "t":
            images[x].extend(ride if over == "i" else inverse(ride))
        else:  # extendleft puts each letter before the last: feed them last first
            images[x].extendleft(reversed(ride) if over == "t"
                                 else ((lab, -s) for lab, s in ride))
    return {lab: free_reduce(w) for lab, w in images.items()}


def apply_split(track: TrainTrack, move: SplitMove) -> tuple[TrainTrack, TrackMorphism]:
    """Perform one move; returns (new track, morphism new -> old)."""
    new_track = TrainTrack(track.name, track.edges, split_switches(track, move))
    morphism = TrackMorphism(new_track, track, _images(track.edges, (move,)),
                             name=str(move))
    return new_track, morphism


def unsplit(track: TrainTrack, move: SplitMove) -> tuple[TrainTrack, TrackMorphism]:
    """Undo `move`: fold the slid end back to the over end's switch.

    The result T satisfies apply_split(T, move) == (track, same morphism).
    Candidates put the slid end at either extremity of the side opposite
    the over end; the one that split_switches takes back to `track` wins.
    At most one can: the move slides the first end on one candidate and the
    last on the other, so it puts the slid end before the far end of the
    over edge on one and after it on the other.
    """
    _check_ends(track, move)
    k, side_o, _ = track.end_site[move.over]
    opp = 3 - side_o  # the side opposite the over end
    for at in (0, len(track.switches[k][opp])):
        # a side left empty, or a move illegal on the candidate, rules it out
        try:
            cand = TrainTrack(track.name, track.edges,
                              _moved(track, move.slid, k, opp, at)[0])
            back = split_switches(cand, move)
        except (IllegalMove, InvalidTrack):
            continue
        if back == track.switches:
            return cand, TrackMorphism(track, cand,
                                       _images(track.edges, (move,)),
                                       name=str(move))
    raise IllegalMove(
        f"cannot unsplit {move}: no track splits to the given one",
        move=move, reason="not-foldable",
    )


# ----------------------------------------------------------------------


class SplitRun(NamedTuple):
    start: TrainTrack
    final: TrainTrack
    moves: tuple[SplitMove, ...]
    morphism: TrackMorphism  # final -> start


def _finish(start: TrainTrack, final: TrainTrack,
            moves: tuple[SplitMove, ...]) -> SplitRun:
    """The run of the legal `moves` from `start` to `final`."""
    name = ".".join(["id"] + [str(mv) for mv in moves])
    return SplitRun(start, final, moves, TrackMorphism(
        final, start, _images(start.edges, moves), name=name))


def apply_sequence(track: TrainTrack, moves) -> SplitRun:
    """Apply moves in order; the composite morphism maps the final track back
    to the start.  IllegalMove carries the index and the track reached.

    Every move is checked for legality on one layout, updated in place by
    re-siting only the ends the move shifts; only the final track, or the
    one a move fails on, is built (_Layout).  The images depend on the
    moves alone and are built once all of them are legal (_images): linear
    in the letters of the result.  Free reduction is confluent, so these
    are the words that reducing after every move would give; a composite
    of splits is a train path, so nothing cancels."""
    layout = _Layout(track)

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
    return _finish(track, reached(), mv_tuple)
