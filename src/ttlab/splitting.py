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

import re
from dataclasses import dataclass

from .errors import IllegalMove, InvalidTrack, ParseError
from .morphism import TrackMorphism, compose, identity_morphism
from .track import End, Switch, TrainTrack, flip_end, format_end, parse_end
from .words import Word, inv_letter

_MOVE_RE = re.compile(r"^\s*([it]\([A-Za-z][A-Za-z0-9_]*\))\s*/\s*([it]\([A-Za-z][A-Za-z0-9_]*\))\s*$")


@dataclass(frozen=True)
class SplitMove:
    slid: End
    over: End

    def __str__(self) -> str:
        return f"{format_end(self.slid)}/{format_end(self.over)}"

    @property
    def notation(self) -> str:
        return str(self)


def parse_move(token: str, line: int | None = None, col: int | None = None) -> SplitMove:
    m = _MOVE_RE.match(token)
    if not m:
        raise ParseError(f"bad move token {token!r}, expected like t(a)/i(b)", line, col)
    return SplitMove(parse_end(m.group(1)), parse_end(m.group(2)))


def parse_sequence(text: str, line: int = 1) -> tuple[SplitMove, ...]:
    """Whitespace or semicolon separated move tokens; # starts a comment.
    `line` offsets reported positions when the text sits inside a file."""
    moves = []
    for ln, raw in enumerate(text.splitlines(), start=line):
        body = raw.split("#", 1)[0]
        for chunk in body.replace(";", " ").split():
            col = raw.index(chunk) + 1
            moves.append(parse_move(chunk, ln, col))
    return tuple(moves)


def format_sequence(moves, sep: str = "; ") -> str:
    return sep.join(str(m) for m in moves)


# ----------------------------------------------------------------------


def _move_case(track: TrainTrack, move: SplitMove) -> tuple[str, str]:
    """Classify a legal move; returns (switch name, "before" | "after").

    after:  sigma(slid) == over  (pairs A[-1]/B[-1] and B[0]/A[0])
    before: sigma(over) == slid  (pairs B[-1]/A[-1] and A[0]/B[0])
    Raises IllegalMove otherwise.
    """
    site = track.end_site
    if move.slid not in site:
        raise IllegalMove(f"{move}: no end {format_end(move.slid)}", move=move,
                          reason="missing-end")
    if move.over not in site:
        raise IllegalMove(f"{move}: no end {format_end(move.over)}", move=move,
                          reason="missing-end")
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
    sw = track.switch_by_name[vs]
    if sw.valence < 4:
        raise IllegalMove(f"{move}: switch {vs} has valence {sw.valence} < 4",
                          move=move, reason="valence")
    slid_side = sw.side_a if side_s == "A" else sw.side_b
    if len(slid_side) < 2:
        raise IllegalMove(f"{move}: slid side of {vs} would empty out",
                          move=move, reason="thin-side")
    a, b = sw.side_a, sw.side_b
    if (move.slid == a[-1] and move.over == b[-1]) or (
        move.slid == b[0] and move.over == a[0]
    ):
        return vs, "after"
    if (move.slid == b[-1] and move.over == a[-1]) or (
        move.slid == a[0] and move.over == b[0]
    ):
        return vs, "before"
    raise IllegalMove(
        f"{move}: ends are not ribbon-adjacent at an extremity of {vs}",
        move=move, reason="not-adjacent",
    )


def is_legal(track: TrainTrack, move: SplitMove) -> bool:
    try:
        _move_case(track, move)
        return True
    except IllegalMove:
        return False


def legal_splits(track: TrainTrack) -> tuple[SplitMove, ...]:
    """All legal moves, sorted by notation for deterministic traversal."""
    out = []
    for sw in track.switches:
        a, b = sw.side_a, sw.side_b
        for slid, over in ((a[-1], b[-1]), (b[-1], a[-1]), (a[0], b[0]), (b[0], a[0])):
            mv = SplitMove(slid, over)
            if is_legal(track, mv):
                out.append(mv)
    return tuple(sorted(set(out), key=str))


def _ride_letter(over: End):
    y, kind = over
    return (y, 1) if kind == "i" else (y, -1)


def _split_images(track: TrainTrack, move: SplitMove) -> dict[str, Word]:
    x = move.slid[0]
    r = _ride_letter(move.over)
    images: dict[str, Word] = {lab: ((lab, 1),) for lab in track.edges}
    if move.slid[1] == "t":
        images[x] = ((x, 1), r)
    else:
        images[x] = (inv_letter(r), (x, 1))
    return images


def split_switches(track: TrainTrack, move: SplitMove) -> tuple[Switch, ...]:
    """The switches of the track `move` splits `track` into, in the same
    order and under the same names.  This is the structure-only kernel of
    apply_split: no track is built or validated.  Switches the move leaves
    alone are the original objects."""
    v, case = _move_case(track, move)
    site = track.end_site
    far = flip_end(move.over)
    w, side_f, _ = site[far]
    sides: dict[str, tuple[list[End], list[End]]] = {
        sw.name: (list(sw.side_a), list(sw.side_b))
        for sw in (track.switch_by_name[v], track.switch_by_name[w])
    }
    # detach the slid end
    _, side_s, idx_s = site[move.slid]
    del sides[v][0 if side_s == "A" else 1][idx_s]
    # reattach next to the far end of the over edge
    flist = sides[w][0 if side_f == "A" else 1]
    p = flist.index(far)
    if case == "before":
        # before the far end in the ribbon order
        flist.insert(p if side_f == "A" else p + 1, move.slid)
    else:
        flist.insert(p + 1 if side_f == "A" else p, move.slid)
    return tuple(
        Switch(sw.name, tuple(sides[sw.name][0]), tuple(sides[sw.name][1]))
        if sw.name in sides else sw
        for sw in track.switches
    )


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
    site = track.end_site
    for e in (move.slid, move.over):
        if e not in site:
            raise IllegalMove(f"{move}: no end {format_end(e)}", move=move,
                              reason="missing-end")
    ws, side_s, idx_s = site[move.slid]
    v, side_o, _ = site[move.over]
    sides = {
        sw.name: (list(sw.side_a), list(sw.side_b))
        for sw in (track.switch_by_name[ws], track.switch_by_name[v])
    }
    del sides[ws][0 if side_s == "A" else 1][idx_s]
    opp = 1 if side_o == "A" else 0  # the side opposite the over end
    survivors = []
    for at in (0, len(sides[v][opp])):
        new = {name: [list(side) for side in pair] for name, pair in sides.items()}
        new[v][opp].insert(at, move.slid)
        # a side left empty, or a move illegal on the candidate, rules it out
        try:
            cand = TrainTrack(track.name, track.edges, tuple(
                Switch(sw.name, tuple(new[sw.name][0]), tuple(new[sw.name][1]))
                if sw.name in new else sw
                for sw in track.switches
            ))
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
    to the start.  IllegalMove carries the index and the track reached."""
    current = track
    composite = identity_morphism(track)
    mv_tuple = tuple(moves)
    for i, mv in enumerate(mv_tuple):
        try:
            current, step = apply_split(current, mv)
        except IllegalMove as exc:
            raise IllegalMove(
                f"move {i}: {exc}", index=i, move=mv, reason=exc.reason,
                track=current,
            ) from exc
        composite = compose(composite, step)
    return SplitRun(track, current, mv_tuple, composite)
