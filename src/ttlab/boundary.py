"""Action of a track morphism on the boundary of the fibered neighborhood.

The image of a boundary word is substituted letter by letter, cyclically
reduced while remembering which positions survive, and matched against a
rotation of a target curve (maps are orientation preserving, so reversals
are rejected).  Every end of a track departs exactly once along its
boundary curves, so each signed letter occurs once in all their words, and
a non-empty reduced image matches at most one rotation of one curve.  Cusps
must land on cusps; the cancelled run straddling a cusp junction is its
fold depth.

For a self map the sides between cusps get permuted up to overhang:

    phi(word(s)) = A_s  word(sigma(s))  B_s      (exactly, no cancellation)

with |A_s| the fold depth at the left cusp of s.  Iterating over one
sigma-orbit of period P gives phi^P(word(s)) = U word(s) V with the bracket
offset T = |U| computable from letter lengths alone.  A letter q of word(s)
spanning [lam, mu) in phi^P coordinates carries exactly one periodic point
when it strictly covers its own slot, lam < T+q and T+q+1 < mu.  Touching
the slot boundary or covering isometrically (a one letter image landing
exactly on its own slot) is reported as a warning instead of a count.  The
itinerary of a side's point is the sequence of covering letters met along
its orbit, rendered in the marked edge style.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import NamedTuple

from .errors import AlignmentError, BoundaryNotPreserved, NotASelfMap
from .morphism import TrackMorphism
from .words import (
    Word,
    cyclic_reduce_marked,
    find_rotations,
    format_word,
    inverse,
    substitute,
)


class CurveImage(NamedTuple):
    source_index: int
    target_index: int
    rotation: int  # in letters: reduced image == rotate(target word, rotation)
    cusp_images: tuple[int, ...]  # target cusp index per source cusp
    cusp_shift: int | None  # constant index shift when defined
    fold_depths: tuple[int, ...]  # cancelled run at each source cusp

    @property
    def shift_text(self) -> str:
        if self.cusp_shift is None:
            return "no cusp shift"
        return f"cusp shift {self.cusp_shift}"


class BoundaryAction(NamedTuple):
    curves: tuple[CurveImage, ...]
    warnings: tuple[str, ...]


def _image_blocks(m: TrackMorphism, word: Word) -> tuple[Word, tuple[int, ...]]:
    """Unreduced image and the junction offsets: junction p of the source
    word sits at offset[p] of the image."""
    blocks = []
    offsets = [0]
    for lab, s in word:
        img = m.mapping[lab]
        blocks.append(img if s > 0 else inverse(img))
        offsets.append(offsets[-1] + len(blocks[-1]))
    flat = tuple(lt for b in blocks for lt in b)
    return flat, tuple(offsets[:-1])


def boundary_action(m: TrackMorphism) -> BoundaryAction:
    src_curves = m.source.boundary_curves
    tgt_curves = m.target.boundary_curves
    images: list[CurveImage] = []
    warnings: list[str] = []

    for i, curve in enumerate(src_curves):
        raw, junctions = _image_blocks(m, curve.word)
        reduced, survivors = cyclic_reduce_marked(raw)
        if not reduced:
            raise AlignmentError(f"image of boundary curve {i} cancels completely")
        # index into `reduced` of the first survivor at or after each cusp
        landing = [bisect_left(survivors, junctions[c]) for c in curve.cusps]

        # the one rotation that can match, see the module docstring
        match = next(((j, r) for j, tgt in enumerate(tgt_curves)
                      for r in find_rotations(reduced, tgt.word)), None)
        if match is not None:
            j, r = match
            tgt = tgt_curves[j]
            hits = [(k + r) % len(reduced) for k in landing]
            if not all(h in tgt.cusps for h in hits):
                match = None  # cusps must land on cusps for the rotation to count
        if match is None:
            # diagnose orientation reversals separately, they are a real
            # modelling error rather than a near miss
            for j, tgt in enumerate(tgt_curves):
                if find_rotations(reduced, inverse(tgt.word)):
                    raise AlignmentError(
                        f"image of curve {i} matches curve {j} reversed; "
                        f"the map is not orientation preserving on the boundary"
                    )
            if curve.cusps:
                raise BoundaryNotPreserved(
                    f"image of curve {i} matches no target curve with cusps "
                    f"landing on cusps"
                )
            raise AlignmentError(f"image of curve {i} matches no target curve")

        cusp_imgs = tuple(tgt.cusps.index(h) for h in hits)
        # the dead runs between a cusp's junction and the survivors on
        # either side of it, cyclically
        n = len(raw)
        depths = []
        for c, k in zip(curve.cusps, landing):
            before = (junctions[c] - 1 - survivors[k - 1]) % n
            after = (survivors[k % len(survivors)] - junctions[c]) % n
            if before != after:
                warnings.append(
                    f"curve {i} cusp {c}: unbalanced cancellation "
                    f"({before} before, {after} after)"
                )
            depths.append(before)
        shift: int | None = None
        if curve.cusps and len(curve.cusps) == len(tgt.cusps):
            shifts = {
                (ti - si) % len(curve.cusps)
                for si, ti in enumerate(cusp_imgs)
            }
            if len(shifts) == 1:
                shift = shifts.pop()
        images.append(
            CurveImage(i, j, r, cusp_imgs, shift, tuple(depths))
        )

    return BoundaryAction(tuple(images), tuple(warnings))


# ----------------------------------------------------------------------
# side dynamics of a self map


class PeriodicPoint(NamedTuple):
    curve: int
    side: int
    letter: int  # index within the side word of the letter carrying the point
    label: str
    # one entry per orbit step starting at this side:
    # (curve, side, letter index, letter label)
    itinerary: tuple[tuple[int, int, int, str], ...]
    rendered: str

    @property
    def marked_labels(self) -> tuple[str, ...]:
        return tuple(lab for _, _, _, lab in self.itinerary)


class SideOrbit(NamedTuple):
    sides: tuple[tuple[int, int], ...]  # (curve, side) along the orbit
    period: int
    bracket_offsets: tuple[int, ...]  # T per side, aligned with `sides`
    counts: tuple[int, ...]  # periodic points per side, aligned with `sides`
    # one point per side when every count in the orbit is 1, else empty
    points: tuple[PeriodicPoint, ...]


class SideDynamics(NamedTuple):
    orbits: tuple[SideOrbit, ...]
    total_points: int  # summed over every side of every orbit
    degenerate: bool
    boundary_points: int  # points on a letter's slot boundary, not counted
    warnings: tuple[str, ...]

    @property
    def single_point_per_side(self) -> bool:
        return all(c == 1 for o in self.orbits for c in o.counts)


def _letter_lengths(m: TrackMorphism, depth: int) -> list[dict[str, int]]:
    """lengths[d][label] = |phi^d(label)|, assuming no cancellation (smooth)."""
    labels = m.source.edges
    lengths = [{lab: 1 for lab in labels}]
    for _ in range(depth):
        prev = lengths[-1]
        lengths.append(
            {lab: sum(prev[lt] for lt, _ in m.mapping[lab]) for lab in labels}
        )
    return lengths


def side_dynamics(m: TrackMorphism, action: BoundaryAction | None = None) -> SideDynamics:
    if not m.is_self_map:
        raise NotASelfMap("side dynamics needs a self map")
    if action is None:
        action = boundary_action(m)
    curves = m.source.boundary_curves
    warnings = list(action.warnings)

    # sigma on sides, in curve/side order
    words: dict[tuple[int, int], Word] = {}
    sigma: dict[tuple[int, int], tuple[int, int]] = {}
    for i, curve in enumerate(curves):
        ci = action.curves[i]
        k_cusps = len(curve.cusps)
        if k_cusps == 0:
            raise AlignmentError(
                f"curve {i} has no cusps; side dynamics is undefined"
            )
        n_target = len(curves[ci.target_index].cusps)
        for k, word in enumerate(curve.sides):
            img_from = ci.cusp_images[k]
            if (img_from + 1) % n_target != ci.cusp_images[(k + 1) % k_cusps]:
                raise AlignmentError(
                    f"side {k} of curve {i} maps over more than one side"
                )
            words[(i, k)] = word
            sigma[(i, k)] = (ci.target_index, img_from)

    # phi(word(s)) == A word(sigma s) B letter by letter, |A| the fold depth
    # at the left cusp of s
    overhangs: dict[tuple[int, int], tuple[Word, Word]] = {}
    for s, word in words.items():
        img = substitute(word, m.mapping)
        a = action.curves[s[0]].fold_depths[s[1]]
        mid = words[sigma[s]]
        if img[a:a + len(mid)] != mid:
            raise AlignmentError(
                f"side {s}: image does not decompose over side {sigma[s]}"
            )
        overhangs[s] = (img[:a], img[a + len(mid):])

    orbit_list: list[tuple[tuple[int, int], ...]] = []
    seen: set[tuple[int, int]] = set()
    for s in words:
        if s not in seen:
            orb = [s]
            while sigma[orb[-1]] != s:
                orb.append(sigma[orb[-1]])
            seen.update(orb)
            orbit_list.append(tuple(orb))
    lengths = _letter_lengths(m, max(len(o) for o in orbit_list))

    orbits: list[SideOrbit] = []
    degenerate = False
    boundary_points = 0
    for orb in orbit_list:
        p = len(orb)
        # T(orb[j]) = sum over k of |phi^(p-1-k)(A of orb[j+k])|
        t_offs = tuple(
            sum(lengths[p - 1 - k][lab]
                for k in range(p) for lab, _ in overhangs[orb[(j + k) % p]][0])
            for j in range(p)
        )
        cover: list[list[int]] = []
        for s, t_off in zip(orb, t_offs):
            found: list[int] = []
            lam = 0
            for q, (lab, _) in enumerate(words[s]):
                m_q = lengths[p][lab]
                mu = lam + m_q
                if m_q == 1 and lam == t_off + q:
                    warnings.append(
                        f"side {s}: letter {q} maps isometrically onto "
                        f"its own slot (degenerate)"
                    )
                    degenerate = True
                elif lam < t_off + q and t_off + q + 1 < mu:
                    found.append(q)
                elif lam <= t_off + q and mu >= t_off + q + 1:
                    # covers, but only up to the slot boundary
                    boundary_points += 1
                    warnings.append(
                        f"side {s}: periodic point on the boundary of "
                        f"letter {q}, not counted"
                    )
                lam = mu
            cover.append(found)
        points: tuple[PeriodicPoint, ...] = ()
        if all(len(found) == 1 for found in cover):
            qs = [found[0] for found in cover]
            # (curve, side, letter index, letter label) of each orbit step
            stops = [(*s, q, words[s][q][0]) for s, q in zip(orb, qs)]
            marked = [_mark_word(words[s], q) for s, q in zip(orb, qs)]
            # marked edge display of each step: phi(word(s)) as
            # A.[word(sigma s)].B with the next covering letter marked
            steps = [".".join(filter(None, (format_word(overhangs[s][0], sep="."),
                                            marked[(k + 1) % p],
                                            format_word(overhangs[s][1], sep="."))))
                     for k, s in enumerate(orb)]
            points = tuple(
                PeriodicPoint(*stops[j], tuple(stops[j:] + stops[:j]),
                              " -> ".join([marked[j], *steps[j:], *steps[:j]]))
                for j in range(p)
            )
        orbits.append(SideOrbit(orb, p, t_offs,
                                tuple(len(found) for found in cover), points))

    return SideDynamics(tuple(orbits), sum(sum(o.counts) for o in orbits),
                        degenerate, boundary_points, tuple(warnings))


def _mark_word(word: Word, marked: int) -> str:
    return "[" + ".".join(
        format_word([lt]) + ("*" if j == marked else "")
        for j, lt in enumerate(word)
    ) + "]"
