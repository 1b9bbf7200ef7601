"""Action of a track morphism on the boundary of the fibered neighborhood.

The image of a boundary word is substituted letter by letter, cyclically
reduced while remembering which positions survive, and matched against a
rotation of a target curve (maps are orientation preserving, so reversals
are rejected).  Cusps must land on cusps; the cancelled run straddling a
cusp junction is its fold depth.

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
from dataclasses import dataclass

from .errors import AlignmentError, BoundaryNotPreserved, NotASelfMap
from .morphism import TrackMorphism
from .track import BoundaryCurve
from .words import (
    Word,
    cyclic_reduce_marked,
    find_rotations,
    format_word,
    inverse,
    substitute,
)


@dataclass(frozen=True)
class CurveImage:
    source_index: int
    target_index: int
    rotation: int  # in letters: reduced image == rotate(target word, rotation)
    cusp_images: tuple[int, ...]  # target cusp index per source cusp
    cusp_shift: int | None  # constant index shift when defined
    fold_depths: tuple[int, ...]  # cancelled run at each source cusp


@dataclass(frozen=True)
class BoundaryAction:
    curve_map: tuple[int, ...]
    curves: tuple[CurveImage, ...]
    warnings: tuple[str, ...]

    def curve(self, i: int) -> CurveImage:
        return self.curves[i]


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


def _fold_depth(survivor_flags: list[bool], pos: int) -> tuple[int, int]:
    """Lengths of the dead runs just before and just after `pos`, cyclically."""
    n = len(survivor_flags)
    if n == 0:
        return 0, 0
    before = 0
    k = (pos - 1) % n
    while not survivor_flags[k] and before < n:
        before += 1
        k = (k - 1) % n
    after = 0
    k = pos % n
    while not survivor_flags[k] and after < n:
        after += 1
        k = (k + 1) % n
    return before, after


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
        flags = [False] * len(raw)
        for s in survivors:
            flags[s] = True

        match = None
        for j, tgt in enumerate(tgt_curves):
            for r in find_rotations(reduced, tgt.word):
                # cusps must land on cusps for the rotation to count
                ok = True
                cusp_imgs = []
                for c in curve.cusps:
                    s_c = bisect_left(survivors, junctions[c])
                    tj = (s_c + r) % len(tgt.word)
                    if tj not in tgt.cusps:
                        ok = False
                        break
                    cusp_imgs.append(tgt.cusps.index(tj))
                if ok:
                    if match is not None:
                        warnings.append(
                            f"curve {i}: rotational symmetry, rotation is "
                            f"only defined up to it"
                        )
                    else:
                        match = (j, r, tuple(cusp_imgs))
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

        j, r, cusp_imgs = match
        depths = []
        for c in curve.cusps:
            before, after = _fold_depth(flags, junctions[c])
            if before != after:
                warnings.append(
                    f"curve {i} cusp {c}: unbalanced cancellation "
                    f"({before} before, {after} after)"
                )
            depths.append(before)
        shift: int | None = None
        tgt = tgt_curves[j]
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

    return BoundaryAction(
        tuple(ci.target_index for ci in images), tuple(images), tuple(warnings)
    )


# ----------------------------------------------------------------------
# side dynamics of a self map


@dataclass(frozen=True)
class PeriodicPoint:
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


@dataclass(frozen=True)
class SideOrbit:
    sides: tuple[tuple[int, int], ...]  # (curve, side) along the orbit
    period: int
    bracket_offsets: tuple[int, ...]  # T per side, aligned with `sides`
    counts: tuple[int, ...]  # periodic points per side, aligned with `sides`
    # one point per side when every count in the orbit is 1, else empty
    points: tuple[PeriodicPoint, ...]


@dataclass(frozen=True)
class SideDynamics:
    orbits: tuple[SideOrbit, ...]
    total_points: int  # summed over every side of every orbit
    degenerate: bool
    boundary_points: int  # points on a letter's slot boundary, not counted
    warnings: tuple[str, ...]

    @property
    def single_point_per_side(self) -> bool:
        return all(c == 1 for o in self.orbits for c in o.counts)


def _side_words(curves: tuple[BoundaryCurve, ...]) -> dict[tuple[int, int], Word]:
    out = {}
    for i, c in enumerate(curves):
        for k, w in enumerate(c.sides):
            out[(i, k)] = w
    return out


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
    words = _side_words(curves)
    warnings = list(action.warnings)

    # sigma on sides, with the overhang decomposition checked exactly
    sigma: dict[tuple[int, int], tuple[int, int]] = {}
    left_overhang: dict[tuple[int, int], int] = {}
    for i, curve in enumerate(curves):
        ci = action.curves[i]
        k_cusps = len(curve.cusps)
        if k_cusps == 0:
            raise AlignmentError(
                f"curve {i} has no cusps; side dynamics is undefined"
            )
        tgt_curve = curves[ci.target_index]
        for k in range(k_cusps):
            img_from = ci.cusp_images[k]
            img_to = ci.cusp_images[(k + 1) % k_cusps]
            if (img_from + 1) % len(tgt_curve.cusps) != img_to:
                raise AlignmentError(
                    f"side {k} of curve {i} maps over more than one side"
                )
            sigma[(i, k)] = (ci.target_index, img_from)
            left_overhang[(i, k)] = ci.fold_depths[k]

    # verify the decomposition phi(word(s)) == A word(sigma s) B letter by letter
    images = {s: substitute(w, m.mapping) for s, w in words.items()}
    for s, img in sorted(images.items()):
        mid = words[sigma[s]]
        a = left_overhang[s]
        b = len(img) - a - len(mid)
        if b < 0 or img[a:a + len(mid)] != mid:
            raise AlignmentError(
                f"side {s}: image does not decompose over side {sigma[s]}"
            )

    # orbits of sigma
    seen: set[tuple[int, int]] = set()
    orbit_list: list[tuple[tuple[int, int], ...]] = []
    for s in sorted(words):
        if s in seen:
            continue
        orb = [s]
        seen.add(s)
        cur = sigma[s]
        while cur != s:
            orb.append(cur)
            seen.add(cur)
            cur = sigma[cur]
        orbit_list.append(tuple(orb))

    max_period = max(len(o) for o in orbit_list)
    lengths = _letter_lengths(m, max_period)

    def word_len(word: Word, depth: int) -> int:
        return sum(lengths[depth][lab] for lab, _ in word)

    orbits: list[SideOrbit] = []
    degenerate = False
    boundary_points = 0
    total = 0
    for orb in orbit_list:
        p = len(orb)
        # A_s is a prefix of phi(word(s)); its letters are needed for the
        # exact length under iteration
        a_words = {s: images[s][:left_overhang[s]] for s in orb}
        # T(orb[j]) = sum over k of |phi^(p-1-k)(A_{sigma^k orb[j]})|
        t_offs = []
        for j in range(p):
            t_offs.append(
                sum(
                    word_len(a_words[orb[(j + k) % p]], p - 1 - k)
                    for k in range(p)
                )
            )
        cover: list[list[int]] = []
        counts = []
        for j, s in enumerate(orb):
            found: list[int] = []
            t_off = t_offs[j]
            lam = 0
            for q, lt in enumerate(words[s]):
                m_q = lengths[p][lt[0]]
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
            counts.append(len(found))
            total += len(found)
        points = []
        if all(c == 1 for c in counts):
            for j, s in enumerate(orb):
                itin = []
                for k in range(p):
                    sk = orb[(j + k) % p]
                    qk = cover[(j + k) % p][0]
                    itin.append((sk[0], sk[1], qk, words[sk][qk][0]))
                rendered = _render_itinerary(
                    images, orb, j, words, left_overhang, cover
                )
                points.append(
                    PeriodicPoint(s[0], s[1], cover[j][0],
                                  words[s][cover[j][0]][0],
                                  tuple(itin), rendered)
                )
        orbits.append(
            SideOrbit(orb, p, tuple(t_offs), tuple(counts), tuple(points))
        )

    return SideDynamics(tuple(orbits), total, degenerate, boundary_points,
                        tuple(warnings))


def _mark_word(word: Word, marked: int) -> str:
    return ".".join(
        format_word([lt]) + ("*" if j == marked else "")
        for j, lt in enumerate(word)
    )


def _render_itinerary(images, orb, start: int, words, left_overhang, cover) -> str:
    """Marked edge display: the side with its covering letter, then each
    image decomposition A.[mid].B with the next covering letter marked."""
    p = len(orb)
    s0 = orb[start]
    parts = [f"[{_mark_word(words[s0], cover[start][0])}]"]
    for k in range(p):
        s = orb[(start + k) % p]
        nxt_idx = (start + k + 1) % p
        nxt = orb[nxt_idx]
        img = images[s]
        a = left_overhang[s]
        mid = words[nxt]
        a_word = img[:a]
        b_word = img[a + len(mid):]
        chunk = f"[{_mark_word(mid, cover[nxt_idx][0])}]"
        if a_word:
            chunk = format_word(a_word, sep=".") + "." + chunk
        if b_word:
            chunk = chunk + "." + format_word(b_word, sep=".")
        parts.append(chunk)
    return " -> ".join(parts)
