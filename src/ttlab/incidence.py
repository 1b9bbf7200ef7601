"""Incidence matrices of track morphisms and their Perron data.

M(e, e') counts occurrences of e' (either direction) in the image of e; the
row index runs over source edges, sorted by label.  Composition is exact on
matrices as long as substitution does not cancel, which smooth images along
smooth paths guarantee:

    M(f . g) = M(g) M(f)

All certification arithmetic is exact: the dilatation is bracketed by the
least and greatest Collatz-Wielandt quotients (Mv)_i / v_i of the integer
vectors v = M^k 1, so `lower` and `upper` are true rational bounds.  Floats
only pick which quotients can be extreme; integer cross-multiplication
settles the pick.

For M >= 0 with no zero row and v > 0, the least quotient never falls from v
to Mv and the greatest never rises, so "the bracket is narrower than tol" is
monotone in the step.  The first such step is found by galloping over
v -> M^(2^i) v for i = 0, 1, ... and bisecting back down, on exact powers
built by squaring; the transpose bracket reuses them transposed.
`iterations` is that step, as if every step had been walked.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import isfinite
from operator import mul, or_
from typing import NamedTuple

from .errors import BadIndex, NoConvergence, NotIrreducible, NotPrimitive
from .morphism import TrackMorphism

Matrix = tuple[tuple[int, ...], ...]


class IncidenceMatrix(NamedTuple):
    rows: tuple[str, ...]  # source edges
    cols: tuple[str, ...]  # target edges
    data: Matrix

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols


def incidence_matrix(m: TrackMorphism) -> IncidenceMatrix:
    rows = tuple(sorted(m.source.edges))
    cols = tuple(sorted(m.target.edges))
    col_at = {lab: j for j, lab in enumerate(cols)}
    data = []
    for lab in rows:
        counts = [0] * len(cols)
        for lt, _ in m.mapping[lab]:
            counts[col_at[lt]] += 1
        data.append(tuple(counts))
    return IncidenceMatrix(rows, cols, tuple(data))


def mat_mult(a: Matrix, b: Matrix) -> Matrix:
    """Exact integer product; small sizes, plain Python is plenty."""
    if any(len(r) != len(b) for r in a):
        raise ValueError("shape mismatch")
    bt = list(zip(*b))
    return tuple(
        tuple(sum(map(mul, row, col)) for col in bt) for row in a
    )


def fixed_edge_points(mat: IncidenceMatrix) -> tuple[tuple[str, int], ...]:
    """Edges whose image runs over themselves, with the diagonal entry of
    the incidence matrix `mat`; each such edge pins at least one fixed
    point of the map, so an empty result is what a fixed point free
    certificate needs.  A matrix that is not square has none."""
    if not mat.is_square:
        return ()
    diag = (row[i] for i, row in enumerate(mat.data))
    return tuple((lab, d) for lab, d in zip(mat.rows, diag) if d > 0)


# ----------------------------------------------------------------------


class IrreducibilityReport(NamedTuple):
    irreducible: bool
    witness: tuple[str, ...]  # out-closed proper edge set, empty when irreducible
    scc_count: int


def irreducibility(mat: IncidenceMatrix) -> IrreducibilityReport:
    """Strong connectivity of the digraph e -> e' when M(e, e') > 0.

    On failure the witness is the least sink strongly connected component:
    a proper edge set whose images stay inside it.
    """
    if not mat.is_square:
        raise NotIrreducible("irreducibility needs a self map matrix")
    n = len(mat.rows)
    reach = []  # reach[i]: the edges i reaches, itself included
    for i in range(n):
        seen, stack = {i}, [i]
        while stack:
            for j, x in enumerate(mat.data[stack.pop()]):
                if x > 0 and j not in seen:
                    seen.add(j)
                    stack.append(j)
        reach.append(seen)
    comps = {frozenset(j for j in reach[i] if i in reach[j]) for i in range(n)}
    if len(comps) == 1:
        return IrreducibilityReport(True, (), 1)
    # a sink component reaches nothing outside itself
    sinks = [tuple(sorted(mat.rows[j] for j in c)) for c in comps
             if c == reach[min(c)]]
    witness = min(sinks)  # deterministic pick
    return IrreducibilityReport(False, witness, len(comps))


class PrimitivityReport(NamedTuple):
    primitive: bool
    exponent: int | None  # least k with M^k positive, when primitive
    bound: int  # Wielandt bound that was checked up to


def primitivity(mat: IncidenceMatrix) -> PrimitivityReport:
    """Boolean power test on bit-set rows up to the Wielandt bound."""
    if not mat.is_square:
        raise NotPrimitive("primitivity needs a self map matrix")
    n = len(mat.rows)
    bound = (n - 1) * (n - 1) + 1 if n > 1 else 1
    base = [sum(1 << j for j, x in enumerate(row) if x) for row in mat.data]
    cur = base
    for k in range(1, bound + 1):
        if min(cur) == (1 << n) - 1:  # every row full
            return PrimitivityReport(True, k, bound)
        cur = [reduce(or_, (b for t, b in enumerate(base) if row >> t & 1), 0)
               for row in cur]
    return PrimitivityReport(False, None, bound)


# ----------------------------------------------------------------------


class PerronData(NamedTuple):
    value: float
    lower: Fraction
    upper: Fraction
    iterations: int
    weights: tuple[float, ...]  # unit-sum eigenvector of the transpose

    @property
    def width(self) -> Fraction:
        return self.upper - self.lower


# Digits converted per str() call in decimal_text: below the least cap on
# int-to-str conversion that Python accepts (640 digits).
_DIGITS = 600
_BLOCK = 10 ** _DIGITS


def decimal_text(n: int) -> str:
    """`n` >= 0 in decimal, however many digits it has.

    str() refuses an int past the interpreter's int-to-str digit cap (4,300
    by default), and long Perron brackets pass it.  Converting in blocks of
    600 digits stays under any cap and leaves the cap as it was."""
    blocks = []
    while n >= _BLOCK:
        n, low = divmod(n, _BLOCK)
        blocks.append(f"{low:0{_DIGITS}d}")
    blocks.append(str(n))
    return "".join(reversed(blocks))


def fraction_text(f: Fraction) -> str:
    """str(f) for f >= 0, past the interpreter's int-to-str digit cap."""
    if f.denominator == 1:
        return decimal_text(f.numerator)
    return f"{decimal_text(f.numerator)}/{decimal_text(f.denominator)}"


def check_tolerance(tol: float) -> None:
    """A bracket width must be finite and positive; zero or less never
    converges, and NaN or infinity has no exact rational value."""
    if not (isfinite(tol) and tol > 0):
        raise BadIndex(f"tolerance must be finite and positive, got {tol!r}")


Pair = tuple[int, int]  # (numerator, denominator), denominator > 0


def _cw_bounds(rows: list[list[tuple[int, int]]],
               v: list[int]) -> tuple[Pair, Pair]:
    """The least and greatest quotient w[i] / v[i], w = M v, as pairs.

    `int / int` rounds correctly, and correct rounding is monotone, so the
    float of the exact least quotient is the least float: the exact extreme
    is among the quotients whose float equals the float extreme.  Usually
    that is one quotient; ties are settled by cross-multiplication.
    """
    w = [sum(x * v[j] for j, x in row) for row in rows]
    q = [wi / vi for wi, vi in zip(w, v)]
    q_lo, q_hi = min(q), max(q)
    lo = hi = None
    for qi, wi, vi in zip(q, w, v):
        if qi == q_lo and (lo is None or wi * lo[1] < lo[0] * vi):
            lo = (wi, vi)
        if qi == q_hi and (hi is None or wi * hi[1] > hi[0] * vi):
            hi = (wi, vi)
    return lo, hi


# the step budget of dilatation(): a bracket still wider than the tolerance
# after this many steps raises NoConvergence
MAX_ITERATIONS = 20_000


def _ladder(a: Matrix):
    """times(i, v, t) = A^(2^i) v, A = `a` or its transpose if t.  A square
    used once is not built: A^(2^(i-1)) is applied twice."""
    squares = [a]

    def times(i: int, v: list[int], t: bool) -> list[int]:
        while len(squares) < i:
            squares.append(mat_mult(squares[-1], squares[-1]))
        for m in squares[i:i + 1] or squares[-1:] * 2:
            v = [sum(map(mul, row, v)) for row in (zip(*m) if t else m)]
        return v

    return times


def dilatation(mat: IncidenceMatrix, tol: float = 1e-10) -> PerronData:
    """Certified Perron root of an irreducible incidence matrix.

    Step k brackets the root by the Collatz-Wielandt quotients of
    M^(k-1) 1; `iterations` is the first step, at most MAX_ITERATIONS,
    whose bracket is narrower than `tol`.  A Perron root of 0 raises
    NotPrimitive.  The transpose's bracket is intersected with it.  Both
    contain the Perron root, being Collatz-Wielandt brackets of positive
    vectors, so the intersection is never empty.
    """
    check_tolerance(tol)
    rep = irreducibility(mat)
    if not rep.irreducible:
        raise NotIrreducible(
            "dilatation bracket needs an irreducible matrix",
            witness=list(rep.witness),
        )
    a = mat.data
    if not all(any(row) for row in a):
        # irreducible with a zero row: the 1x1 zero matrix
        raise NotPrimitive("Perron root is 0")
    tn, td = Fraction(tol).as_integer_ratio()  # binary floats are exact
    times = _ladder(a)  # the powers M^(2^i), shared by both directions

    def bracket(t: bool) -> tuple[Fraction, Fraction, list[int], int]:
        """The bracket of M, or of its transpose when `t`."""
        rows = [[(j, x) for j, x in enumerate(row) if x]
                for row in (zip(*a) if t else a)]

        def narrow(v: list[int]) -> bool:
            # hi - lo < tol, over the common denominator hd * ld * td; lo > 0
            # because M has no zero row and v > 0
            (ln, ld), (hn, hd) = _cw_bounds(rows, v)
            return (hn * ld - ln * hd) * td < tn * hd * ld

        def advance(v: list[int], k: int, i: int) -> list[int] | None:
            """v_k advanced 2^i steps, or None if the step on the result
            stops; every step past `MAX_ITERATIONS` counts as stopping."""
            if k + (1 << i) >= MAX_ITERATIONS:
                return None
            w = times(i, v, t)
            return None if narrow(w) else w

        # v = v_k = M^k 1, bracketed by step k + 1; k ends as the last index
        # whose step does not stop (-1: none), so step k + 2 stops
        v, k = [1] * len(rows), -1
        if not narrow(v):
            k, top = 0, 0
            while (w := advance(v, k, top)) is not None:  # gallop
                v, k, top = w, k + (1 << top), top + 1
            for i in reversed(range(top)):  # bisect below k + 2^top
                if (w := advance(v, k, i)) is not None:
                    v, k = w, k + (1 << i)
            v = times(0, v, t)
        if k + 1 >= MAX_ITERATIONS:
            raise NoConvergence(
                f"dilatation bracket did not reach tol={tol} "
                f"in {MAX_ITERATIONS} steps"
            )
        lo, hi = _cw_bounds(rows, v)
        return Fraction(*lo), Fraction(*hi), v, k + 2

    lower, upper, _, iters = bracket(False)
    lo_t, hi_t, vt, _ = bracket(True)
    # the transpose shares the Perron root; take the common refinement
    lower = max(lower, lo_t)
    upper = min(upper, hi_t)
    total = sum(vt)
    weights = tuple(x / total for x in vt)
    value = float((lower + upper) / 2)
    return PerronData(value, lower, upper, iters, weights)
