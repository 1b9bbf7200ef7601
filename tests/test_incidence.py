"""Incidence matrices: functoriality, irreducibility, Perron data."""

import random
import sys
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ttlab import incidence
from ttlab.atlas import (
    alpha,
    base_track,
    involution,
    phi,
    phi1,
    phi2,
    phi3,
    psi,
    t_gi,
    t_ig,
)
from ttlab.errors import NoConvergence, NotPrimitive
from ttlab.incidence import (
    IncidenceMatrix,
    PerronData,
    decimal_text,
    dilatation,
    fixed_edge_points,
    incidence_matrix,
    irreducibility,
    mat_mult,
    primitivity,
)
from ttlab.morphism import compose, identity_morphism, power
from ttlab.splitting import apply_split, legal_splits


PHI2_DILATATION = 2.2966302628865
PHI_FAMILY_DILATATIONS = {
    3: 2.7347706031529,
    5: 3.4342656715427,
    7: 4.0065325678517,
    9: 4.5031777114769,
    11: 4.9480650028777,
}


def _nonzero(mat, label):
    row = mat.data[mat.rows.index(label)]
    return {c: v for c, v in zip(mat.cols, row) if v}


def test_phi1_matrix_rows():
    mat = incidence_matrix(phi1())
    assert mat.rows == tuple("abcdefghijkl")
    assert _nonzero(mat, "c") == {"k": 2, "g": 1}
    assert _nonzero(mat, "a") == {"k": 1}
    assert _nonzero(mat, "k") == {"d": 1, "h": 1, "l": 1}


def test_identity_matrix_is_diagonal():
    mat = incidence_matrix(identity_morphism(base_track()))
    assert fixed_edge_points(mat) == tuple((lab, 1) for lab in mat.rows)
    rep = irreducibility(mat)
    assert not rep.irreducible


def test_permutation_matrix_of_involution():
    mat = incidence_matrix(involution())
    assert sorted(sum(row) for row in mat.data) == [1] * 12
    assert not irreducibility(mat).irreducible


def test_functoriality_on_atlas_chain():
    # M(outer . inner) == M(inner) * M(outer)
    comp = compose(compose(alpha(), phi1()), t_ig())
    lhs = incidence_matrix(comp)
    rhs = mat_mult(
        mat_mult(incidence_matrix(t_ig()).data,
                 incidence_matrix(phi1()).data),
        incidence_matrix(alpha()).data,
    )
    assert lhs.data == tuple(tuple(r) for r in rhs)


def test_functoriality_on_powers():
    m3 = incidence_matrix(power(phi1(), 3))
    single = incidence_matrix(phi1()).data
    assert m3.data == tuple(tuple(r) for r in
                            mat_mult(mat_mult(single, single), single))


def test_fixed_edge_points_diagonal_law():
    for build in (phi1, phi2, phi3, alpha, involution, t_ig, t_gi,
                  lambda: phi(7), lambda: psi(2)):
        mat = incidence_matrix(build())
        pts = fixed_edge_points(mat)
        from_diag = {lab for lab, row in zip(mat.rows, mat.data)
                     if row[mat.cols.index(lab)] > 0}
        assert {lab for lab, _ in pts} == from_diag


def test_phi_maps_have_empty_diagonal():
    for build in (phi1, phi2, phi3, lambda: phi(9), lambda: psi(3)):
        assert fixed_edge_points(incidence_matrix(build())) == ()


def test_twist_maps_have_diagonal():
    # identity words and the three twisted words all cross themselves
    pts = fixed_edge_points(incidence_matrix(t_ig()))
    assert {lab for lab, _ in pts} == set("abcdefghijkl")


def test_phi1_reducible_with_witness():
    rep = irreducibility(incidence_matrix(phi1()))
    assert not rep.irreducible
    assert set(rep.witness) == set("acdfghjkl")


def test_phi2_irreducible_primitive():
    mat = incidence_matrix(phi2())
    assert irreducibility(mat).irreducible
    prim = primitivity(mat)
    assert prim.primitive
    assert prim.exponent == 8


def test_phi2_dilatation_certified():
    d = dilatation(incidence_matrix(phi2()), tol=1e-10)
    assert d.upper - d.lower < Fraction(1, 10**10)
    assert abs(d.value - PHI2_DILATATION) < 1e-9
    assert isinstance(d.lower, Fraction) and isinstance(d.upper, Fraction)
    assert d.lower < d.upper


def test_family_dilatations():
    prev_upper = None
    for n, expected in sorted(PHI_FAMILY_DILATATIONS.items()):
        d = dilatation(incidence_matrix(phi(n)), tol=1e-10)
        assert abs(d.value - expected) < 1e-9
        assert d.upper - d.lower < Fraction(1, 10**10)
        if prev_upper is not None:
            assert d.lower > prev_upper  # strictly increasing, intervals apart
        prev_upper = d.upper


def test_dilatation_bracket_contains_rayleigh_quotients():
    # lower and upper are genuine Collatz-Wielandt brackets: squeezing the
    # tolerance tightens them around the same point
    mat = incidence_matrix(phi2())
    loose = dilatation(mat, tol=1e-6)
    tight = dilatation(mat, tol=1e-12)
    assert loose.lower <= tight.lower <= tight.upper <= loose.upper


def test_dilatation_weights_positive_and_normalised():
    d = dilatation(incidence_matrix(phi2()))
    assert len(d.weights) == 12
    assert all(w > 0 for w in d.weights)
    assert abs(sum(d.weights) - 1.0) < 1e-9


def test_dilatation_max_iterations(monkeypatch):
    monkeypatch.setattr(incidence, "MAX_ITERATIONS", 3)
    with pytest.raises(NoConvergence, match="in 3 steps"):
        dilatation(incidence_matrix(phi2()), tol=1e-10)


def test_zero_perron_root_is_not_primitive():
    # irreducible (one node reaches itself) but nilpotent
    with pytest.raises(NotPrimitive, match="Perron root is 0"):
        dilatation(IncidenceMatrix(("a",), ("a",), ((0,),)))


def test_cyclic_permutation_is_bracketed_exactly_at_step_one():
    # imprimitive, of period 3, yet M 1 = 1 already pins the root 1
    labels = ("a", "b", "c")
    mat = IncidenceMatrix(labels, labels, ((0, 1, 0), (0, 0, 1), (1, 0, 0)))
    assert not primitivity(mat).primitive
    d = dilatation(mat)
    assert (d.lower, d.upper, d.iterations) == (1, 1, 1)


def test_random_split_functoriality():
    # composite of elementary splits: the matrix of the composition is the
    # product of the step matrices, outermost last
    rng = random.Random(5150)
    for _ in range(40):
        t = base_track()
        steps = []
        for _ in range(rng.randrange(1, 5)):
            mv = legal_splits(t)[rng.randrange(len(legal_splits(t)))]
            t, m = apply_split(t, mv)
            steps.append(m)
        comp = steps[0]
        for m in steps[1:]:
            comp = compose(comp, m)
        prod = incidence_matrix(steps[-1]).data
        for m in reversed(steps[:-1]):
            prod = mat_mult(prod, incidence_matrix(m).data)
        assert incidence_matrix(comp).data == tuple(tuple(r) for r in prod)


@st.composite
def _square_matrices(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    cells = draw(st.lists(st.integers(min_value=0, max_value=2),
                          min_size=n * n, max_size=n * n))
    return tuple(tuple(cells[i * n:(i + 1) * n]) for i in range(n))


@settings(max_examples=300, deadline=None)
@given(data=_square_matrices())
def test_irreducibility_matches_warshall_closure(data):
    n = len(data)
    labels = tuple(f"e{i:02d}" for i in range(n))
    rep = irreducibility(IncidenceMatrix(labels, labels, data))
    # reflexive transitive closure, Warshall
    reach = [[i == j or data[i][j] > 0 for j in range(n)] for i in range(n)]
    for k in range(n):
        for i in range(n):
            if reach[i][k]:
                for j in range(n):
                    reach[i][j] = reach[i][j] or reach[k][j]
    classes = {frozenset(j for j in range(n) if reach[i][j] and reach[j][i])
               for i in range(n)}
    assert rep.irreducible == all(all(row) for row in reach)
    if rep.irreducible:
        assert rep.witness == ()
        return
    sinks = [c for c in classes
             if all(not reach[i][j] or j in c for i in c for j in range(n))]
    assert rep.witness == min(tuple(sorted(labels[i] for i in c)) for c in sinks)
    w = {labels.index(lab) for lab in rep.witness}
    assert 0 < len(w) < n
    assert all(data[i][j] == 0 for i in w for j in range(n) if j not in w)


def _fraction_dilatation(mat, tol, max_iterations):
    """The Perron bracket with every Collatz-Wielandt quotient kept as an
    exact (numerator, denominator) pair and compared by cross-multiplying:
    the reference that `dilatation`, which picks the extremes by float and
    settles them in integers, must match field by field."""
    a = mat.data
    n = len(a)
    tol_n, tol_d = tol.as_integer_ratio()

    def bracket(matrix):
        v = [1] * n
        lo_best, hi_best = (0, 1), None
        for it in range(1, max_iterations + 1):
            w = [sum(x * y for x, y in zip(row, v)) for row in matrix]
            lo = hi = (w[0], v[0])  # every v[i] > 0: the matrix is irreducible
            for wi, vi in zip(w, v):
                if wi * lo[1] < lo[0] * vi:
                    lo = (wi, vi)
                if wi * hi[1] > hi[0] * vi:
                    hi = (wi, vi)
            if lo[0] * lo_best[1] > lo_best[0] * lo[1]:
                lo_best = lo
            if hi_best is None or hi[0] * hi_best[1] < hi_best[0] * hi[1]:
                hi_best = hi
            (ln, ld), (hn, hd) = lo_best, hi_best
            if (hn * ld - ln * hd) * tol_d < tol_n * hd * ld and ln > 0:
                return Fraction(ln, ld), Fraction(hn, hd), v, it
            g = 0
            for x in w:
                g = gcd(g, x)
            v = [x // g for x in w] if g > 1 else w
        raise NoConvergence(
            f"dilatation bracket did not reach tol={tol} in {max_iterations} steps"
        )

    lower, upper, _, iters = bracket(a)
    lo_t, hi_t, vt, _ = bracket(tuple(zip(*a)))
    lower = max(lower, lo_t)
    upper = min(upper, hi_t)
    if lower > upper:
        raise NoConvergence("transpose bracket disagrees, tolerance too loose")
    total = sum(vt)
    return PerronData(float((lower + upper) / 2), lower, upper, iters,
                      tuple(x / total for x in vt))


@st.composite
def _irreducible_matrices(draw):
    """Random matrices made irreducible by a cycle through every node.  The
    tie-heavy kinds keep several quotients exactly equal at every step:
    equal row sums make all of them equal at once, and a matrix invariant
    under swapping node pairs keeps each pair's quotients equal."""
    n = draw(st.integers(min_value=1, max_value=12))
    top = draw(st.sampled_from([2, 10**4, 10**12]))
    kind = draw(st.sampled_from(["plain", "equal-row-sums", "swap-symmetric"]))
    cells = draw(st.lists(st.integers(min_value=0, max_value=top),
                          min_size=n * n, max_size=n * n))
    a = [cells[i * n:(i + 1) * n] for i in range(n)]
    order = draw(st.permutations(range(n)))
    for k in range(n):
        a[order[k]][order[(k + 1) % n]] += 1
    if kind == "equal-row-sums":
        s = max(sum(row) for row in a)
        for i in range(n):
            a[i][i] += s - sum(a[i])
    elif kind == "swap-symmetric":
        swap = list(range(n))
        for k in range(0, n - 1, 2):
            swap[order[k]], swap[order[k + 1]] = order[k + 1], order[k]
        a = [[a[i][j] + a[swap[i]][swap[j]] for j in range(n)]
             for i in range(n)]
    return tuple(tuple(row) for row in a)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except NoConvergence as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(data=_irreducible_matrices(),
       tol=st.sampled_from([0.5, 1e-3, 1e-10, 1e-30]),
       budget=st.sampled_from([1, 2, 3, 7, 300]))
def test_dilatation_matches_fraction_reference(data, tol, budget):
    labels = tuple(f"e{i}" for i in range(len(data)))
    mat = IncidenceMatrix(labels, labels, data)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(incidence, "MAX_ITERATIONS", budget)
        got = _outcome(dilatation, mat, tol)
    assert got == _outcome(_fraction_dilatation, mat, tol, budget)


def _squarings_and_steps(data, budget):
    """The exact squarings dilatation makes at tol 1e-30, and the larger of
    the stopping steps of M and its transpose (budget + 1 if it does not
    converge)."""
    labels = tuple(f"e{i}" for i in range(len(data)))
    squarings = 0

    def counting(a, b):
        nonlocal squarings
        squarings += 1
        return mat_mult(a, b)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(incidence, "MAX_ITERATIONS", budget)
        steps = []
        for a in (data, tuple(zip(*data))):
            got = _outcome(dilatation, IncidenceMatrix(labels, labels, a),
                           1e-30)
            steps.append(budget + 1 if isinstance(got, str)
                         else got.iterations)
        mp.setattr(incidence, "mat_mult", counting)
        _outcome(dilatation, IncidenceMatrix(labels, labels, data), 1e-30)
    return squarings, max(steps)


@settings(max_examples=100, deadline=None)
@given(data=_irreducible_matrices())
def test_no_square_past_the_stopping_step_at_tol_1e_30(data):
    # a search that stops at step s, 2^T < s <= 2^(T+1), gallops with M, M^2,
    # ..., M^(2^T) and needs M^(2^T) only for the overshoot that fails; it
    # applies M^(2^(T-1)) twice instead, so T - 1 squarings are built
    squarings, steps = _squarings_and_steps(data, 300)
    assert squarings <= max(steps.bit_length() - 2, 0)


@pytest.mark.parametrize("build", [phi2, lambda: phi(7), lambda: phi(161),
                                   lambda: psi(3), lambda: psi(40)])
def test_atlas_squarings_at_tol_1e_30(build):
    data = incidence_matrix(build()).data
    squarings, steps = _squarings_and_steps(data, incidence.MAX_ITERATIONS)
    assert squarings <= max(steps.bit_length() - 2, 0)


def _boolean_power_reference(data):
    """primitive, exponent and bound by explicit boolean matrix powers."""
    n = len(data)
    bound = (n - 1) * (n - 1) + 1 if n > 1 else 1
    base = [[x > 0 for x in row] for row in data]
    cur = base
    for k in range(1, bound + 1):
        if all(all(row) for row in cur):
            return True, k, bound
        cur = [[any(cur[i][t] and base[t][j] for t in range(n))
                for j in range(n)] for i in range(n)]
    return False, None, bound


@st.composite
def _boolean_pattern_matrices(draw):
    """Random matrices, periodic ones (every edge steps from class c to class
    c + 1 of a partition), and permutation matrices."""
    n = draw(st.integers(min_value=1, max_value=8))
    kind = draw(st.sampled_from(["plain", "periodic", "permutation"]))
    if kind == "permutation":
        perm = draw(st.permutations(range(n)))
        return tuple(tuple(int(j == perm[i]) for j in range(n))
                     for i in range(n))
    cells = draw(st.lists(st.integers(min_value=0, max_value=2),
                          min_size=n * n, max_size=n * n))
    a = [cells[i * n:(i + 1) * n] for i in range(n)]
    if kind == "periodic":
        period = draw(st.integers(min_value=1, max_value=n))
        cls = draw(st.lists(st.integers(min_value=0, max_value=period - 1),
                            min_size=n, max_size=n))
        a = [[x if cls[j] == (cls[i] + 1) % period else 0
              for j, x in enumerate(row)] for i, row in enumerate(a)]
    return tuple(tuple(row) for row in a)


@settings(max_examples=300, deadline=None)
@given(data=_boolean_pattern_matrices())
def test_primitivity_matches_boolean_powers(data):
    labels = tuple(f"e{i}" for i in range(len(data)))
    rep = primitivity(IncidenceMatrix(labels, labels, data))
    assert (rep.primitive, rep.exponent, rep.bound) == \
        _boolean_power_reference(data)


@st.composite
def _no_zero_row_matrices(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    cells = draw(st.lists(st.integers(min_value=0, max_value=3),
                          min_size=n * n, max_size=n * n))
    a = [cells[i * n:(i + 1) * n] for i in range(n)]
    for i, row in enumerate(a):
        if not any(row):
            row[draw(st.integers(min_value=0, max_value=n - 1))] = 1
    return tuple(tuple(row) for row in a)


@settings(max_examples=200, deadline=None)
@given(data=_no_zero_row_matrices())
def test_collatz_wielandt_bounds_are_monotone(data):
    # For M >= 0 with no zero row and v > 0, min (Mv)_i / v_i never falls
    # and max never rises from v to Mv, reducible or not: the lemma that
    # lets `dilatation` jump to its stopping step
    v = [1] * len(data)
    lo, hi = None, None
    for _ in range(40):
        w = [sum(x * y for x, y in zip(row, v)) for row in data]
        quots = [Fraction(wi, vi) for wi, vi in zip(w, v)]
        if lo is not None:
            assert min(quots) >= lo
            assert max(quots) <= hi
        lo, hi = min(quots), max(quots)
        v = w


def test_periodic_matrix_gives_up_at_the_budget():
    # irreducible of period 2: edges step i to i + 1 or i + 3 mod 12, so
    # every closed walk has even length.  The bracket never closes, and the
    # 20,000-step budget ends it in a fraction of a second, not a minute
    n = 12
    data = tuple(
        tuple((j == (i + 1) % n) + (j == (i + 3) % n) * (1 + (i == 0))
              for j in range(n))
        for i in range(n))
    labels = tuple(f"e{i:02d}" for i in range(n))
    with pytest.raises(NoConvergence, match=r"in 20000 steps"):
        dilatation(IncidenceMatrix(labels, labels, data))


def test_decimal_text_is_str_past_any_digit_cap():
    cap = sys.get_int_max_str_digits()
    try:
        for n in (0, 7, 10**599, 10**600 - 1, 10**600, 10**600 + 1,
                  10**1200, 3**20000, 7**9000 - 1):
            sys.set_int_max_str_digits(0)
            want = str(n)
            sys.set_int_max_str_digits(640)  # the least cap Python accepts
            assert decimal_text(n) == want
    finally:
        sys.set_int_max_str_digits(cap)
