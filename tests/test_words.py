"""Word layer: parsing, reduction, rotation matching."""

import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ttlab.errors import ParseError
from ttlab.words import (
    cyclic_reduce_marked,
    find_rotations,
    format_word,
    free_reduce,
    free_reduce_marked,
    inverse,
    min_rotation,
    parse_letter,
    parse_word,
    rotate,
    substitute,
    word_key,
)


def test_parse_format_roundtrip():
    for text in ("a", "a b -c", "k g k", "-a", "i j -h -d e a -c -l b f -g -k"):
        assert format_word(parse_word(text)) == text


def test_parse_letter_signs():
    assert parse_letter("a") == ("a", 1)
    assert parse_letter("-a") == ("a", -1)


def test_parse_rejects_garbage():
    with pytest.raises(ParseError):
        parse_word("a $ b")
    with pytest.raises(ParseError):
        parse_letter("--a")
    with pytest.raises(ParseError):
        parse_letter("")
    with pytest.raises(ParseError):
        parse_letter("a\n")


def test_parse_error_carries_position():
    err = None
    try:
        parse_word("a b ?", line=7)
    except ParseError as e:
        err = e
    assert err is not None
    assert err.line == 7
    assert err.col == 5
    assert "line 7" in str(err)


def test_inverse():
    w = parse_word("a -b c")
    assert format_word(inverse(w)) == "-c b -a"
    assert inverse(inverse(w)) == w


def test_free_reduce():
    assert format_word(free_reduce(parse_word("a -a b"))) == "b"
    assert format_word(free_reduce(parse_word("a b -b -a"))) == ""
    assert format_word(free_reduce(parse_word("a b c"))) == "a b c"


def test_free_reduce_marked_tracks_survivors():
    w = parse_word("a b -b c")
    reduced, survivors = free_reduce_marked(w)
    assert format_word(reduced) == "a c"
    assert survivors == (0, 3)


def test_cyclic_reduce_wraparound():
    # a ... -a cancels around the seam
    w = parse_word("a b c -a")
    reduced, survivors = cyclic_reduce_marked(w)
    assert format_word(reduced) == "b c"
    assert survivors == (1, 2)


def test_substitute():
    images = {"a": parse_word("x y"), "b": parse_word("z")}
    w = parse_word("a -b a")
    assert format_word(substitute(w, images)) == "x y -z x y"


def test_rotate():
    w = parse_word("a b c d")
    assert format_word(rotate(w, 1)) == "b c d a"
    assert rotate(w, 4) == w
    assert rotate(w, -1) == rotate(w, 3)


def test_min_rotation_canonical():
    w = parse_word("c a b")
    canon, r = min_rotation(w)
    assert format_word(canon) == "a b c"
    assert rotate(w, r) == canon


def test_min_rotation_restricted_starts():
    w = parse_word("c a b")
    canon, r = min_rotation(w, starts=(0, 2))
    assert format_word(canon) == "b c a"
    assert r == 2


def test_find_rotations():
    base = parse_word("a b a c")
    assert find_rotations(parse_word("a c a b"), base) == (2,)
    assert find_rotations(base, base) == (0,)
    assert find_rotations(parse_word("a b a d"), base) == ()


def test_find_rotations_all_matches():
    base = parse_word("a b a b")
    assert find_rotations(base, base) == (0, 2)


def test_word_key_orders():
    assert word_key(parse_word("a b")) < word_key(parse_word("a c"))


def test_reduction_random_involution():
    rng = random.Random(91)
    labels = "abcde"
    for _ in range(200):
        w = tuple(
            (rng.choice(labels), rng.choice((1, -1)))
            for _ in range(rng.randrange(0, 12))
        )
        r = free_reduce(w)
        # reduced words are fixed points
        assert free_reduce(r) == r
        # w * w^-1 reduces to nothing
        assert free_reduce(w + inverse(w)) == ()
        # cyclic reduction is invariant under rotation, up to rotation
        if r:
            c = cyclic_reduce_marked(r)[0]
            for k in range(len(r)):
                rk = cyclic_reduce_marked(rotate(r, k))[0]
                assert word_key(min_rotation(rk)[0]) \
                    == word_key(min_rotation(c)[0])


def join(u, v):
    """free_reduce(u + v) for reduced u and v: letters can cancel only at
    the seam, so trim the matching ends and concatenate what is left.  The
    stepwise reference for apply_sequence's images (test_splitting)."""
    k, n = 0, min(len(u), len(v))
    while k < n and u[-1 - k][0] == v[k][0] and u[-1 - k][1] == -v[k][1]:
        k += 1
    return u[:len(u) - k] + v[k:]


_REDUCED = st.lists(st.tuples(st.sampled_from("abc"), st.sampled_from((1, -1))),
                    max_size=12).map(free_reduce)


@given(u=_REDUCED, k=st.integers(0, 12), tail=_REDUCED)
@example(u=parse_word("a b"), k=0, tail=parse_word("c a"))  # no cancellation
@example(u=parse_word("a b c"), k=2, tail=parse_word("a"))  # partial
@example(u=parse_word("a b c"), k=3, tail=())  # total
@example(u=(), k=0, tail=parse_word("a"))  # empty u
@example(u=parse_word("a"), k=0, tail=())  # empty v
@example(u=(), k=0, tail=())
def test_join_reduces_only_at_the_seam(u, k, tail):
    # v starts with the inverse of the last k letters of u, then goes on
    k = min(k, len(u))
    v = free_reduce(inverse(u[len(u) - k:]) + tail)
    assert join(u, v) == free_reduce(u + v)
    assert join(v, u) == free_reduce(v + u)
