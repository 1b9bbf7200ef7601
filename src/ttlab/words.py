"""Signed edge words.

A letter is a pair (label, sign) with sign +1 or -1, printed "a" or "-a".
A word is a tuple of letters.  Everything here is pure and cheap; the rest
of the package leans on these helpers in inner loops, so they stay free of
class machinery.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Mapping

from .errors import ParseError

Letter = tuple[str, int]
Word = tuple[Letter, ...]

_LABEL_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
_RESERVED = ("source", "target")  # the keys a map reads beside its edges
LABEL_RULE = ("a label is a letter, then letters, digits or '_', and not "
              "'source' or 'target', which are reserved map keys")


def is_label(text: str) -> bool:
    return bool(_LABEL_RE.fullmatch(text)) and text not in _RESERVED


def inverse(word: Iterable[Letter]) -> Word:
    return tuple((lab, -s) for lab, s in reversed(tuple(word)))


def parse_letter(token: str, line: int | None = None, col: int | None = None) -> Letter:
    sign = 1
    body = token
    if body.startswith("-"):
        sign = -1
        body = body[1:]
    if not is_label(body):
        raise ParseError(f"bad letter token {token!r}", line, col)
    return (body, sign)


def parse_word(text: str, line: int | None = None) -> Word:
    out = []
    col = 1
    for token in text.split():
        col = text.index(token, col - 1) + 1
        out.append(parse_letter(token, line, col))
        col += len(token)
    return tuple(out)


def format_letter(lt: Letter) -> str:
    lab, s = lt
    return lab if s > 0 else "-" + lab


def format_word(word: Iterable[Letter], sep: str = " ") -> str:
    return sep.join(format_letter(lt) for lt in word)


def free_reduce(word: Iterable[Letter]) -> Word:
    stack: list[Letter] = []
    for lt in word:
        if stack and stack[-1][0] == lt[0] and stack[-1][1] == -lt[1]:
            stack.pop()
        else:
            stack.append(lt)
    return tuple(stack)


def free_reduce_marked(word: Word) -> tuple[Word, tuple[int, ...]]:
    """Free reduction remembering which original positions survive."""
    stack: list[tuple[Letter, int]] = []
    for idx, lt in enumerate(word):
        if stack and stack[-1][0][0] == lt[0] and stack[-1][0][1] == -lt[1]:
            stack.pop()
        else:
            stack.append((lt, idx))
    return tuple(lt for lt, _ in stack), tuple(i for _, i in stack)


def cyclic_reduce_marked(word: Word) -> tuple[Word, tuple[int, ...]]:
    """Cyclic free reduction with surviving original indices.

    Linear reduction first, then matching head/tail pairs are trimmed until
    the word is cyclically reduced.
    """
    reduced, idxs = free_reduce_marked(word)
    red = list(reduced)
    ids = list(idxs)
    while len(red) >= 2 and red[0][0] == red[-1][0] and red[0][1] == -red[-1][1]:
        red = red[1:-1]
        ids = ids[1:-1]
    return tuple(red), tuple(ids)


def substitute(word: Iterable[Letter], images: Mapping[str, Word]) -> Word:
    """Letterwise substitution, no reduction.  x^-1 maps to the reversed
    inverted image."""
    out: list[Letter] = []
    for lab, s in word:
        img = images[lab]
        out.extend(img if s > 0 else inverse(img))
    return tuple(out)


def rotate(word: Word, r: int) -> Word:
    if not word:
        return word
    r %= len(word)
    return word[r:] + word[:r]


def letter_key(lt: Letter) -> tuple[str, int]:
    return (lt[0], 0 if lt[1] > 0 else 1)


def word_key(word: Word) -> tuple:
    return tuple(letter_key(lt) for lt in word)


def min_rotation(word: Word, starts: Iterable[int] | None = None) -> tuple[Word, int]:
    """Lexicographically smallest rotation; `starts` restricts the allowed
    starting positions (used to pin curve words at cusps)."""
    if not word:
        return word, 0
    cand = range(len(word)) if starts is None else sorted(set(starts))
    best_r = None
    best_key = None
    for r in cand:
        k = word_key(rotate(word, r))
        if best_key is None or k < best_key:
            best_key, best_r = k, r
    return rotate(word, best_r), best_r


def find_rotations(probe: Word, base: Word) -> tuple[int, ...]:
    """All r with probe == rotate(base, r)."""
    if len(probe) != len(base):
        return ()
    return tuple(r for r in range(len(base)) if probe == rotate(base, r))
