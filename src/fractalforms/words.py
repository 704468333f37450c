"""Digit words addressing cells of the approximation graphs."""
from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Sequence

from .kinds import FractalKind


def as_digits(w: "Sequence[int] | str") -> tuple[int, ...]:
    """Coerce word-like input (tuple/list, or digit string) to a tuple."""
    if isinstance(w, str):
        return tuple(int(ch) for ch in w)
    return tuple(int(d) for d in w)


def enumerate_words(kind: FractalKind, n: int) -> Iterator[tuple[int, ...]]:
    """All level-n words in lexicographic order (as plain tuples)."""
    if n < 0:
        raise ValueError("level must be >= 0")
    return itertools.product(range(kind.n_maps), repeat=n)


def pack_word(kind: FractalKind, digits: Iterable[int]) -> int:
    """Radix-pack a word; only unambiguous within a fixed level."""
    acc = 0
    k = kind.n_maps
    for d in digits:
        acc = acc * k + d
    return acc
