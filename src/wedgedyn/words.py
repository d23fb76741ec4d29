"""Free group words and endomorphisms on generators a, b, c, ...

A Letter is (generator index, sign). Words are stored freely reduced; the
Word constructor reduces. Text form uses lowercase for generators and
uppercase for inverses, so "aabAB" means a a b a^-1 b^-1.
"""

from __future__ import annotations

from dataclasses import dataclass
from string import ascii_letters
from typing import NamedTuple

from .errors import RankMismatch
from .intmat import IntMatrix, _at_least


class Letter(NamedTuple):
    generator: int
    sign: int

    def inverse(self) -> "Letter":
        return Letter(self.generator, -self.sign)

    def __str__(self) -> str:
        ch = chr(ord("a") + self.generator)
        return ch if self.sign > 0 else ch.upper()


def reduce_letters(letters):
    """Freely reduce a letter sequence with a stack.

    >>> show = lambda ls: "".join(str(l) for l in reduce_letters(ls))
    >>> show([Letter(0, 1), Letter(0, -1), Letter(1, 1)])
    'b'
    """
    out = []
    for l in letters:
        if out and out[-1].generator == l.generator and out[-1].sign == -l.sign:
            out.pop()
        else:
            out.append(l)
    return tuple(out)


@dataclass(frozen=True)
class Word:
    letters: tuple

    def __post_init__(self):
        object.__setattr__(self, "letters", reduce_letters(self.letters))

    @staticmethod
    def parse(text: str, rank: int) -> "Word":
        letters = []
        for ch in text:
            idx = ord(ch.lower()) - ord("a") if ch in ascii_letters else -1
            if not (0 <= idx < rank):
                raise RankMismatch(f"letter {ch!r} outside rank {rank}")
            letters.append(Letter(idx, 1 if ch.islower() else -1))
        return Word(tuple(letters))

    def __str__(self) -> str:
        return "".join(str(l) for l in self.letters) or "1"

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def inverse(self) -> "Word":
        return Word(tuple(l.inverse() for l in reversed(self.letters)))

    def __mul__(self, other: "Word") -> "Word":
        return Word(self.letters + other.letters)

    def abelian_vector(self, rank: int) -> tuple:
        v = [0] * rank
        for l in self.letters:
            v[l.generator] += l.sign
        return tuple(v)


@dataclass(frozen=True)
class Endomorphism:
    """psi: F_b -> F_b given by one image word per generator."""

    rank: int
    images: tuple

    def __post_init__(self):
        if len(self.images) != self.rank:
            raise RankMismatch(f"{len(self.images)} rules for rank {self.rank}")
        for w in self.images:
            for l in w:
                if not (0 <= l.generator < self.rank):
                    raise RankMismatch("image uses a generator outside the rank")

    @staticmethod
    def from_strings(rank: int, *images: str) -> "Endomorphism":
        return Endomorphism(rank, tuple(Word.parse(s, rank) for s in images))

    def apply(self, w: Word) -> Word:
        """psi(w), freely reduced."""
        chunks = []
        for l in w:
            img = self.images[l.generator]
            chunks.extend(img.letters if l.sign > 0 else img.inverse().letters)
        return Word(tuple(chunks))

    def power(self, k: int) -> "Endomorphism":
        """psi^k as an endomorphism; k >= 0 (k = 0 is the identity)."""
        k = _at_least(k, "k", 0)
        cur = [Word((Letter(i, 1),)) for i in range(self.rank)]
        for _ in range(k):
            cur = [self.apply(w) for w in cur]
        return Endomorphism(self.rank, tuple(cur))

    def abelianize(self) -> IntMatrix:
        """The induced matrix on H_1: column j is the abelianized image of a_j."""
        cols = [w.abelian_vector(self.rank) for w in self.images]
        return IntMatrix(tuple(zip(*cols)))

    def uniform_expansion(self) -> "int | None":
        """The common image length M when the map expands words uniformly.

        Requires every generator image to be reduced of one length M > 1 and
        no cancellation at any junction: every reduced two-letter word xy
        must have a reduced image of length exactly 2M. Returns None when
        either condition fails.
        """
        lengths = {len(w) for w in self.images}
        m = lengths.pop() if len(lengths) == 1 else 0
        alphabet = [Letter(g, s) for g in range(self.rank) for s in (1, -1)]
        if m <= 1 or any(len(self.apply(Word((x, y)))) != 2 * m
                         for x in alphabet for y in alphabet if x != y.inverse()):
            return None
        return m
