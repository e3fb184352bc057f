"""Free-group words over the surface-group generators and twist substitutions.

The genus-3 surface group is generated by a1, b1, a2, b2, a3, b3 subject to
the product-of-commutators relation; the mapping-torus group adds the extra
generator tau.  Words are stored run-length as (generator, exponent)
syllables and kept freely reduced, so conjugates by high powers of the fixed
word chi = [a3, b3] * a1 stay compact.

The automorphism induced by the n-th power of the bounding-pair map
T_{gamma1} o T_{gamma2}^{-1} acts on the generators by

    a1 -> chi^n a1 chi^-n      b1 -> b1 a1^n chi^-n
    a2 -> a2                   b2 -> b2
    a3 -> chi^n a3 chi^-n      b3 -> chi^n b3 chi^-n

for every integer n.  The map fixes chi and its inverse sends b1 to
b1 a1^-1 chi, so induction on |n| gives the table for negative n as well.
Concatenation is read left to right, and evaluation at a representation
multiplies the generator images in the same order.
"""

from __future__ import annotations

import itertools
from enum import Enum
from typing import Iterable, Mapping

from .su2 import ONE, SU2

__all__ = [
    "Generator",
    "SURFACE_GENERATORS",
    "Word",
    "free_reduce",
    "Substitution",
    "identity_substitution",
    "compose_substitution",
    "twist_gamma1",
    "twist_gamma1_inverse",
    "twist_gamma2",
    "twist_gamma2_inverse",
    "phi_substitution",
    "relator",
    "chi",
    "evaluate",
]


class Generator(Enum):
    TAU = "tau"
    A1 = "a1"
    B1 = "b1"
    A2 = "a2"
    B2 = "b2"
    A3 = "a3"
    B3 = "b3"

    def __repr__(self) -> str:
        return self.value


SURFACE_GENERATORS = (
    Generator.A1,
    Generator.B1,
    Generator.A2,
    Generator.B2,
    Generator.A3,
    Generator.B3,
)


def _reduce(pairs: Iterable[tuple[Generator, int]]) -> tuple[tuple[Generator, int], ...]:
    stack: list[tuple[Generator, int]] = []
    for gen, exp in pairs:
        if exp == 0:
            continue
        if stack and stack[-1][0] is gen:
            merged = stack[-1][1] + exp
            stack.pop()
            if merged != 0:
                stack.append((gen, merged))
        else:
            stack.append((gen, exp))
    return tuple(stack)


class Word:
    """A freely reduced word, stored as (generator, exponent) syllables."""

    __slots__ = ("syllables",)

    def __init__(self, pairs: Iterable[tuple[Generator, int]] = ()):
        object.__setattr__(self, "syllables", _reduce(pairs))

    def __setattr__(self, name, value):
        raise AttributeError("Word is immutable")

    @classmethod
    def of(cls, gen: Generator, exp: int = 1) -> "Word":
        return cls(((gen, exp),))

    def __mul__(self, other: "Word") -> "Word":
        return Word(itertools.chain(self.syllables, other.syllables))

    def inverse(self) -> "Word":
        return Word((gen, -exp) for gen, exp in reversed(self.syllables))

    def __pow__(self, k: int) -> "Word":
        if k < 0:
            return self.inverse() ** (-k)
        return Word(itertools.chain.from_iterable([self.syllables] * k))

    @property
    def is_identity(self) -> bool:
        return not self.syllables

    def length(self) -> int:
        """Letter count of the reduced word."""
        return sum(abs(exp) for _, exp in self.syllables)

    def __eq__(self, other) -> bool:
        return isinstance(other, Word) and self.syllables == other.syllables

    def __hash__(self) -> int:
        return hash(self.syllables)

    def __str__(self) -> str:
        if not self.syllables:
            return "1"
        return " ".join(
            g.value if e == 1 else f"{g.value}^{e}" for g, e in self.syllables
        )

    def __repr__(self) -> str:
        return f"Word({self})"


def free_reduce(word: Word | Iterable[tuple[Generator, int]]) -> Word:
    """The freely reduced word equal to `word` (syllable pairs accepted).

    Word instances are reduced on construction, so this is the identity on
    them; it exists for reducing raw syllable sequences.
    """
    if isinstance(word, Word):
        return word
    return Word(word)


def relator() -> Word:
    """[a1, b1] [a2, b2] [a3, b3], the defining surface-group relation."""
    pairs = []
    for a, b in ((Generator.A1, Generator.B1), (Generator.A2, Generator.B2), (Generator.A3, Generator.B3)):
        pairs += [(a, 1), (b, 1), (a, -1), (b, -1)]
    return Word(pairs)


def chi() -> Word:
    """[a3, b3] * a1, the word fixed by every power of the bounding-pair map."""
    return Word(
        (
            (Generator.A3, 1),
            (Generator.B3, 1),
            (Generator.A3, -1),
            (Generator.B3, -1),
            (Generator.A1, 1),
        )
    )


class Substitution:
    """A generator-to-word map on the six surface generators.

    tau always maps to itself.  The map extends homomorphically to words,
    with w^-1 mapping to the inverse of the image of w.
    """

    __slots__ = ("_images",)

    def __init__(self, images: Mapping[Generator, Word] = {}):
        table = {}
        for gen in SURFACE_GENERATORS:
            table[gen] = images.get(gen, Word.of(gen))
        if Generator.TAU in images:
            raise ValueError("tau is fixed by every substitution")
        object.__setattr__(self, "_images", table)

    def __setattr__(self, name, value):
        raise AttributeError("Substitution is immutable")

    def image(self, gen: Generator) -> Word:
        if gen is Generator.TAU:
            return Word.of(gen)
        return self._images[gen]

    def apply(self, word: Word) -> Word:
        pieces = []
        for gen, exp in word.syllables:
            pieces.append(self.image(gen) ** exp)
        out = Word()
        for piece in pieces:
            out = out * piece
        return out

    def __eq__(self, other) -> bool:
        return isinstance(other, Substitution) and all(
            self._images[g] == other._images[g] for g in SURFACE_GENERATORS
        )

    def __hash__(self) -> int:
        return hash(tuple(self._images[g] for g in SURFACE_GENERATORS))

    def __repr__(self) -> str:
        rows = ", ".join(f"{g.value} -> {self._images[g]}" for g in SURFACE_GENERATORS)
        return f"Substitution({rows})"


def identity_substitution() -> Substitution:
    return Substitution()


def compose_substitution(s1: Substitution, s2: Substitution) -> Substitution:
    """The substitution g -> s1(s2(g))."""
    return Substitution({g: s1.apply(s2.image(g)) for g in SURFACE_GENERATORS})


def _conjugation_table(conj: Word) -> dict[Generator, Word]:
    inv = conj.inverse()
    return {
        g: conj * Word.of(g) * inv
        for g in (Generator.A1, Generator.A3, Generator.B3)
    }


def twist_gamma1() -> Substitution:
    """Dehn twist about the first bounding curve: b1 -> b1 a1, rest fixed."""
    return Substitution({Generator.B1: Word.of(Generator.B1) * Word.of(Generator.A1)})


def twist_gamma1_inverse() -> Substitution:
    return Substitution(
        {Generator.B1: Word.of(Generator.B1) * Word.of(Generator.A1, -1)}
    )


def twist_gamma2() -> Substitution:
    """Dehn twist about the second bounding curve.

    Conjugates a1, a3, b3 by chi^-1 and appends chi to b1.
    """
    images = _conjugation_table(chi().inverse())
    images[Generator.B1] = Word.of(Generator.B1) * chi()
    return Substitution(images)


def twist_gamma2_inverse() -> Substitution:
    images = _conjugation_table(chi())
    images[Generator.B1] = Word.of(Generator.B1) * chi().inverse()
    return Substitution(images)


def phi_substitution(n: int) -> Substitution:
    """Action of the n-th power of the bounding-pair map on the generators.

    The closed-form table of the module docstring, for every integer n.
    """
    cn = chi() ** n
    cninv = cn.inverse()
    a1 = Word.of(Generator.A1)
    return Substitution(
        {
            Generator.A1: cn * a1 * cninv,
            Generator.B1: Word.of(Generator.B1) * a1**n * cninv,
            Generator.A3: cn * Word.of(Generator.A3) * cninv,
            Generator.B3: cn * Word.of(Generator.B3) * cninv,
        }
    )


def evaluate(word: Word, images: Mapping[Generator, SU2]) -> SU2:
    """Product of the generator images along the word, left to right.

    Raises ValueError when the word uses a generator the mapping lacks
    (e.g. a tau-bearing word evaluated at a surface-only representation).
    """
    acc = None
    for gen, exp in word.syllables:
        img = images.get(gen)
        if img is None:
            raise ValueError(f"representation provides no image for {gen.value!r}")
        factor = img.power(exp)
        acc = factor if acc is None else acc * factor
    return ONE if acc is None else acc
