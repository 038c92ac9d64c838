"""Group presentations and free-group word algebra.

Words are sequences of signed generator indices.  The string syntax uses one
lowercase letter per generator, with the uppercase counterpart denoting the
inverse: ``"aBc"`` means ``a * b^-1 * c``.  No whitespace, no exponents; a
string like ``"a^-3"`` is rejected rather than guessed at.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "Word",
    "PeripheralSpec",
    "GroupPresentation",
    "parse_word",
    "render_word",
    "free_reduce",
    "invert_word",
    "is_reduced",
    "surface_presentation",
    "euler_characteristic",
]

#: A letter is (generator index, sign), sign +1 for the generator, -1 for its
#: inverse.
Letter = "tuple[int, int]"

TORUS = "torus"
HIGHER_GENUS = "higher-genus"


@dataclass(frozen=True)
class Word:
    """A word in the free group on the presentation's generators.

    Not automatically freely reduced; use :func:`free_reduce`.  The empty
    word is the identity.
    """

    letters: tuple = ()

    def __post_init__(self):
        letters = tuple((int(k), int(s)) for k, s in self.letters)
        object.__setattr__(self, "letters", letters)
        for k, s in letters:
            if k < 0:
                raise ValueError(f"negative generator index {k}")
            if s not in (1, -1):
                raise ValueError(f"letter sign must be +1 or -1, got {s}")

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def __bool__(self) -> bool:
        return bool(self.letters)

    def max_index(self) -> int:
        """Largest generator index used, or -1 for the empty word."""
        return max((k for k, _ in self.letters), default=-1)


def is_reduced(w: Word) -> bool:
    return all(
        not (a[0] == b[0] and a[1] == -b[1])
        for a, b in zip(w.letters, w.letters[1:])
    )


def free_reduce(w: Word) -> Word:
    """Cancel adjacent inverse pairs until none remain."""
    stack: list = []
    for letter in w.letters:
        if stack and stack[-1][0] == letter[0] and stack[-1][1] == -letter[1]:
            stack.pop()
        else:
            stack.append(letter)
    return Word(tuple(stack))


def invert_word(w: Word) -> Word:
    return Word(tuple((k, -s) for k, s in reversed(w.letters)))


def parse_word(text: str, generator_names) -> Word:
    """Parse the one-letter-per-generator syntax and freely reduce.

    Lowercase letters name generators, uppercase their inverses.
    """
    if not isinstance(text, str):
        raise ValueError(f"word must be a string, got {type(text).__name__}")
    if text == "":
        raise ValueError("empty word string; the identity has no literal syntax")
    index = {name: k for k, name in enumerate(generator_names)}
    letters = []
    for ch in text:
        if ch in index:
            letters.append((index[ch], 1))
        elif ch.lower() in index and ch.isupper():
            letters.append((index[ch.lower()], -1))
        else:
            raise ValueError(
                f"unknown letter {ch!r}; generators are {''.join(generator_names)} "
                "(uppercase = inverse)"
            )
    return free_reduce(Word(tuple(letters)))


def render_word(w: Word, generator_names) -> str:
    """Inverse of :func:`parse_word` on freely reduced words; empty word -> ''."""
    out = []
    for k, s in w.letters:
        name = generator_names[k]
        out.append(name if s == 1 else name.upper())
    return "".join(out)


@dataclass(frozen=True)
class PeripheralSpec:
    """Marking of one boundary component's subgroup by explicit words.

    A torus marking carries exactly two words (meridian, longitude); their
    images must commute under any representation this marking is used with.
    """

    kind: str
    words: tuple = ()

    def __post_init__(self):
        if self.kind not in (TORUS, HIGHER_GENUS):
            raise ValueError(f"peripheral kind must be {TORUS!r} or {HIGHER_GENUS!r}")
        words = tuple(self.words)
        object.__setattr__(self, "words", words)
        if not all(isinstance(w, Word) for w in words):
            raise ValueError("peripheral words must be Word instances")
        if self.kind == TORUS and len(words) != 2:
            raise ValueError(f"a torus marking needs exactly two words, got {len(words)}")


@dataclass(frozen=True)
class GroupPresentation:
    """Finitely presented group with optional boundary markings.

    Generator names are distinct single lowercase ASCII letters (the word
    syntax needs one character per generator).  Relators are stored exactly
    as given, freely reduced and nonempty; no cyclic reduction is applied,
    so user input is preserved verbatim.
    """

    generator_names: tuple
    relators: tuple = ()
    peripheral: tuple = ()

    def __post_init__(self):
        names = tuple(self.generator_names)
        relators = tuple(self.relators)
        peripheral = tuple(self.peripheral)
        object.__setattr__(self, "generator_names", names)
        object.__setattr__(self, "relators", relators)
        object.__setattr__(self, "peripheral", peripheral)

        if not names:
            raise ValueError("a presentation needs at least one generator")
        for name in names:
            if len(name) != 1 or not ("a" <= name <= "z"):
                raise ValueError(
                    f"generator name {name!r} invalid: single lowercase letters only"
                )
        if len(set(names)) != len(names):
            raise ValueError("generator names must be distinct")

        for i, rel in enumerate(relators):
            if not isinstance(rel, Word):
                raise ValueError("relators must be Word instances")
            if not rel:
                raise ValueError(f"relator {i} is empty")
            if not is_reduced(rel):
                raise ValueError(f"relator {i} is not freely reduced")
            self._check_range(rel, f"relator {i}")
        for i, per in enumerate(peripheral):
            if not isinstance(per, PeripheralSpec):
                raise ValueError("peripheral entries must be PeripheralSpec instances")
            for w in per.words:
                self._check_range(w, f"peripheral marking {i}")

    def _check_range(self, w: Word, what: str) -> None:
        if w.max_index() >= len(self.generator_names):
            raise ValueError(
                f"{what} uses generator index {w.max_index()} but only "
                f"{len(self.generator_names)} generators are declared"
            )

    @property
    def num_generators(self) -> int:
        return len(self.generator_names)

    @property
    def num_relators(self) -> int:
        return len(self.relators)

    @property
    def torus_count(self) -> int:
        return sum(1 for p in self.peripheral if p.kind == TORUS)

    def render(self, w: Word) -> str:
        return render_word(w, self.generator_names)


_ALPHABET = "abcdefghijklmnopqrstuvwxyz"


def surface_presentation(g: int) -> GroupPresentation:
    """Standard presentation of the genus-g closed orientable surface group.

    Generators come in handle pairs; the single relator is the product of
    commutators of each pair.  Single-letter naming caps g at 13.
    """
    if g < 1:
        raise ValueError(f"genus must be >= 1, got {g}")
    if 2 * g > len(_ALPHABET):
        raise ValueError(f"genus {g} needs {2 * g} generators; max supported is 13")
    names = tuple(_ALPHABET[: 2 * g])
    letters = []
    for i in range(g):
        a, b = 2 * i, 2 * i + 1
        letters += [(a, 1), (b, 1), (a, -1), (b, -1)]
    return GroupPresentation(names, (Word(tuple(letters)),))


def euler_characteristic(p: GroupPresentation) -> int:
    """1 - m1 + m2, valid when the presentation comes from a one-0-cell
    CW structure; callers may override with an explicitly supplied value."""
    return 1 - p.num_generators + p.num_relators
