"""Freely reduced words and finite presentations.

A word is a sequence of (symbol index, nonzero exponent) letters over an
abstract alphabet; the same type carries presentation relators (symbols are
generator names) and verbal-subgroup words (symbols are variables x1, x2, ...).
Commutators use the convention [a, b] = a^-1 b^-1 a b.
"""

from __future__ import annotations

import re
from typing import Sequence

from .errors import ScenarioError


_LCS_WORDS: dict[int, "Word"] = {}


def _reduce(letters) -> tuple[tuple[int, int], ...]:
    out: list[list[int]] = []
    for sym, exp in letters:
        if exp == 0:
            continue
        if out and out[-1][0] == sym:
            out[-1][1] += exp
            if out[-1][1] == 0:
                out.pop()
        else:
            out.append([sym, exp])
    return tuple((s, e) for s, e in out)


class Word:
    """Immutable, and equal and hashed by its reduced letters."""

    __slots__ = ("letters", "_hash")

    def __init__(self, letters=()):
        letters = _reduce(letters)
        object.__setattr__(self, "letters", letters)
        # hashed once: functor specs holding words are memo keys
        object.__setattr__(self, "_hash", hash(letters))

    def __setattr__(self, *a):
        raise AttributeError("Word is immutable")

    def __eq__(self, other) -> bool:
        return isinstance(other, Word) and self.letters == other.letters

    def __hash__(self) -> int:
        return self._hash

    @classmethod
    def generator(cls, index: int, exp: int = 1) -> "Word":
        return cls(((index, exp),))

    @classmethod
    def commutator(cls, a: "Word", b: "Word") -> "Word":
        return a.inverse() * b.inverse() * a * b

    @classmethod
    def lcs_word(cls, c: int) -> "Word":
        """The iterated commutator [..[x1,x2],..,x_{c+1}] in c+1 variables.

        Cached: the word has 3*2^c - 2 letters and is requested constantly
        by the word-shape classifier.
        """
        if c < 1:
            raise ValueError("need c >= 1")
        cached = _LCS_WORDS.get(c)
        if cached is None:
            if c == 1:
                cached = cls.commutator(cls.generator(0), cls.generator(1))
            else:
                cached = cls.commutator(cls.lcs_word(c - 1), cls.generator(c))
            _LCS_WORDS[c] = cached
        return cached

    @property
    def arity(self) -> int:
        return max((s for s, _ in self.letters), default=-1) + 1

    def is_empty(self) -> bool:
        return not self.letters

    def __mul__(self, other: "Word") -> "Word":
        return Word(self.letters + other.letters)

    def inverse(self) -> "Word":
        return Word(tuple((s, -e) for s, e in reversed(self.letters)))

    def __pow__(self, n: int) -> "Word":
        if n < 0:
            return self.inverse() ** (-n)
        w = Word()
        for _ in range(n):
            w = w * self
        return w

    def evaluate(self, values: Sequence, identity):
        """Evaluate on group elements supporting * and ** (left to right)."""
        acc = identity
        for sym, exp in self.letters:
            acc = acc * values[sym] ** exp
        return acc

    def exponent_sum(self) -> int:
        return sum(e for _, e in self.letters)

    def text(self, names: Sequence[str] | None = None) -> str:
        if not self.letters:
            return "1"
        parts = []
        for sym, exp in self.letters:
            name = names[sym] if names is not None else f"x{sym + 1}"
            parts.append(name if exp == 1 else f"{name}^{exp}")
        return "*".join(parts)

    def __repr__(self) -> str:
        return f"Word({self.text()})"


_TOKEN = re.compile(r"\s*([A-Za-z_][A-Za-z_0-9]*|-?\d+|[*^()\[\],])")


def _tokenize(text: str) -> list[str]:
    tokens, pos = [], 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ValueError(f"bad character at {text[pos:]!r}")
        tokens.append(m.group(1))
        pos = m.end()
    return tokens


class _WordParser:
    """Recursive descent for  word := factor {'*' factor},
    factor := atom ['^' int],  atom := name | '(' word ')' | '[' word ',' word ']'.
    """

    def __init__(self, tokens: list[str], alphabet: Sequence[str] | None):
        self.tokens = tokens
        self.pos = 0
        self.alphabet = list(alphabet) if alphabet is not None else None

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self, expected: str | None = None) -> str:
        tok = self.peek()
        if tok is None:
            raise ValueError("unexpected end of word")
        if expected is not None and tok != expected:
            raise ValueError(f"expected {expected!r}, found {tok!r}")
        self.pos += 1
        return tok

    def parse_word(self) -> Word:
        w = self.parse_factor()
        while self.peek() == "*":
            self.take("*")
            w = w * self.parse_factor()
        return w

    def parse_factor(self) -> Word:
        atom = self.parse_atom()
        if self.peek() == "^":
            self.take("^")
            exp = self.take()
            try:
                return atom ** int(exp)
            except ValueError:
                raise ValueError(f"bad exponent {exp!r}") from None
        return atom

    def parse_atom(self) -> Word:
        tok = self.take()
        if tok == "(":
            w = self.parse_word()
            self.take(")")
            return w
        if tok == "[":
            a = self.parse_word()
            self.take(",")
            b = self.parse_word()
            self.take("]")
            return Word.commutator(a, b)
        return Word.generator(self.symbol_index(tok))

    def symbol_index(self, name: str) -> int:
        if self.alphabet is not None:
            if name not in self.alphabet:
                raise ValueError(f"unknown generator {name!r}")
            return self.alphabet.index(name)
        m = re.fullmatch(r"x(\d+)", name)
        if not m or int(m.group(1)) < 1:
            raise ValueError(f"variables must be x1, x2, ...: got {name!r}")
        return int(m.group(1)) - 1


def parse_word(text: str, alphabet: Sequence[str] | None = None) -> Word:
    """Parse a word; names are looked up in ``alphabet`` or read as x<k>."""
    parser = _WordParser(_tokenize(text), alphabet)
    w = parser.parse_word()
    if parser.peek() is not None:
        raise ValueError(f"trailing tokens after word: {parser.tokens[parser.pos:]}")
    return w


class Presentation:
    """Immutable, and equal by generator names and relators."""

    __slots__ = ("generators", "relators", "_hash")

    def __init__(self, generators: tuple[str, ...], relators: tuple[Word, ...]):
        if len(set(generators)) != len(generators):
            raise ValueError("duplicate generator names")
        for rel in relators:
            if rel.arity > len(generators):
                raise ValueError(
                    f"relator {rel.text()} uses undeclared generators"
                )
        object.__setattr__(self, "generators", generators)
        object.__setattr__(self, "relators", relators)
        # from integers only, so it does not depend on the string hash seed
        object.__setattr__(self, "_hash", hash((len(generators), relators)))

    def __setattr__(self, *a):
        raise AttributeError("Presentation is immutable")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Presentation)
            and self.generators == other.generators
            and self.relators == other.relators
        )

    def __hash__(self) -> int:
        return self._hash

    @classmethod
    def parse(cls, gens: str, rels: str) -> "Presentation":
        names = tuple(g.strip() for g in gens.split(",") if g.strip())
        relators = tuple(
            parse_word(chunk, names) for chunk in _split_top_level(rels) if chunk
        )
        return cls(names, relators)

    def relator_texts(self) -> tuple[str, ...]:
        return tuple(r.text(self.generators) for r in self.relators)

    def __repr__(self) -> str:
        return (
            f"Presentation(<{','.join(self.generators)} | "
            f"{','.join(self.relator_texts())}>)"
        )


def _split_top_level(text: str) -> list[str]:
    """Split on commas not nested inside (), [] — for relator lists."""
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur).strip())
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur).strip())
    return [p for p in parts if p]


def _split_fields(text: str, line: int | None) -> list[str]:
    """Split on whitespace at bracket depth zero."""
    parts, cur, depth = [], [], 0
    for ch in text:
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
            if depth < 0:
                raise ScenarioError("unbalanced brackets", line)
        if ch.isspace() and depth == 0:
            if cur:
                parts.append("".join(cur))
                cur = []
        else:
            cur.append(ch)
    if depth != 0:
        raise ScenarioError("unbalanced brackets", line)
    if cur:
        parts.append("".join(cur))
    return parts


def parse_fields(
    text: str, line: int | None, form: str | None = None
) -> tuple[str | None, list[tuple[str, str]]]:
    """The bare word (the form) and the key=value fields of a line of a
    scenario section body, such as ``abelian rank=1 torsion=[4]``; ``form``
    is the one an earlier line of the body gave, if any."""
    fields = []
    for tok in _split_fields(text, line):
        if "=" in tok:
            key, _, value = tok.partition("=")
            if not key:
                raise ScenarioError(f"bad field {tok!r}", line)
            fields.append((key, value))
        else:
            if form is not None:
                raise ScenarioError(
                    f"unexpected bare word {tok!r} (form already {form!r})", line
                )
            form = tok
    return form, fields


def positive_int(text: str, what: str, line: int | None = None) -> int:
    """``text`` as a positive integer, for a field or an option ``what``."""
    try:
        n = int(text)
    except ValueError:
        n = 0
    if n < 1:
        raise ScenarioError(f"{what} needs a positive integer, got {text!r}", line)
    return n
