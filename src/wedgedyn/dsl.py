"""Textual map descriptions.

    map phi2 rank 2 {
      a -> a a a b ;
      b -> b b b a ;
    }

Lowercase letters are generators, uppercase their inverses, whitespace
between word letters optional, `#` comments to end of line. A file may
declare several maps. Names, numbers and words are ASCII only.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from string import ascii_letters, ascii_lowercase

from .errors import DuplicateRule, ParseError, UndeclaredGenerator
from .words import Endomorphism

# one alternative per token kind, ASCII only; "skip" is blanks and comments
_TOKEN = re.compile(r"(?P<newline>\n)|(?P<skip>[ \t\r]+|#[^\n]*)|(?P<arrow>->)"
                    r"|(?P<lbrace>\{)|(?P<rbrace>\})|(?P<semi>;)"
                    r"|(?P<int>[0-9]+)|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)")


@dataclass(frozen=True)
class MapSpec:
    """One parsed map: rules[i] is the image word of generator i, as a
    compact letter string (not freely reduced)."""

    name: str
    rank: int
    rules: tuple

    def to_endomorphism(self) -> Endomorphism:
        return Endomorphism.from_strings(self.rank, *self.rules)


@dataclass
class _Token:
    kind: str  # "ident" | "int" | "arrow" | "lbrace" | "rbrace" | "semi"
    text: str
    line: int
    column: int


def _tokenize(source: str):
    tokens, line, line_start, pos = [], 1, 0, 0
    while pos < len(source):
        m = _TOKEN.match(source, pos)
        if m is None:
            raise ParseError(f"unexpected character {source[pos]!r}", line, pos - line_start + 1)
        if m.lastgroup == "newline":
            line, line_start = line + 1, m.end()
        elif m.lastgroup != "skip":
            tokens.append(_Token(m.lastgroup, m.group(), line, m.start() - line_start + 1))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def _peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _fail(self, expected):
        tok = self._peek()
        if tok is None:
            last = self.tokens[-1] if self.tokens else None
            line = last.line if last else 1
            col = last.column + len(last.text) if last else 1
            raise ParseError(f"expected {expected}, got end of input", line, col)
        raise ParseError(f"expected {expected}, got {tok.text!r}", tok.line, tok.column)

    def _take(self, kind, expected):
        tok = self._peek()
        if tok is None or tok.kind != kind:
            self._fail(expected)
        self.pos += 1
        return tok

    def _keyword(self, word):
        tok = self._peek()
        if tok is None or tok.kind != "ident" or tok.text != word:
            self._fail(f"keyword '{word}'")
        self.pos += 1
        return tok

    def map_specs(self):
        specs = []
        while self._peek() is not None:
            specs.append(self._map_spec())
        return specs

    def _map_spec(self) -> MapSpec:
        self._keyword("map")
        name = self._take("ident", "map name").text
        self._keyword("rank")
        rank_tok = self._take("int", "rank")
        rank = int(rank_tok.text)
        if not (1 <= rank <= 26):
            raise ParseError(f"rank must be between 1 and 26, got {rank}",
                             rank_tok.line, rank_tok.column)
        self._take("lbrace", "'{'")
        rules = {}
        while True:
            tok = self._peek()
            if tok is None:
                self._fail("'}' or a rule")
            if tok.kind == "rbrace":
                self.pos += 1
                break
            gen_tok = self._take("ident", "generator letter")
            gen = gen_tok.text
            if len(gen) != 1 or gen not in ascii_lowercase:
                raise ParseError(f"rule must start with one lowercase letter, got {gen!r}",
                                 gen_tok.line, gen_tok.column)
            idx = ord(gen) - ord("a")
            if idx >= rank:
                raise UndeclaredGenerator(f"generator {gen!r} outside rank {rank}",
                                          gen_tok.line, gen_tok.column)
            if idx in rules:
                raise DuplicateRule(f"second rule for generator {gen!r}",
                                    gen_tok.line, gen_tok.column)
            self._take("arrow", "'->'")
            rules[idx] = self._word(rank)
        missing = [chr(ord("a") + i) for i in range(rank) if i not in rules]
        if missing:
            tok = self.tokens[self.pos - 1]
            raise ParseError(f"missing rule for generator(s) {', '.join(missing)}",
                             tok.line, tok.column)
        return MapSpec(name=name, rank=rank,
                       rules=tuple(rules[i] for i in range(rank)))

    def _word(self, rank: int) -> str:
        letters = []
        while True:
            tok = self._peek()
            if tok is None:
                self._fail("word letter or ';'")
            if tok.kind == "semi":
                self.pos += 1
                break
            if tok.kind != "ident":
                self._fail("word letter or ';'")
            for off, ch in enumerate(tok.text):
                if ch not in ascii_letters:
                    raise ParseError(f"bad word character {ch!r}",
                                     tok.line, tok.column + off)
                if ord(ch.lower()) - ord("a") >= rank:
                    raise UndeclaredGenerator(f"letter {ch!r} outside rank {rank}",
                                              tok.line, tok.column + off)
                letters.append(ch)
            self.pos += 1
        if not letters:
            raise ParseError("empty image word", tok.line, tok.column)
        return "".join(letters)


def parse(source: str):
    """Parse a map-description text into a list of MapSpec."""
    return _Parser(_tokenize(source)).map_specs()
