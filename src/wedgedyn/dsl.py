"""Textual map descriptions.

    map phi2 rank 2 {
      a -> a a a b ;
      b -> b b b a ;
    }

Lowercase letters are generators, uppercase their inverses, whitespace
between word letters optional, `#` comments to end of line. A file may
declare several maps, each under its own name. Names, numbers and words
are ASCII only.
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


def _tokenize(source: str) -> list:
    """The tokens of source as (kind, text, line, column) tuples, with kind
    one of "ident", "int", "arrow", "lbrace", "rbrace", "semi"."""
    tokens, line, line_start, pos = [], 1, 0, 0
    while pos < len(source):
        m = _TOKEN.match(source, pos)
        if m is None:
            raise ParseError(f"unexpected character {source[pos]!r}", line, pos - line_start + 1)
        if m.lastgroup == "newline":
            line, line_start = line + 1, m.end()
        elif m.lastgroup != "skip":
            tokens.append((m.lastgroup, m.group(), line, m.start() - line_start + 1))
        pos = m.end()
    return tokens


def parse(source: str) -> list:
    """Parse a map-description text into a list of MapSpec."""
    tokens = _tokenize(source)
    # where "end of input" is reported: just past the last token
    end = (tokens[-1][2], tokens[-1][3] + len(tokens[-1][1])) if tokens else (1, 1)
    pos = 0

    def take(expected, kind=None, text=None):
        """The next token, which must have kind and text where they are
        given; else a ParseError saying that expected was expected."""
        nonlocal pos
        if pos == len(tokens):
            raise ParseError(f"expected {expected}, got end of input", *end)
        tok = tokens[pos]
        if kind not in (None, tok[0]) or text not in (None, tok[1]):
            raise ParseError(f"expected {expected}, got {tok[1]!r}", *tok[2:])
        pos += 1
        return tok

    specs, names = [], set()
    while pos < len(tokens):
        take("keyword 'map'", "ident", "map")
        _, name, line, col = take("map name", "ident")
        if name in names:
            raise ParseError(f"second map named {name!r}", line, col)
        names.add(name)
        take("keyword 'rank'", "ident", "rank")
        _, text, line, col = take("rank", "int")
        rank = int(text)
        if not (1 <= rank <= 26):
            raise ParseError(f"rank must be between 1 and 26, got {rank}", line, col)
        take("'{'", "lbrace")
        rules = {}
        while (tok := take("'}' or a rule"))[0] != "rbrace":
            kind, gen, line, col = tok
            if kind != "ident":
                raise ParseError(f"expected generator letter, got {gen!r}", line, col)
            if len(gen) != 1 or gen not in ascii_lowercase:
                raise ParseError(f"rule must start with one lowercase letter, got {gen!r}",
                                 line, col)
            idx = ord(gen) - ord("a")
            if idx >= rank:
                raise UndeclaredGenerator(f"generator {gen!r} outside rank {rank}", line, col)
            if idx in rules:
                raise DuplicateRule(f"second rule for generator {gen!r}", line, col)
            take("'->'", "arrow")
            letters = []
            while (tok := take("word letter or ';'"))[0] != "semi":
                kind, text, line, col = tok
                if kind != "ident":
                    raise ParseError(f"expected word letter or ';', got {text!r}", line, col)
                for off, ch in enumerate(text):
                    if ch not in ascii_letters:
                        raise ParseError(f"bad word character {ch!r}", line, col + off)
                    if ord(ch.lower()) - ord("a") >= rank:
                        raise UndeclaredGenerator(f"letter {ch!r} outside rank {rank}",
                                                  line, col + off)
                letters.append(text)
            if not letters:
                raise ParseError("empty image word", *tok[2:])
            rules[idx] = "".join(letters)
        missing = [chr(ord("a") + i) for i in range(rank) if i not in rules]
        if missing:
            raise ParseError(f"missing rule for generator(s) {', '.join(missing)}", *tok[2:])
        specs.append(MapSpec(name=name, rank=rank, rules=tuple(rules[i] for i in range(rank))))
    return specs
