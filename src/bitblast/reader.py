"""S-expression reader.

Produces values from text.  Numeric literals accept decimal, `#x`,
`#b`, `#o` radix prefixes and `n/d` rationals; characters are written
`#\\c`; `'`, `` ` `` and `,` expand to quote / quasiquote / unquote
forms.  Errors carry line and column.
"""

import re
from fractions import Fraction

from .errors import ReadError
from .values import (
    NIL,
    QUASIQUOTE,
    QUOTE,
    UNQUOTE,
    Char,
    Cons,
    Symbol,
    named_char,
    normalize_number,
)

_SUGAR = {"'": QUOTE, "`": QUASIQUOTE, ",": UNQUOTE}
_RADIX = {"x": 16, "b": 2, "o": 8}
_ESCAPES = {"n": "\n", "t": "\t"}

# Blanks are exactly space, tab, CR and LF (not `\s`, which also takes
# form feeds and Unicode spaces); a word runs up to a blank or delimiter.
_WORD = r"""[^ \t\r\n()"';`,]"""
_TOKEN_RE = re.compile("|".join([
    r"(?P<blank>(?:[ \t\r\n]+|;[^\n]*)+)",
    r"(?P<open>\()",
    r"(?P<close>\))",
    r"(?P<sugar>['`,])",
    r'(?P<string>"[^"\\]*(?:\\.[^"\\]*)*")',
    r'(?P<unterminated>")',
    r"(?P<char>#\\(?:.%s*)?)" % _WORD,
    r"(?P<radix>#[xXbBoO]%s*)" % _WORD,
    r"(?P<hash>#)",
    r"(?P<word>%s+)" % _WORD,
]), re.DOTALL)
_ESCAPE_RE = re.compile(r"\\(.)", re.DOTALL)


class _Tokenizer:
    def __init__(self, text):
        self.text = text
        self.pos = 0
        self.line = 1
        self._line_start = 0  # offset of the first character of self.line
        self._counted = 0  # newlines before this offset are in self.line

    def next_token(self):
        """Return (kind, payload, line, col) or None at end of input.

        Kinds: 'open', 'close', 'dot', 'sugar', 'atom'.
        """
        text = self.text
        m = _TOKEN_RE.match(text, self.pos)
        if m is not None and m.lastgroup == "blank":
            m = _TOKEN_RE.match(text, m.end())
        if m is None:
            return None
        start = m.start()
        newlines = text.count("\n", self._counted, start)
        if newlines:
            self.line += newlines
            self._line_start = text.rfind("\n", self._counted, start) + 1
        self._counted = start
        line, col = self.line, start - self._line_start + 1
        self.pos = m.end()
        kind, tok = m.lastgroup, m.group()
        if kind == "word":
            if tok == ".":
                return ("dot", None, line, col)
            return ("atom", _parse_atom(tok, line, col), line, col)
        if kind in ("open", "close"):
            return (kind, None, line, col)
        if kind == "sugar":
            return ("sugar", _SUGAR[tok], line, col)
        if kind == "string":
            body = tok[1:-1]
            if "\\" in body:
                body = _ESCAPE_RE.sub(lambda e: _ESCAPES.get(e[1], e[1]),
                                      body)
            return ("atom", body, line, col)
        if kind == "unterminated":
            raise ReadError("unterminated string", line, col)
        if kind == "char":
            if len(tok) == 2:
                raise ReadError("dangling character literal", line, col)
            if len(tok) == 3:
                return ("atom", Char(tok[2]), line, col)
            named = named_char(tok[2:])
            if named is None:
                raise ReadError("unknown character name %s" % tok, line, col)
            return ("atom", Char(named), line, col)
        if kind == "radix":
            base = _RADIX[tok[1].lower()]
            try:
                return ("atom", int(tok[2:], base), line, col)
            except ValueError:
                raise ReadError("bad radix-%d literal %s" % (base, tok),
                                line, col) from None
        if self.pos == len(text):
            raise ReadError("dangling #", line, col)
        raise ReadError("unsupported # syntax", line, col)


def _parse_atom(word, line, col):
    if not word:
        raise ReadError("empty token", line, col)
    try:
        return int(word, 10)
    except ValueError:
        pass
    if "/" in word:
        num, _, den = word.partition("/")
        try:
            n, d = int(num, 10), int(den, 10)
        except ValueError:
            return Symbol(word)
        if d == 0:
            raise ReadError("zero denominator in %s" % word, line, col)
        return normalize_number(Fraction(n, d))
    return Symbol(word)


def _read_one(tok, token):
    kind, payload, line, col = token
    if kind == "atom":
        return payload
    if kind == "sugar":
        nxt = tok.next_token()
        if nxt is None:
            raise ReadError("nothing after %s" % payload.name, line, col)
        return Cons(payload, Cons(_read_one(tok, nxt), NIL))
    if kind == "open":
        return _read_list(tok, line, col)
    if kind == "close":
        raise ReadError("unexpected )", line, col)
    raise ReadError("unexpected .", line, col)


def _read_list(tok, line, col):
    items = []
    tail = NIL
    while True:
        token = tok.next_token()
        if token is None:
            raise ReadError("unterminated list", line, col)
        kind = token[0]
        if kind == "close":
            break
        if kind == "dot":
            if not items:
                raise ReadError("dot at start of list", token[2], token[3])
            token = tok.next_token()
            if token is None or token[0] in ("close", "dot"):
                raise ReadError("dot needs exactly one trailing value", line, col)
            tail = _read_one(tok, token)
            closer = tok.next_token()
            if closer is None or closer[0] != "close":
                raise ReadError("expected ) after dotted tail", line, col)
            break
        items.append(_read_one(tok, token))
    out = tail
    for item in reversed(items):
        out = Cons(item, out)
    return out


def read_values_with_pos(text):
    """Read all top-level values, returning [(value, line, col)]."""
    tok = _Tokenizer(text)
    out = []
    while True:
        token = tok.next_token()
        if token is None:
            return out
        out.append((_read_one(tok, token), token[2], token[3]))


def read_values(text):
    return [v for v, _, _ in read_values_with_pos(text)]


def read_one_value(text):
    vals = read_values(text)
    if len(vals) != 1:
        raise ReadError("expected exactly one value", 1, 1)
    return vals[0]
