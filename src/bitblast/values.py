"""The concrete value universe: integers, rationals, characters,
interned symbols, strings, and cons pairs.

Rationals are always reduced with a positive denominator; a rational
with denominator 1 is normalized to an integer, so `Fraction` values
are never integer-valued.  Python bools never appear as values; the
boolean objects are the symbols `t` and `nil`.
"""

from fractions import Fraction


class Symbol:
    """An interned symbol; equal symbols are the identical object."""

    __slots__ = ("name",)
    _table = {}

    def __new__(cls, name):
        sym = cls._table.get(name)
        if sym is None:
            sym = object.__new__(cls)
            object.__setattr__(sym, "name", name)
            cls._table[name] = sym
        return sym

    def __setattr__(self, key, value):
        raise AttributeError("symbols are immutable")

    def __repr__(self):
        return self.name


NIL = Symbol("nil")
T = Symbol("t")

QUOTE = Symbol("quote")
QUASIQUOTE = Symbol("quasiquote")
UNQUOTE = Symbol("unquote")

RESERVED_TAGS = frozenset(
    Symbol(n) for n in (":g-boolean", ":g-number", ":g-ite", ":g-apply", ":g-var")
)


class Char:
    """A single character, distinct from one-character strings."""

    __slots__ = ("ch",)

    def __init__(self, ch):
        if len(ch) != 1:
            raise ValueError("Char wants exactly one character")
        self.ch = ch

    def __eq__(self, other):
        return isinstance(other, Char) and other.ch == self.ch

    def __hash__(self):
        return hash(("char", self.ch))

    def __repr__(self):
        return print_value(self)


class Cons:
    __slots__ = ("car", "cdr")

    def __init__(self, car, cdr):
        self.car = car
        self.cdr = cdr

    def __eq__(self, other):
        a, b = self, other
        # walk the cdr spine iteratively; cars recurse (trees are shallow)
        while isinstance(a, Cons) and isinstance(b, Cons):
            if not values_equal(a.car, b.car):
                return False
            a, b = a.cdr, b.cdr
        if isinstance(a, Cons) or isinstance(b, Cons):
            return False
        return values_equal(a, b)

    def __hash__(self):
        h = 0x9E3779B9
        node = self
        while isinstance(node, Cons):
            h = hash((h, hash(node.car)))
            node = node.cdr
        return hash((h, hash(node)))

    def __repr__(self):
        return print_value(self)


def values_equal(a, b):
    """Structural, decidable equality on values."""
    if a is b:
        return True
    return a == b


def normalize_number(x):
    """Collapse integer-valued rationals to ints."""
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return int(x)
        return x
    return x


def is_number(v):
    return isinstance(v, (int, Fraction)) and not isinstance(v, bool)


def is_integer(v):
    return isinstance(v, int) and not isinstance(v, bool)


def is_boolean_value(v):
    return v is T or v is NIL


def boolify(flag):
    return T if flag else NIL


def cons_list(*items, tail=NIL):
    """Build a (possibly improper) list value."""
    out = tail
    for item in reversed(items):
        out = Cons(item, out)
    return out


def list_elements(v):
    """Split a value into its proper-list prefix and final cdr."""
    items = []
    while isinstance(v, Cons):
        items.append(v.car)
        v = v.cdr
    return items, v


def contains_reserved_tag(v):
    """True if any car position inside v holds a symbolic-object tag."""
    stack = [v]
    while stack:
        node = stack.pop()
        while isinstance(node, Cons):
            if node.car in RESERVED_TAGS:
                return True
            stack.append(node.car)
            node = node.cdr
    return False


_CHAR_NAMES = {" ": "Space", "\n": "Newline", "\t": "Tab", "\r": "Return"}
_NAMED_CHARS = {name.lower(): ch for ch, name in _CHAR_NAMES.items()}


def named_char(name):
    """Look up #\\Space-style character names (case-insensitive)."""
    return _NAMED_CHARS.get(name.lower())


def print_value(v, other=None):
    """Render a value as s-expression text; reparsing yields an equal value.
    `other`, if given, renders each leaf that is not a value."""
    if isinstance(v, Symbol):
        return v.name
    if isinstance(v, int):
        return str(v)
    if isinstance(v, Fraction):
        return "%d/%d" % (v.numerator, v.denominator)
    if isinstance(v, Char):
        return "#\\" + _CHAR_NAMES.get(v.ch, v.ch)
    if isinstance(v, str):
        return '"' + v.replace("\\", "\\\\").replace('"', '\\"') + '"'
    if isinstance(v, Cons):
        parts = []
        node = v
        while isinstance(node, Cons):
            parts.append(print_value(node.car, other))
            node = node.cdr
        if node is NIL:
            return "(" + " ".join(parts) + ")"
        return "(" + " ".join(parts) + " . " + print_value(node, other) + ")"
    if other is not None:
        return other(v)
    raise TypeError("not a value: %r" % (v,))
