"""Term language: abstract syntax, surface-syntax translation, and the
definition environment.

Surface forms `and`, `or`, `cond`, `<=`, `>=` and `>` are expanded at
parse time into the core grammar (quote / var / if / let / call).  A
small prelude of ordinary definitions (`atom`, `unsigned-byte-p`,
`evenp`, `member`, ...) is installed in every base environment.
"""

import functools
from fractions import Fraction

from .errors import FileFormatError
from .reader import read_values
from .values import (
    NIL,
    QUOTE,
    T,
    Char,
    Cons,
    Symbol,
    cons_list,
    list_elements,
    print_value,
)


class Term:
    __slots__ = ()


class Quote(Term):
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def __repr__(self):
        return "Quote(%s)" % print_value(self.value)


class Var(Term):
    __slots__ = ("name",)

    def __init__(self, name):
        self.name = name

    def __repr__(self):
        return "Var(%s)" % self.name


class If(Term):
    __slots__ = ("test", "then", "els")

    def __init__(self, test, then, els):
        self.test = test
        self.then = then
        self.els = els

    def __repr__(self):
        return "If(%r, %r, %r)" % (self.test, self.then, self.els)


class Let(Term):
    __slots__ = ("bindings", "body", "sequential")

    def __init__(self, bindings, body, sequential):
        self.bindings = list(bindings)
        self.body = body
        self.sequential = sequential

    def __repr__(self):
        return "Let(%r, %r, seq=%r)" % (self.bindings, self.body, self.sequential)


class Call(Term):
    __slots__ = ("fn", "args")

    def __init__(self, fn, args):
        self.fn = fn
        self.args = list(args)

    def __repr__(self):
        return "Call(%s, %r)" % (self.fn, self.args)


_SELF_EVALUATING = (int, Fraction, str, Char)


def parse_term(value):
    """Translate a surface s-expression into a Term."""
    if isinstance(value, Symbol):
        if value is T or value is NIL or value.name.startswith(":"):
            return Quote(value)
        return Var(value.name)
    if isinstance(value, _SELF_EVALUATING):
        return Quote(value)
    if not isinstance(value, Cons):
        raise FileFormatError("cannot parse term: %s" % print_value(value))
    items, tail = list_elements(value)
    if tail is not NIL:
        raise FileFormatError("dotted call form: %s" % print_value(value))
    head = items[0]
    if not isinstance(head, Symbol):
        raise FileFormatError("call head must be a symbol: %s" % print_value(value))
    name = head.name
    args = items[1:]
    if name == "quote":
        if len(args) != 1:
            raise FileFormatError("quote wants one argument")
        return Quote(args[0])
    if name == "if":
        if len(args) != 3:
            raise FileFormatError("if wants three arguments: %s" % print_value(value))
        return If(parse_term(args[0]), parse_term(args[1]), parse_term(args[2]))
    if name in ("let", "let*"):
        return _parse_let(args, sequential=(name == "let*"), src=value)
    if name == "and":
        if not args:
            return Quote(T)
        out = parse_term(args[-1])
        for a in reversed(args[:-1]):
            out = If(parse_term(a), out, Quote(NIL))
        return out
    if name == "or":
        if not args:
            return Quote(NIL)
        out = parse_term(args[-1])
        for a in reversed(args[:-1]):
            t = parse_term(a)
            out = If(t, t, out)
        return out
    if name == "cond":
        return _parse_cond(args, src=value)
    if name == "<=":
        if len(args) != 2:
            raise FileFormatError("<= wants two arguments")
        return Call("not", [Call("<", [parse_term(args[1]), parse_term(args[0])])])
    if name == ">=":
        if len(args) != 2:
            raise FileFormatError(">= wants two arguments")
        return Call("not", [Call("<", [parse_term(args[0]), parse_term(args[1])])])
    if name == ">":
        if len(args) != 2:
            raise FileFormatError("> wants two arguments")
        return Call("<", [parse_term(args[1]), parse_term(args[0])])
    return Call(name, [parse_term(a) for a in args])


def _parse_let(args, sequential, src):
    if len(args) != 2:
        raise FileFormatError("let wants bindings and one body: %s" % print_value(src))
    binding_forms, tail = list_elements(args[0])
    if tail is not NIL:
        raise FileFormatError("malformed let bindings: %s" % print_value(src))
    bindings = []
    for form in binding_forms:
        pair, ptail = list_elements(form)
        if ptail is not NIL or len(pair) != 2 or not isinstance(pair[0], Symbol):
            raise FileFormatError("malformed let binding: %s" % print_value(form))
        bindings.append((pair[0].name, parse_term(pair[1])))
    if not sequential:
        names = [n for n, _ in bindings]
        if len(set(names)) != len(names):
            raise FileFormatError("duplicate let binding: %s" % print_value(src))
    return Let(bindings, parse_term(args[1]), sequential)


def _parse_cond(clauses, src):
    if not clauses:
        return Quote(NIL)
    clause, tail = list_elements(clauses[0])
    if tail is not NIL or len(clause) != 2:
        raise FileFormatError("malformed cond clause: %s" % print_value(src))
    test, body = clause
    if test is T:
        return parse_term(body)
    return If(parse_term(test), parse_term(body), _parse_cond(clauses[1:], src))


def term_to_value(term):
    """Unparse a Term back to an s-expression value."""
    if isinstance(term, Quote):
        v = term.value
        if v is T or v is NIL or isinstance(v, _SELF_EVALUATING):
            return v
        if isinstance(v, Symbol) and v.name.startswith(":"):
            return v
        return cons_list(QUOTE, v)
    if isinstance(term, Var):
        return Symbol(term.name)
    if isinstance(term, If):
        return cons_list(Symbol("if"), term_to_value(term.test),
                         term_to_value(term.then), term_to_value(term.els))
    if isinstance(term, Let):
        head = Symbol("let*" if term.sequential else "let")
        forms = cons_list(*[cons_list(Symbol(n), term_to_value(t))
                            for n, t in term.bindings])
        return cons_list(head, forms, term_to_value(term.body))
    if isinstance(term, Call):
        return cons_list(Symbol(term.fn), *[term_to_value(a) for a in term.args])
    raise TypeError("not a term: %r" % (term,))


def render_term(term):
    return print_value(term_to_value(term))


def free_vars(term):
    """Free variable names of a term."""
    out = set()
    _free_vars(term, frozenset(), out)
    return out


def _free_vars(term, bound, out):
    if isinstance(term, Var):
        if term.name not in bound:
            out.add(term.name)
    elif isinstance(term, If):
        _free_vars(term.test, bound, out)
        _free_vars(term.then, bound, out)
        _free_vars(term.els, bound, out)
    elif isinstance(term, Let):
        if term.sequential:
            for name, sub in term.bindings:
                _free_vars(sub, bound, out)
                bound = bound | {name}
        else:
            for _, sub in term.bindings:
                _free_vars(sub, bound, out)
            bound = bound | {n for n, _ in term.bindings}
        _free_vars(term.body, bound, out)
    elif isinstance(term, Call):
        for a in term.args:
            _free_vars(a, bound, out)


def substitute(term, mapping):
    """Replace free occurrences of the mapped variables with the mapped
    terms.  A let binding shadows its name in the body and, for `let*`,
    in the bindings after it.  Variables free in the replacement terms
    are not renamed away from the let's bound names."""
    if isinstance(term, Quote):
        return term
    if isinstance(term, Var):
        return mapping.get(term.name, term)
    if isinstance(term, If):
        return If(substitute(term.test, mapping),
                  substitute(term.then, mapping),
                  substitute(term.els, mapping))
    if isinstance(term, Let):
        live = dict(mapping)
        if term.sequential:
            bindings = []
            for name, sub in term.bindings:
                bindings.append((name, substitute(sub, live)))
                live.pop(name, None)
        else:
            bindings = [(n, substitute(s, mapping)) for n, s in term.bindings]
            for n, _ in term.bindings:
                live.pop(n, None)
        return Let(bindings, substitute(term.body, live), term.sequential)
    if isinstance(term, Call):
        return Call(term.fn, [substitute(a, mapping) for a in term.args])
    raise TypeError("not a term: %r" % (term,))


def substitute_constants(term, mapping):
    """Replace free occurrences of the mapped variables with quoted values."""
    return substitute(term, {k: Quote(v) for k, v in mapping.items()})


# --- definition environment -------------------------------------------------

PRIMITIVE_NAMES = frozenset({
    "+", "-", "*", "<", "equal", "not", "consp", "integerp", "rationalp",
    "acl2-numberp", "booleanp", "car", "cdr", "cons", "logand", "logior",
    "logxor", "lognot", "ash", "logbitp", "logcount", "evenp", "oddp",
    "expt", "floor", "mod", "if-degenerate-free", "always-equal",
})

# evenp/oddp also carry ordinary definitions (see the prelude) so that
# symbolic execution can expand them; everything else is reserved.
_NON_SHADOWABLE = PRIMITIVE_NAMES - {"evenp", "oddp"}


class DefEnv:
    """Immutable-by-convention table of function definitions."""

    def __init__(self):
        self._defs = {}

    def define(self, name, formals, body, system=False):
        if name in self._defs:
            raise FileFormatError("duplicate definition of %s" % name)
        reserved = _NON_SHADOWABLE if system else PRIMITIVE_NAMES
        if name in reserved:
            raise FileFormatError("cannot redefine primitive %s" % name)
        if len(set(formals)) != len(formals):
            raise FileFormatError("duplicate formal in %s" % name)
        extra = free_vars(body) - set(formals)
        if extra:
            raise FileFormatError(
                "free variables %s in body of %s" % (sorted(extra), name))
        self._defs[name] = (tuple(formals), body)

    def lookup(self, name):
        return self._defs.get(name)

    def __contains__(self, name):
        return name in self._defs

    def names(self):
        return self._defs.keys()

    def copy(self):
        env = DefEnv.__new__(DefEnv)
        env._defs = dict(self._defs)
        return env


def parse_defun(items):
    """Parse the payload of a (defun name (formals...) body) form."""
    if len(items) != 3:
        raise FileFormatError("defun wants name, formals, body")
    name, formals_v, body_v = items
    if not isinstance(name, Symbol):
        raise FileFormatError("defun name must be a symbol")
    formals, tail = list_elements(formals_v)
    if tail is not NIL or not all(isinstance(f, Symbol) for f in formals):
        raise FileFormatError("malformed formals in %s" % name.name)
    return name.name, [f.name for f in formals], parse_term(body_v)


_PRELUDE_SRC = """
(defun atom (x) (not (consp x)))
(defun null (x) (not x))
(defun eq (x y) (equal x y))
(defun eql (x y) (equal x y))
(defun implies (p q) (if p (if q t nil) t))
(defun iff (p q) (if p (if q t nil) (if q nil t)))
(defun 1+ (x) (+ x 1))
(defun 1- (x) (- x 1))
(defun natp (x) (and (integerp x) (<= 0 x)))
(defun posp (x) (and (integerp x) (< 0 x)))
(defun min (x y) (if (< x y) x y))
(defun max (x y) (if (< x y) y x))
(defun abs (x) (if (< x 0) (- x) x))
(defun unsigned-byte-p (bits x)
  (and (integerp bits) (<= 0 bits)
       (integerp x) (<= 0 x) (< x (expt 2 bits))))
(defun signed-byte-p (bits x)
  (and (integerp bits) (< 0 bits)
       (integerp x)
       (<= (- (expt 2 (1- bits))) x)
       (< x (expt 2 (1- bits)))))
(defun evenp (x) (integerp (* x 1/2)))
(defun oddp (x) (not (evenp x)))
(defun member (x lst)
  (if (consp lst)
      (if (equal x (car lst)) lst (member x (cdr lst)))
    nil))
"""


@functools.cache
def _prelude():
    env = DefEnv()
    for form in read_values(_PRELUDE_SRC):
        items, _ = list_elements(form)
        name, formals, body = parse_defun(items[1:])
        env.define(name, formals, body, system=True)
    return env


def base_env():
    """A fresh DefEnv holding the prelude definitions.

    The prelude is parsed once per process; each call returns its own
    copy, so `define` on one environment never reaches another.  Sharing
    the parsed bodies is safe because terms are not mutated after
    construction.
    """
    return _prelude().copy()
