"""Concrete evaluation: total primitives and a call-by-value evaluator.

Semantics follow the usual total conventions: non-numbers act as 0 in
arithmetic, non-integers act as 0 in the bitwise operations, `car` and
`cdr` of non-conses are `nil`, and `nil` is the only false value.
`floor` and `mod` with a zero divisor are 0.  `expt` demands a
non-negative integer exponent.
"""

import math
from fractions import Fraction

from .errors import EvalError, StepLimitExceeded
from .lang import Call, If, Let, Quote, Var
from .values import (
    NIL,
    T,
    Cons,
    boolify,
    is_boolean_value,
    is_integer,
    is_number,
    normalize_number,
    values_equal,
)

DEFAULT_STEP_LIMIT = 10 ** 7

# widest number, sign bit included, that a binding, ash or expt may
# build; wider is refused (a symbolic shift escapes) before memory runs out
MAX_WIDTH = 1 << 16


def _fix(v):
    return v if is_number(v) else 0


def _ifix(v):
    return v if is_integer(v) else 0


def _nfix(v):
    return v if is_integer(v) and v >= 0 else 0


def _add(args):
    acc = 0
    for a in args:
        acc += _fix(a)
    return normalize_number(acc)


def _sub(args):
    if len(args) == 1:
        return normalize_number(-_fix(args[0]))
    return normalize_number(_fix(args[0]) - _fix(args[1]))


def _mul(args):
    acc = 1
    for a in args:
        acc *= _fix(a)
    return normalize_number(acc)


def _lt(args):
    return boolify(_fix(args[0]) < _fix(args[1]))


def _logcount(x):
    if not is_integer(x):
        return 0
    if x < 0:
        x = -x - 1
    return x.bit_count()


def _width(n):
    """Bits in n's two's-complement form, sign bit included."""
    return (n if n >= 0 else ~n).bit_length() + 1


def _ash(i, c):
    i, c = _ifix(i), _ifix(c)
    if c < 0:
        return i >> (-c)
    if i and _width(i) + c > MAX_WIDTH:
        raise EvalError("ash result wider than %d bits" % MAX_WIDTH)
    return i << c


def _expt(base, e):
    if not is_integer(e) or e < 0:
        raise EvalError("expt wants a non-negative integer exponent, got %r" % (e,))
    base = _fix(base)
    # |p| ** e has at least e * (bit_length(p) - 1) + 1 bits, so a
    # power that is surely too wide is refused before it is built
    if any(e * (abs(p).bit_length() - 1) >= MAX_WIDTH
           for p in (base.numerator, base.denominator)):
        raise EvalError("expt result wider than %d bits" % MAX_WIDTH)
    result = normalize_number(base ** e)
    if max(_width(result.numerator), _width(result.denominator)) > MAX_WIDTH:
        raise EvalError("expt result wider than %d bits" % MAX_WIDTH)
    return result


def _floor(a, b):
    a, b = _fix(a), _fix(b)
    if b == 0:
        return 0
    return math.floor(Fraction(a) / Fraction(b))


def _mod(a, b):
    a, b = _fix(a), _fix(b)
    if b == 0:
        return 0
    return normalize_number(a - b * _floor(a, b))


def _evenp(x):
    half = Fraction(_fix(x)) / 2
    return boolify(half.denominator == 1)


_FOLDS = {
    "logand": (lambda a, b: a & b, -1),
    "logior": (lambda a, b: a | b, 0),
    "logxor": (lambda a, b: a ^ b, 0),
}


def _logop(name, args):
    op, unit = _FOLDS[name]
    acc = unit
    for a in args:
        acc = op(acc, _ifix(a))
    return acc


# name -> (min arity, max arity or None, handler on the args list)
PRIMITIVES = {
    "+": (0, None, _add),
    "-": (1, 2, _sub),
    "*": (0, None, _mul),
    "<": (2, 2, _lt),
    "equal": (2, 2, lambda a: boolify(values_equal(a[0], a[1]))),
    "always-equal": (2, 2, lambda a: boolify(values_equal(a[0], a[1]))),
    "not": (1, 1, lambda a: boolify(a[0] is NIL)),
    "consp": (1, 1, lambda a: boolify(isinstance(a[0], Cons))),
    "integerp": (1, 1, lambda a: boolify(is_integer(a[0]))),
    "rationalp": (1, 1, lambda a: boolify(is_number(a[0]))),
    "acl2-numberp": (1, 1, lambda a: boolify(is_number(a[0]))),
    "booleanp": (1, 1, lambda a: boolify(is_boolean_value(a[0]))),
    "car": (1, 1, lambda a: a[0].car if isinstance(a[0], Cons) else NIL),
    "cdr": (1, 1, lambda a: a[0].cdr if isinstance(a[0], Cons) else NIL),
    "cons": (2, 2, lambda a: Cons(a[0], a[1])),
    "logand": (0, None, lambda a: _logop("logand", a)),
    "logior": (0, None, lambda a: _logop("logior", a)),
    "logxor": (0, None, lambda a: _logop("logxor", a)),
    "lognot": (1, 1, lambda a: ~_ifix(a[0])),
    "ash": (2, 2, lambda a: _ash(a[0], a[1])),
    "logbitp": (2, 2, lambda a: boolify((_ifix(a[1]) >> _nfix(a[0])) & 1 == 1)),
    "logcount": (1, 1, lambda a: _logcount(a[0])),
    "evenp": (1, 1, lambda a: _evenp(a[0])),
    "oddp": (1, 1, lambda a: boolify(_evenp(a[0]) is NIL)),
    "expt": (2, 2, lambda a: _expt(a[0], a[1])),
    "floor": (2, 2, lambda a: _floor(a[0], a[1])),
    "mod": (2, 2, lambda a: _mod(a[0], a[1])),
    "if-degenerate-free": (3, 3, lambda a: a[1] if a[0] is not NIL else a[2]),
}

# escape tags produced by the symbolic counterparts resolve to these
PRIMITIVE_ALIASES = {"binary-+": "+", "binary-*": "*"}


def apply_primitive(name, args):
    """Apply a primitive to concrete values; total and deterministic."""
    name = PRIMITIVE_ALIASES.get(name, name)
    entry = PRIMITIVES.get(name)
    if entry is None:
        raise EvalError("not a primitive: %s" % name)
    lo, hi, fn = entry
    if len(args) < lo or (hi is not None and len(args) > hi):
        raise EvalError("arity mismatch for %s: got %d arguments" % (name, len(args)))
    return fn(args)


class StepCounter:
    """Shared countdown over function expansions."""

    __slots__ = ("remaining",)

    def __init__(self, limit):
        self.remaining = limit

    def spend(self, n=1):
        self.remaining -= n
        if self.remaining < 0:
            raise StepLimitExceeded("concrete step limit exhausted")


def eval_concrete(term, env, defs, step_limit=DEFAULT_STEP_LIMIT):
    """Call-by-value evaluation of a closed term over a definition table."""
    return _eval(term, env, defs, StepCounter(step_limit))


def _eval(term, env, defs, steps):
    if isinstance(term, Quote):
        return term.value
    if isinstance(term, Var):
        try:
            return env[term.name]
        except KeyError:
            raise EvalError("unbound variable %s" % term.name) from None
    if isinstance(term, If):
        test = _eval(term.test, env, defs, steps)
        branch = term.then if test is not NIL else term.els
        return _eval(branch, env, defs, steps)
    if isinstance(term, Let):
        if term.sequential:
            scope = dict(env)
            for name, sub in term.bindings:
                scope[name] = _eval(sub, scope, defs, steps)
        else:
            scope = dict(env)
            for name, sub in term.bindings:
                scope[name] = _eval(sub, env, defs, steps)
        return _eval(term.body, scope, defs, steps)
    if isinstance(term, Call):
        args = [_eval(a, env, defs, steps) for a in term.args]
        return apply_fn(term.fn, args, defs, steps)
    raise EvalError("cannot evaluate %r" % (term,))


def apply_fn(name, args, defs, steps=None):
    """Apply a primitive or defined function to concrete values."""
    if steps is None:
        steps = StepCounter(DEFAULT_STEP_LIMIT)
    resolved = PRIMITIVE_ALIASES.get(name, name)
    if resolved in PRIMITIVES:
        return apply_primitive(resolved, args)
    defn = defs.lookup(name) if defs is not None else None
    if defn is None:
        raise EvalError("unknown function %s" % name)
    formals, body = defn
    if len(formals) != len(args):
        raise EvalError("arity mismatch for %s: wanted %d, got %d"
                        % (name, len(formals), len(args)))
    steps.spend()
    return _eval(body, dict(zip(formals, args)), defs, steps)
