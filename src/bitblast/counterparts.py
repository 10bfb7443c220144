"""Symbolic counterparts: bit-level implementations of the primitives
over symbolic objects.

Arithmetic treats syntactic non-numbers (booleans, conses, symbols) as
0; the bitwise operations additionally treat rationals as 0.  When an
operand's shape cannot be decided (an escape node, or a rational where
integer bits are required), the counterpart emits an opaque
function-call escape rather than guessing.  Widths never truncate:
addition yields one extra bit, multiplication the sum of the operand
widths.

`ash` and `logbitp` take every count, constant or symbolic, through
one log shifter (`_barrel`): per count bit, a constant shift by a power
of two, muxed in only where the bit is symbolic.  A negative count c
shifts right by one and then by its complemented low bits, which sum
to -c - 1; the count's sign bit picks the direction.  `logbitp` runs
the stages from the top index bit down, each over only the bits that
the stages below it can still bring to bit 0.
"""

from .concrete import MAX_WIDTH, PRIMITIVE_ALIASES, PRIMITIVES, apply_primitive
from .errors import EvalError, IndeterminateError
from .values import NIL, T, Cons, is_boolean_value, is_integer, is_number
from .symobj import (
    Concrete,
    ConsObj,
    GApply,
    GBoolean,
    GIte,
    GNumber,
    as_bool_expr,
    as_cons_parts,
    bool_obj,
    cons_obj,
    const_bits,
    merge_ite,
    nil_possibility,
    number_obj,
    sign_extend,
    truth_expr,
)


class SymbolicContext:
    """Engine handle plus the escape hook counterparts consult."""

    def __init__(self, eng, on_g_apply=None):
        self.eng = eng
        self.on_g_apply = on_g_apply

    def g_apply(self, fn, args):
        if self.on_g_apply is not None:
            self.on_g_apply(fn, args)  # may abort via GApplyBreak
        return GApply(fn, tuple(args))


def _is_escape(obj):
    return isinstance(obj, GApply)


def _arith_bits(obj, eng):
    """Two's-complement bits under number coercion (non-numbers are 0);
    None when the operand needs an escape (rational or opaque)."""
    if isinstance(obj, GNumber):
        return obj.bits
    if isinstance(obj, Concrete):
        if is_integer(obj.value):
            return const_bits(obj.value, eng)
        if is_number(obj.value):
            return None  # non-integer rational: no bit form
        return (eng.false,)
    if isinstance(obj, (GBoolean, ConsObj)):
        return (eng.false,)
    return None


def _int_bits(obj, eng):
    """Bits under integer coercion: every non-integer acts as 0."""
    if isinstance(obj, Concrete) and not is_integer(obj.value):
        return (eng.false,)
    return _arith_bits(obj, eng)


# -- adders -------------------------------------------------------------------

def _ripple(eng, xs, ys, cin, width):
    """width-bit two's-complement sum of sign-extended operands."""
    xs = sign_extend(xs, width)
    ys = sign_extend(ys, width)
    carry = cin
    out = []
    for i in range(width):
        a, b = xs[i], ys[i]
        axb = eng.xor_(a, b)
        out.append(eng.xor_(axb, carry))
        carry = eng.or_(eng.and_(a, b), eng.and_(carry, axb))
    return tuple(out)


def _add_bits(eng, xs, ys):
    return _ripple(eng, xs, ys, eng.false, max(len(xs), len(ys)) + 1)


def _sub_bits(eng, xs, ys):
    w = max(len(xs), len(ys)) + 1
    neg = tuple(eng.not_(b) for b in sign_extend(ys, w))
    return _ripple(eng, sign_extend(xs, w), neg, eng.true, w)


def _mul_bits(eng, xs, ys):
    """Shift-and-add product.  Row i adds (x AND y_i) << i, so it ripples
    only through columns i and up; a constant-false y_i adds nothing.

    Rows are added from the top row down.  For a constant y such as
    #x0101...01, the running sum after rows k and up holds in its byte
    j the sum of x's bytes 0..j-k: one function for every (j, k) with
    the same j - k, so later ripples hit the BDD computed cache.  Bottom
    up, byte j holds the sum of bytes j-k..j, a new function for each
    (j, k), and the 64-bit popcount proof takes a quarter more nodes."""
    w = len(xs) + len(ys)
    xs_w = sign_extend(xs, w)
    acc = [eng.false] * w
    for i in range(len(ys) - 1, -1, -1):
        yb = ys[i]
        if yb == eng.false:
            continue
        partial = [eng.and_(b, yb) for b in xs_w[:w - i]]
        if i == len(ys) - 1:  # sign bit carries negative weight
            neg = [eng.not_(b) for b in partial]
            acc[i:] = _ripple(eng, acc[i:], neg, eng.true, w - i)
        else:
            acc[i:] = _ripple(eng, acc[i:], partial, eng.false, w - i)
    return tuple(acc)


# -- operations ---------------------------------------------------------------

def _add_impl(ctx, args):
    eng = ctx.eng
    if not args:
        return Concrete(0)
    bit_lists = [_arith_bits(a, eng) for a in args]
    if any(b is None for b in bit_lists):
        return ctx.g_apply("binary-+", args)
    acc = bit_lists[0]
    for bs in bit_lists[1:]:
        acc = _add_bits(eng, acc, bs)
    return number_obj(acc, eng)


def _sub_impl(ctx, args):
    eng = ctx.eng
    bit_lists = [_arith_bits(a, eng) for a in args]
    if any(b is None for b in bit_lists):
        return ctx.g_apply("-", args)
    if len(bit_lists) == 1:
        zero = (eng.false,)
        return number_obj(_sub_bits(eng, zero, bit_lists[0]), eng)
    return number_obj(_sub_bits(eng, bit_lists[0], bit_lists[1]), eng)


def _mul_impl(ctx, args):
    eng = ctx.eng
    if not args:
        return Concrete(1)
    bit_lists = [_arith_bits(a, eng) for a in args]
    if any(b is None for b in bit_lists):
        return ctx.g_apply("binary-*", args)
    acc = bit_lists[0]
    for bs in bit_lists[1:]:
        acc = _mul_bits(eng, acc, bs)
    return number_obj(acc, eng)


def _lt_impl(ctx, args):
    eng = ctx.eng
    xa, xb = _arith_bits(args[0], eng), _arith_bits(args[1], eng)
    if xa is None or xb is None:
        return ctx.g_apply("<", args)
    diff = _sub_bits(eng, xa, xb)
    return bool_obj(diff[-1], eng)


_NUMBERISH = "number"
_BOOLISH = "boolean"
_CONSISH = "cons"
_ATOMISH = "atom"


def _equal_class(obj):
    if isinstance(obj, GNumber):
        return _NUMBERISH
    if isinstance(obj, GBoolean):
        return _BOOLISH
    if isinstance(obj, ConsObj):
        return _CONSISH
    if isinstance(obj, Concrete):
        v = obj.value
        if is_integer(v):
            return _NUMBERISH
        if is_boolean_value(v):
            return _BOOLISH
        if isinstance(v, Cons):
            return _CONSISH
        return _ATOMISH
    return None


def _equal_impl(ctx, args):
    eng = ctx.eng
    a, b = args
    if isinstance(a, Concrete) and isinstance(b, Concrete):
        return Concrete(apply_primitive("equal", [a.value, b.value]))
    if _is_escape(a) or _is_escape(b):
        return ctx.g_apply("equal", args)
    ca, cb = _equal_class(a), _equal_class(b)
    if ca != cb or ca == _ATOMISH:
        # distinct type classes are never equal; atom/atom pairs were
        # both Concrete and got decided above
        return Concrete(NIL)
    if ca == _NUMBERISH:
        xa, xb = _int_bits(a, eng), _int_bits(b, eng)
        w = max(len(xa), len(xb))
        xa, xb = sign_extend(xa, w), sign_extend(xb, w)
        acc = eng.true
        for p, q in zip(xa, xb):
            acc = eng.and_(acc, eng.iff_(p, q))
        return bool_obj(acc, eng)
    if ca == _BOOLISH:
        return bool_obj(eng.iff_(as_bool_expr(a, eng), as_bool_expr(b, eng)),
                        eng)
    # cons pairs: recurse and conjoin
    (a_car, a_cdr), (b_car, b_cdr) = as_cons_parts(a), as_cons_parts(b)
    e1 = as_bool_expr(apply_counterpart(ctx, "equal", [a_car, b_car]), eng)
    e2 = as_bool_expr(apply_counterpart(ctx, "equal", [a_cdr, b_cdr]), eng)
    if e1 is None or e2 is None:
        return ctx.g_apply("equal", args)
    return bool_obj(eng.and_(e1, e2), eng)


def _not_impl(ctx, args):
    try:
        return bool_obj(nil_possibility(args[0], ctx.eng), ctx.eng)
    except IndeterminateError:
        return ctx.g_apply("not", args)


def _recognizer_impl(name, on_number, on_boolean, on_cons):
    def impl(ctx, args):
        x = args[0]
        if isinstance(x, Concrete):
            return Concrete(apply_primitive(name, [x.value]))
        if isinstance(x, GNumber):
            return Concrete(on_number)
        if isinstance(x, GBoolean):
            return Concrete(on_boolean)
        if isinstance(x, ConsObj):
            return Concrete(on_cons)
        return ctx.g_apply(name, args)
    return impl


def _car_impl(ctx, args):
    x = args[0]
    if isinstance(x, ConsObj):
        return x.car
    if isinstance(x, Concrete):
        return Concrete(apply_primitive("car", [x.value]))
    if isinstance(x, (GNumber, GBoolean)):
        return Concrete(NIL)
    return ctx.g_apply("car", args)


def _cdr_impl(ctx, args):
    x = args[0]
    if isinstance(x, ConsObj):
        return x.cdr
    if isinstance(x, Concrete):
        return Concrete(apply_primitive("cdr", [x.value]))
    if isinstance(x, (GNumber, GBoolean)):
        return Concrete(NIL)
    return ctx.g_apply("cdr", args)


def _cons_impl(ctx, args):
    return cons_obj(args[0], args[1])


_LOG_UNITS = {"logand": -1, "logior": 0, "logxor": 0}
_LOG_OPS = {"logand": "and_", "logior": "or_", "logxor": "xor_"}


def _logop_impl(name):
    def impl(ctx, args):
        eng = ctx.eng
        bit_lists = [_int_bits(a, eng) for a in args]
        if any(b is None for b in bit_lists):
            return ctx.g_apply(name, args)
        op = getattr(eng, _LOG_OPS[name])
        acc = const_bits(_LOG_UNITS[name], eng)
        for bs in bit_lists:
            w = max(len(acc), len(bs))
            acc = tuple(op(p, q)
                        for p, q in zip(sign_extend(acc, w), sign_extend(bs, w)))
        return number_obj(acc, eng)
    return impl


def _lognot_impl(ctx, args):
    eng = ctx.eng
    bs = _int_bits(args[0], eng)
    if bs is None:
        return ctx.g_apply("lognot", args)
    return number_obj(tuple(eng.not_(b) for b in bs), eng)


def _shift_const(bits, c, eng):
    if c >= 0:
        return (eng.false,) * c + tuple(bits)
    k = -c
    if k >= len(bits):
        return (bits[-1],)
    return tuple(bits[k:])


def _barrel(eng, bits, count, step, on=True):
    """Log shifter: one stage per count bit j, shifting by step * 2**j
    places where the bit equals `on`.  A constant bit skips its stage
    or shifts outright; only a symbolic one costs a mux."""
    for j, c in enumerate(count):
        if eng.is_true(c) or eng.is_false(c):
            if eng.is_true(c) == on:
                bits = _shift_const(bits, step << j, eng)
            continue
        moved = _shift_const(bits, step << j, eng)
        w = max(len(bits), len(moved))
        pairs = zip(sign_extend(moved, w), sign_extend(bits, w))
        bits = tuple(eng.ite(c, a, b) if on else eng.ite(c, b, a)
                     for a, b in pairs)
    return bits


def _ash_impl(ctx, args):
    eng = ctx.eng
    x, cnt = args
    xbits = _int_bits(x, eng)
    if xbits is None:
        return ctx.g_apply("ash", args)
    cbits = _int_bits(cnt, eng)
    if cbits is None:
        return ctx.g_apply("ash", args)
    low, sign = cbits[:-1], cbits[-1]
    reach = sum(1 << j for j, b in enumerate(low) if not eng.is_false(b))
    if not eng.is_true(sign) and len(xbits) + reach > MAX_WIDTH:
        return ctx.g_apply("ash", args)
    left = None if eng.is_true(sign) else number_obj(
        _barrel(eng, xbits, low, 1), eng)
    # a negative count c has -c = 1 + (lognot of its low bits)
    right = None if eng.is_false(sign) else number_obj(_barrel(
        eng, _shift_const(xbits, -1, eng), low, -1, on=False), eng)
    return merge_ite(eng, sign, right, left)


def _logbitp_impl(ctx, args):
    eng = ctx.eng
    i, x = args
    xbits = _int_bits(x, eng)
    if xbits is None:
        return ctx.g_apply("logbitp", args)
    ibits = _int_bits(i, eng)
    if ibits is None:
        return ctx.g_apply("logbitp", args)
    low, sign = ibits[:-1], ibits[-1]
    # a negative index reads bit 0 (nfix)
    neg = None if eng.is_false(sign) else bool_obj(xbits[0], eng)
    nonneg = None
    if not eng.is_true(sign):
        # stage j and those below it bring no bit from 2 << j up to bit 0
        for j in reversed(range(len(low))):
            xbits = _barrel(eng, xbits[:2 << j], low[j:j + 1], -(1 << j))
        nonneg = bool_obj(xbits[0], eng)
    return merge_ite(eng, sign, neg, nonneg)


def _logcount_impl(ctx, args):
    eng = ctx.eng
    bs = _int_bits(args[0], eng)
    if bs is None:
        return ctx.g_apply("logcount", args)
    # Sum the counted bits as a balanced tree, adding adjacent pairs at
    # each level.  Its partial sums count aligned runs of bits: the same
    # functions as the fields of a SWAR popcount and some partial sums
    # of a bit-serial one, so an AIG sweep can merge them with the
    # circuit under proof.  A one-bit-at-a-time chain shares none.
    sign = bs[-1]
    terms = ([(eng.xor_(b, sign), eng.false) for b in bs[:-1]]
             or [(eng.false,)])
    while len(terms) > 1:
        paired = [_add_bits(eng, terms[i], terms[i + 1])
                  for i in range(0, len(terms) - 1, 2)]
        if len(terms) % 2:
            paired.append(terms[-1])
        terms = paired
    return number_obj(terms[0], eng)


def _expt_impl(ctx, args):
    eng = ctx.eng
    base, e = args
    if not isinstance(e, Concrete):
        return ctx.g_apply("expt", args)
    if not is_integer(e.value) or e.value < 0:
        raise EvalError("expt wants a non-negative integer exponent, got %r"
                        % (e.value,))
    bbits = _arith_bits(base, eng)
    if bbits is None:
        return ctx.g_apply("expt", args)
    if len(bbits) * max(e.value, 1) > 256:
        return ctx.g_apply("expt", args)
    acc = const_bits(1, eng)
    for _ in range(e.value):
        acc = _mul_bits(eng, acc, bbits)
    return number_obj(acc, eng)


def _escape_only_impl(name):
    def impl(ctx, args):
        return ctx.g_apply(name, args)
    return impl


def _if_degenerate_free_impl(ctx, args):
    try:
        tt = truth_expr(args[0], ctx.eng)
    except IndeterminateError:
        return ctx.g_apply("if-degenerate-free", args)
    return merge_ite(ctx.eng, tt, args[1], args[2])


def _always_equal_impl(ctx, args):
    eng = ctx.eng
    eq = apply_counterpart(ctx, "equal", list(args))
    if isinstance(eq, GApply):
        return ctx.g_apply("always-equal", args)
    phi = as_bool_expr(eq, eng)
    if eng.valid(phi):
        return Concrete(T)
    not_phi = eng.not_(phi)
    support = sorted(eng.support(not_phi))
    env = eng.witness(not_phi, "zeros", support)
    cube = eng.true
    for i in support:
        lit = eng.var(i) if env[i] else eng.not_(eng.var(i))
        cube = eng.and_(cube, lit)
    if eng.is_true(cube):  # equality is constantly false
        return Concrete(NIL)
    return GIte(GBoolean(cube), Concrete(NIL),
                ctx.g_apply("always-equal", args))


# name -> counterpart; arities come from concrete.PRIMITIVES
_HANDLERS = {
    "+": _add_impl,
    "-": _sub_impl,
    "*": _mul_impl,
    "<": _lt_impl,
    "equal": _equal_impl,
    "not": _not_impl,
    "consp": _recognizer_impl("consp", NIL, NIL, T),
    "integerp": _recognizer_impl("integerp", T, NIL, NIL),
    "rationalp": _recognizer_impl("rationalp", T, NIL, NIL),
    "acl2-numberp": _recognizer_impl("acl2-numberp", T, NIL, NIL),
    "booleanp": _recognizer_impl("booleanp", NIL, T, NIL),
    "car": _car_impl,
    "cdr": _cdr_impl,
    "cons": _cons_impl,
    "logand": _logop_impl("logand"),
    "logior": _logop_impl("logior"),
    "logxor": _logop_impl("logxor"),
    "lognot": _lognot_impl,
    "ash": _ash_impl,
    "logbitp": _logbitp_impl,
    "logcount": _logcount_impl,
    "expt": _expt_impl,
    "floor": _escape_only_impl("floor"),
    "mod": _escape_only_impl("mod"),
    "if-degenerate-free": _if_degenerate_free_impl,
    "always-equal": _always_equal_impl,
}

# the escape tags that differ from the name
_ESCAPE_NAMES = {name: tag for tag, name in PRIMITIVE_ALIASES.items()}

# structure-preserving ops where pushing through branch objects would
# only lose sharing
_NO_DISTRIBUTE = {"cons", "not", "if-degenerate-free"}


def has_counterpart(name):
    return name in _HANDLERS


def apply_counterpart(ctx, name, args):
    """Run the counterpart for `name`, distributing over if-then-else
    objects in the arguments first."""
    lo, hi, _ = PRIMITIVES[name]
    if len(args) < lo or (hi is not None and len(args) > hi):
        raise EvalError("arity mismatch for %s: got %d arguments"
                        % (name, len(args)))
    if name not in _NO_DISTRIBUTE:
        for i, a in enumerate(args):
            if isinstance(a, GIte):
                try:
                    tt = truth_expr(a.test, ctx.eng)
                except IndeterminateError:
                    return ctx.g_apply(_ESCAPE_NAMES.get(name, name), args)
                if ctx.eng.is_true(tt):
                    return apply_counterpart(
                        ctx, name, args[:i] + [a.then] + args[i + 1:])
                if ctx.eng.is_false(tt):
                    return apply_counterpart(
                        ctx, name, args[:i] + [a.els] + args[i + 1:])
                then = apply_counterpart(
                    ctx, name, args[:i] + [a.then] + args[i + 1:])
                els = apply_counterpart(
                    ctx, name, args[:i] + [a.els] + args[i + 1:])
                return merge_ite(ctx.eng, tt, then, els)
    return _HANDLERS[name](ctx, args)
