"""Symbolic objects, shape specs, and coverage descriptors.

A symbolic object denotes a set of concrete values: Boolean
expressions sit in the bit positions of numbers (`GNumber`, lsb first,
last bit the sign) and in the truth slot of booleans (`GBoolean`).
`GIte` selects between objects, `ConsObj` pairs them, and `GApply` is
the opaque function-call escape.  A `Concrete` object just represents
its value.

Shape specs are the binding syntax: the same grammar with distinct
natural-number variable indices in place of the Boolean expressions
(escapes are not expressible).
"""

from .concrete import apply_fn
from .errors import IndeterminateError, ShapeError
from .values import (
    NIL,
    RESERVED_TAGS,
    T,
    Cons,
    Symbol,
    boolify,
    contains_reserved_tag,
    is_integer,
    list_elements,
    print_value,
    values_equal,
)


class SymObj:
    __slots__ = ()

    def __repr__(self):
        return render_symobj(self)


class Concrete(SymObj):
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def __eq__(self, other):
        return isinstance(other, Concrete) and values_equal(self.value, other.value)

    def __hash__(self):
        return hash(("concrete", self.value))


class GBoolean(SymObj):
    __slots__ = ("val",)

    def __init__(self, val):
        self.val = val

    def __eq__(self, other):
        return isinstance(other, GBoolean) and self.val == other.val

    def __hash__(self):
        return hash(("gbool", self.val))


class GNumber(SymObj):
    __slots__ = ("bits",)

    def __init__(self, bits):
        bits = tuple(bits)
        if not bits:
            raise ValueError("zero-width number object")
        self.bits = bits

    def __eq__(self, other):
        return isinstance(other, GNumber) and self.bits == other.bits

    def __hash__(self):
        return hash(("gnum", self.bits))


class GIte(SymObj):
    __slots__ = ("test", "then", "els")

    def __init__(self, test, then, els):
        self.test = test
        self.then = then
        self.els = els

    def __eq__(self, other):
        return (isinstance(other, GIte) and self.test == other.test
                and self.then == other.then and self.els == other.els)

    def __hash__(self):
        return hash(("gite", self.test, self.then, self.els))


class GApply(SymObj):
    __slots__ = ("fn", "args")

    def __init__(self, fn, args):
        self.fn = fn
        self.args = tuple(args)

    def __eq__(self, other):
        return (isinstance(other, GApply) and self.fn == other.fn
                and self.args == other.args)

    def __hash__(self):
        return hash(("gapply", self.fn, self.args))


class ConsObj(SymObj):
    __slots__ = ("car", "cdr")

    def __init__(self, car, cdr):
        self.car = car
        self.cdr = cdr

    def __eq__(self, other):
        return (isinstance(other, ConsObj) and self.car == other.car
                and self.cdr == other.cdr)

    def __hash__(self):
        return hash(("consobj", self.car, self.cdr))


def cons_obj(car, cdr):
    """Pair two objects, collapsing to Concrete when that stays
    unambiguous (no symbolic-object tag in car position)."""
    if isinstance(car, Concrete) and isinstance(cdr, Concrete):
        v = Cons(car.value, cdr.value)
        if not contains_reserved_tag(v):
            return Concrete(v)
    return ConsObj(car, cdr)


# -- bit plumbing -------------------------------------------------------------

def int_to_bits(n):
    """Minimal-width two's-complement bits, lsb first, last bit the sign."""
    bits = []
    while n != 0 and n != -1:
        bits.append(bool(n & 1))
        n >>= 1
    bits.append(n == -1)
    return bits


def bits_to_int(bools):
    out = 0
    w = len(bools)
    for i in range(w - 1):
        if bools[i]:
            out += 1 << i
    if bools[w - 1]:
        out -= 1 << (w - 1)
    return out


def sign_extend(bits, width):
    if len(bits) >= width:
        return tuple(bits)
    return tuple(bits) + (bits[-1],) * (width - len(bits))


def const_bits(n, eng):
    return tuple(eng.const(b) for b in int_to_bits(n))


def number_obj(bits, eng):
    """A GNumber, collapsed to Concrete when every bit is constant."""
    vals = []
    for b in bits:
        if eng.is_true(b):
            vals.append(True)
        elif eng.is_false(b):
            vals.append(False)
        else:
            return GNumber(bits)
    return Concrete(bits_to_int(vals))


def bool_obj(expr, eng):
    if eng.is_true(expr):
        return Concrete(T)
    if eng.is_false(expr):
        return Concrete(NIL)
    return GBoolean(expr)


# -- evaluation ---------------------------------------------------------------

def sym_eval(obj, benv, eng, defs=None):
    """Evaluate a symbolic object to a concrete value.

    benv maps Boolean variable indices to booleans (total over the
    object's support), and defs resolves functions inside escapes.
    """
    if isinstance(obj, Concrete):
        return obj.value
    if isinstance(obj, GBoolean):
        return boolify(eng.eval(obj.val, benv))
    if isinstance(obj, GNumber):
        return bits_to_int([eng.eval(b, benv) for b in obj.bits])
    if isinstance(obj, GIte):
        test = sym_eval(obj.test, benv, eng, defs)
        branch = obj.then if test is not NIL else obj.els
        return sym_eval(branch, benv, eng, defs)
    if isinstance(obj, ConsObj):
        return Cons(sym_eval(obj.car, benv, eng, defs),
                    sym_eval(obj.cdr, benv, eng, defs))
    if isinstance(obj, GApply):
        args = [sym_eval(a, benv, eng, defs) for a in obj.args]
        return apply_fn(obj.fn, args, defs)
    raise TypeError("not a symbolic object: %r" % (obj,))


def nil_possibility(obj, eng):
    """The Boolean expression that is true exactly where the object
    evaluates to nil; raises IndeterminateError at escapes on a
    relevant path."""
    if isinstance(obj, Concrete):
        return eng.const(obj.value is NIL)
    if isinstance(obj, GBoolean):
        return eng.not_(obj.val)
    if isinstance(obj, (GNumber, ConsObj)):
        return eng.const(False)
    if isinstance(obj, GIte):
        test_true = eng.not_(nil_possibility(obj.test, eng))
        if eng.is_true(test_true):
            return nil_possibility(obj.then, eng)
        if eng.is_false(test_true):
            return nil_possibility(obj.els, eng)
        return eng.ite(test_true,
                       nil_possibility(obj.then, eng),
                       nil_possibility(obj.els, eng))
    if isinstance(obj, GApply):
        raise IndeterminateError(obj)
    raise TypeError("not a symbolic object: %r" % (obj,))


def truth_expr(obj, eng):
    """Expression true exactly where the object is non-nil."""
    return eng.not_(nil_possibility(obj, eng))


# -- if-merging ---------------------------------------------------------------

def as_bool_expr(obj, eng):
    if isinstance(obj, GBoolean):
        return obj.val
    if isinstance(obj, Concrete):
        if obj.value is T:
            return eng.true
        if obj.value is NIL:
            return eng.false
    return None


def _as_number_bits(obj, eng):
    if isinstance(obj, GNumber):
        return obj.bits
    if isinstance(obj, Concrete) and is_integer(obj.value):
        return const_bits(obj.value, eng)
    return None


def as_cons_parts(obj):
    if isinstance(obj, ConsObj):
        return obj.car, obj.cdr
    if isinstance(obj, Concrete) and isinstance(obj.value, Cons):
        return Concrete(obj.value.car), Concrete(obj.value.cdr)
    return None


def merge_ite(eng, test, then, els):
    """Select between two objects on a Boolean expression, merging
    structurally where possible: booleans merge bit-wise, numbers merge
    per bit after sign extension, conses merge field-wise; anything
    else becomes an explicit if-then-else object."""
    if eng.is_true(test):
        return then
    if eng.is_false(test):
        return els
    if then is els:
        return then
    if (isinstance(then, Concrete) and isinstance(els, Concrete)
            and values_equal(then.value, els.value)):
        return then
    bt, be = as_bool_expr(then, eng), as_bool_expr(els, eng)
    if bt is not None and be is not None:
        return bool_obj(eng.ite(test, bt, be), eng)
    nt, ne = _as_number_bits(then, eng), _as_number_bits(els, eng)
    if nt is not None and ne is not None:
        w = max(len(nt), len(ne))
        nt, ne = sign_extend(nt, w), sign_extend(ne, w)
        return number_obj(tuple(eng.ite(test, a, b) for a, b in zip(nt, ne)), eng)
    ct, ce = as_cons_parts(then), as_cons_parts(els)
    if ct is not None and ce is not None:
        return cons_obj(merge_ite(eng, test, ct[0], ce[0]),
                        merge_ite(eng, test, ct[1], ce[1]))
    return GIte(GBoolean(test), then, els)


# -- rendering ----------------------------------------------------------------

def render_symobj(obj, eng=None):
    """Compact diagnostic rendering; non-constant bits print as #."""
    def expr(e):
        if eng is not None:
            if eng.is_true(e):
                return "t"
            if eng.is_false(e):
                return "nil"
        elif e in (0, 1, -1):  # constants in either realization
            return "t" if e == 1 else "nil"
        return "#"

    if isinstance(obj, Concrete):
        return print_value(obj.value)
    if isinstance(obj, GBoolean):
        return "(:g-boolean . %s)" % expr(obj.val)
    if isinstance(obj, GNumber):
        return "(:g-number (%s))" % " ".join(expr(b) for b in obj.bits)
    if isinstance(obj, GIte):
        return "(:g-ite %s %s . %s)" % (render_symobj(obj.test, eng),
                                        render_symobj(obj.then, eng),
                                        render_symobj(obj.els, eng))
    if isinstance(obj, GApply):
        return "(:g-apply %s %s)" % (obj.fn,
                                     " ".join(render_symobj(a, eng)
                                              for a in obj.args))
    if isinstance(obj, ConsObj):
        return "(%s . %s)" % (render_symobj(obj.car, eng),
                              render_symobj(obj.cdr, eng))
    return repr(obj)


def map_symobj_exprs(obj, fn):
    """Rebuild an object with fn applied to every Boolean expression."""
    if isinstance(obj, Concrete):
        return obj
    if isinstance(obj, GBoolean):
        return GBoolean(fn(obj.val))
    if isinstance(obj, GNumber):
        return GNumber(tuple(fn(b) for b in obj.bits))
    if isinstance(obj, GIte):
        return GIte(map_symobj_exprs(obj.test, fn),
                    map_symobj_exprs(obj.then, fn),
                    map_symobj_exprs(obj.els, fn))
    if isinstance(obj, GApply):
        return GApply(obj.fn, tuple(map_symobj_exprs(a, fn) for a in obj.args))
    if isinstance(obj, ConsObj):
        return ConsObj(map_symobj_exprs(obj.car, fn),
                       map_symobj_exprs(obj.cdr, fn))
    raise TypeError("not a symbolic object: %r" % (obj,))


# -- shape specs --------------------------------------------------------------

class ShapeSpec:
    __slots__ = ()


class ShapeBool(ShapeSpec):
    __slots__ = ("index",)

    def __init__(self, index):
        self.index = index

    def __repr__(self):
        return "(:g-boolean . %d)" % self.index


class ShapeNum(ShapeSpec):
    __slots__ = ("indices",)

    def __init__(self, indices):
        indices = tuple(indices)
        if not indices:
            raise ShapeError("zero-width number shape")
        if len(set(indices)) != len(indices):
            raise ShapeError("duplicate index in number shape")
        for i in indices:
            if not is_integer(i) or i < 0:
                raise ShapeError("shape indices must be naturals: %r" % (i,))
        self.indices = indices

    def __repr__(self):
        return "(:g-number (%s))" % " ".join(str(i) for i in self.indices)


class ShapeIte(ShapeSpec):
    __slots__ = ("test", "then", "els")

    def __init__(self, test, then, els):
        if not isinstance(test, ShapeBool):
            raise ShapeError("shape if-then-else test must be a boolean shape")
        self.test = test
        self.then = then
        self.els = els

    def __repr__(self):
        return "(:g-ite %r %r . %r)" % (self.test, self.then, self.els)


class ShapeCons(ShapeSpec):
    __slots__ = ("car", "cdr")

    def __init__(self, car, cdr):
        self.car = car
        self.cdr = cdr

    def __repr__(self):
        return "(%r . %r)" % (self.car, self.cdr)


class ShapeConcrete(ShapeSpec):
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def __repr__(self):
        return print_value(self.value)


_TAG_BOOL = Symbol(":g-boolean")
_TAG_NUM = Symbol(":g-number")
_TAG_ITE = Symbol(":g-ite")


def parse_shape(v):
    """Translate a binding s-expression (or an already-built spec) into
    a ShapeSpec."""
    if isinstance(v, ShapeSpec):
        return v
    if isinstance(v, Cons):
        head = v.car
        if head is _TAG_BOOL:
            if not is_integer(v.cdr):
                raise ShapeError("boolean shape wants one index: %s" % print_value(v))
            if v.cdr < 0:
                raise ShapeError("shape indices must be naturals")
            return ShapeBool(v.cdr)
        if head is _TAG_NUM:
            args, tail = list_elements(v.cdr)
            if tail is not NIL or len(args) != 1:
                raise ShapeError("number shape wants one index list: %s"
                                 % print_value(v))
            idxs, itail = list_elements(args[0])
            if itail is not NIL:
                raise ShapeError("malformed index list: %s" % print_value(v))
            return ShapeNum(idxs)
        if head is _TAG_ITE:
            if not isinstance(v.cdr, Cons) or not isinstance(v.cdr.cdr, Cons):
                raise ShapeError("malformed if-then-else shape: %s" % print_value(v))
            test = parse_shape(v.cdr.car)
            then = parse_shape(v.cdr.cdr.car)
            els = parse_shape(v.cdr.cdr.cdr)
            return ShapeIte(test, then, els)
        if head in RESERVED_TAGS:
            raise ShapeError("%s is not expressible in bindings" % head.name)
        return ShapeCons(parse_shape(v.car), parse_shape(v.cdr))
    return ShapeConcrete(v)


def g_int(start, by, n):
    """A number shape of n bits whose indices start at `start` and step
    by `by` (negative steps allowed as long as indices stay natural)."""
    if n < 1:
        raise ShapeError("number shape needs at least one bit")
    if by == 0:
        raise ShapeError("index step must be nonzero")
    return ShapeNum(tuple(start + i * by for i in range(n)))


def shape_indices(spec):
    """All variable indices inside a shape, in syntactic order."""
    out = []
    if isinstance(spec, ShapeBool):
        out.append(spec.index)
    elif isinstance(spec, ShapeNum):
        out.extend(spec.indices)
    elif isinstance(spec, ShapeIte):
        out.extend(shape_indices(spec.test))
        out.extend(shape_indices(spec.then))
        out.extend(shape_indices(spec.els))
    elif isinstance(spec, ShapeCons):
        out.extend(shape_indices(spec.car))
        out.extend(shape_indices(spec.cdr))
    return out


def shape_to_symobj(spec, eng):
    """Instantiate a shape: every index becomes that engine variable."""
    if isinstance(spec, ShapeBool):
        return GBoolean(eng.var(spec.index))
    if isinstance(spec, ShapeNum):
        return GNumber(tuple(eng.var(i) for i in spec.indices))
    if isinstance(spec, ShapeIte):
        return GIte(shape_to_symobj(spec.test, eng),
                    shape_to_symobj(spec.then, eng),
                    shape_to_symobj(spec.els, eng))
    if isinstance(spec, ShapeCons):
        return cons_obj(shape_to_symobj(spec.car, eng),
                        shape_to_symobj(spec.cdr, eng))
    if isinstance(spec, ShapeConcrete):
        return Concrete(spec.value)
    raise TypeError("not a shape spec: %r" % (spec,))


# -- coverage descriptors -----------------------------------------------------

class SignedInt:
    """Exactly the integers in [-2^(w-1), 2^(w-1)-1]."""

    __slots__ = ("width",)

    def __init__(self, width):
        self.width = width

    def __repr__(self):
        return "SignedInt(%d)" % self.width


class BoolRange:
    __slots__ = ()

    def __repr__(self):
        return "BoolRange"


class FiniteSet:
    __slots__ = ("values",)

    def __init__(self, values):
        self.values = tuple(values)

    def __repr__(self):
        return "FiniteSet{%s}" % ", ".join(print_value(v) for v in self.values)


class ProductCons:
    __slots__ = ("car", "cdr")

    def __init__(self, car, cdr):
        self.car = car
        self.cdr = cdr

    def __repr__(self):
        return "ProductCons(%r, %r)" % (self.car, self.cdr)


class IteUnion:
    __slots__ = ("parts",)

    def __init__(self, parts):
        self.parts = tuple(parts)

    def __repr__(self):
        return "IteUnion(%s)" % ", ".join(repr(p) for p in self.parts)


def shape_coverage_descriptor(spec):
    """The computable set-of-representable-values abstraction."""
    if isinstance(spec, ShapeNum):
        return SignedInt(len(spec.indices))
    if isinstance(spec, ShapeBool):
        return BoolRange()
    if isinstance(spec, ShapeConcrete):
        return FiniteSet([spec.value])
    if isinstance(spec, ShapeCons):
        return ProductCons(shape_coverage_descriptor(spec.car),
                           shape_coverage_descriptor(spec.cdr))
    if isinstance(spec, ShapeIte):
        parts = [shape_coverage_descriptor(spec.then),
                 shape_coverage_descriptor(spec.els)]
        flat = []
        for p in parts:
            flat.extend(p.parts if isinstance(p, IteUnion) else [p])
        if all(isinstance(p, FiniteSet) for p in flat):
            merged = []
            for p in flat:
                for v in p.values:
                    if not any(values_equal(v, u) for u in merged):
                        merged.append(v)
            return FiniteSet(merged)
        return IteUnion(flat)
    raise TypeError("not a shape spec: %r" % (spec,))


def descriptor_contains(d, value):
    if isinstance(d, SignedInt):
        half = 1 << (d.width - 1)
        return is_integer(value) and -half <= value < half
    if isinstance(d, BoolRange):
        return value is T or value is NIL
    if isinstance(d, FiniteSet):
        return any(values_equal(value, v) for v in d.values)
    if isinstance(d, ProductCons):
        return (isinstance(value, Cons)
                and descriptor_contains(d.car, value.car)
                and descriptor_contains(d.cdr, value.cdr))
    if isinstance(d, IteUnion):
        return any(descriptor_contains(p, value) for p in d.parts)
    raise TypeError("not a descriptor: %r" % (d,))


def descriptor_int_intervals(d):
    """Closed integer intervals the descriptor covers (unmerged)."""
    if isinstance(d, SignedInt):
        half = 1 << (d.width - 1)
        return [(-half, half - 1)]
    if isinstance(d, FiniteSet):
        return [(v, v) for v in d.values if is_integer(v)]
    if isinstance(d, IteUnion):
        out = []
        for p in d.parts:
            out.extend(descriptor_int_intervals(p))
        return out
    return []


def descriptor_witness_outside(d):
    """A value just outside the descriptor's set."""
    intervals = descriptor_int_intervals(d)
    if intervals:
        return max(hi for _, hi in intervals) + 1
    n = 0
    while descriptor_contains(d, n):
        n += 1
    return n
