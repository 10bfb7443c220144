import random
import time
from fractions import Fraction

import pytest

from bitblast.engine import AigEngine, BddEngine
from bitblast.errors import EvalError, IndeterminateError, ShapeError
from bitblast.reader import read_one_value
from bitblast.symobj import (
    MAX_WIDTH,
    Concrete,
    ConsObj,
    GApply,
    GBoolean,
    GIte,
    GNumber,
    bits_to_int,
    cons_obj,
    g_int,
    int_to_bits,
    merge_ite,
    nil_possibility,
    parse_shape,
    shape_contains,
    shape_indices,
    shape_int_intervals,
    shape_to_symobj,
    shape_witness_outside,
    sym_eval,
)
from bitblast.values import NIL, T, Char, Cons, Symbol, values_equal

from helpers import all_envs


def test_bit_round_trip():
    for n in range(-300, 300):
        assert bits_to_int(int_to_bits(n)) == n
    assert int_to_bits(0) == [False]
    assert int_to_bits(-1) == [True]
    assert int_to_bits(1) == [True, False]
    assert bits_to_int([False]) == 0
    assert bits_to_int([True]) == -1  # one-bit numbers are {-1, 0}


@pytest.fixture(params=["bdd", "aig"])
def eng(request):
    return BddEngine() if request.param == "bdd" else AigEngine()


def test_symbolic_number_evaluation(eng):
    A, B = eng.var(0), eng.var(1)
    p = GNumber((eng.true, eng.false, eng.and_(A, B), eng.false))
    assert sym_eval(p, {0: True, 1: True}, eng) == 5
    assert sym_eval(p, {0: False, 1: True}, eng) == 1
    assert sym_eval(p, {0: True, 1: False}, eng) == 1


def test_ite_object_evaluation(eng):
    A, B = eng.var(0), eng.var(1)
    obj = GIte(GBoolean(A),
               GNumber((B, A, eng.false)),
               Concrete(Char("C")))
    # when A holds the number is 2 or 3; otherwise the character
    assert sym_eval(obj, {0: True, 1: False}, eng) == 2
    assert sym_eval(obj, {0: True, 1: True}, eng) == 3
    assert sym_eval(obj, {0: False, 1: True}, eng) == Char("C")


def test_cons_object_evaluation(eng):
    A, B = eng.var(0), eng.var(1)
    obj = ConsObj(Concrete(1), GBoolean(eng.and_(A, B)))
    v = sym_eval(obj, {0: True, 1: True}, eng)
    assert values_equal(v, Cons(1, T))
    v = sym_eval(obj, {0: True, 1: False}, eng)
    assert values_equal(v, Cons(1, NIL))


def test_gapply_evaluation(eng):
    # an escape evaluates its arguments, nested escapes included
    x = GNumber((eng.var(0), eng.var(1), eng.false))
    obj = GApply("+", (GApply("binary-*", (x, Concrete(2))), Concrete(2)))
    assert sym_eval(obj, {0: True, 1: True}, eng) == 8
    assert sym_eval(obj, {0: True, 1: False}, eng) == 4
    with pytest.raises(EvalError):
        sym_eval(GApply("no-such-function", (x,)), {0: True, 1: True}, eng)


def test_nil_possibility(eng):
    A, B = eng.var(0), eng.var(1)
    assert eng.is_true(nil_possibility(Concrete(NIL), eng))
    assert eng.is_false(nil_possibility(Concrete(7), eng))
    assert eng.is_false(nil_possibility(GNumber((A,)), eng))
    assert eng.is_false(nil_possibility(ConsObj(Concrete(1), Concrete(2)), eng))
    # boolean made from not(A and B) is nil exactly when A and B
    e = nil_possibility(GBoolean(eng.not_(eng.and_(A, B))), eng)
    for env in all_envs(2):
        assert eng.eval(e, env) == (env[0] and env[1])
    with pytest.raises(IndeterminateError):
        nil_possibility(GApply("f", (Concrete(1),)), eng)
    with pytest.raises(IndeterminateError):
        nil_possibility(GIte(GBoolean(A), Concrete(1),
                             GApply("f", (Concrete(1),))), eng)


def test_nil_possibility_constant_test_skips_branch(eng):
    # an escape in an unreachable branch is irrelevant
    obj = GIte(Concrete(T), Concrete(1), GApply("f", ()))
    assert eng.is_false(nil_possibility(obj, eng))


def test_nil_possibility_matches_eval(eng):
    rng = random.Random(12)
    for _ in range(40):
        obj = _random_symobj(rng, eng, 6, 3)
        try:
            e = nil_possibility(obj, eng)
        except IndeterminateError:
            continue
        for env in all_envs(6):
            assert eng.eval(e, env) == (sym_eval(obj, env, eng) is NIL)


def _random_symobj(rng, eng, nvars, depth):
    roll = rng.random()
    if depth == 0 or roll < 0.35:
        kind = rng.random()
        if kind < 0.4:
            return Concrete(rng.choice((NIL, T, 0, 5, -3, Symbol("a"))))
        if kind < 0.7:
            return GBoolean(eng.var(rng.randrange(nvars)))
        return GNumber(tuple(eng.var(rng.randrange(nvars))
                             for _ in range(rng.randrange(1, 4))))
    if roll < 0.6:
        return GIte(_random_symobj(rng, eng, nvars, depth - 1),
                    _random_symobj(rng, eng, nvars, depth - 1),
                    _random_symobj(rng, eng, nvars, depth - 1))
    return ConsObj(_random_symobj(rng, eng, nvars, depth - 1),
                   _random_symobj(rng, eng, nvars, depth - 1))


def test_merge_ite_basics(eng):
    a, b = Concrete(1), Concrete(2)
    assert merge_ite(eng, eng.true, a, b) is a
    assert merge_ite(eng, eng.false, a, b) is b
    c = eng.var(0)
    x, y = eng.var(1), eng.var(2)
    m = merge_ite(eng, c, GBoolean(x), GBoolean(y))
    assert isinstance(m, GBoolean)
    for env in all_envs(3):
        assert eng.eval(m.val, env) == (env[1] if env[0] else env[2])


def test_merge_ite_numbers_sign_extend(eng):
    c = eng.var(0)
    narrow = GNumber((eng.var(1), eng.var(2)))
    wide = GNumber((eng.var(3), eng.var(4), eng.var(5), eng.var(6)))
    m = merge_ite(eng, c, narrow, wide)
    assert isinstance(m, GNumber) and len(m.bits) == 4
    for env in all_envs(7):
        want = sym_eval(narrow if env[0] else wide, env, eng)
        assert sym_eval(m, env, eng) == want


def test_merge_ite_semantics_random(eng):
    rng = random.Random(44)
    for _ in range(60):
        a = _random_symobj(rng, eng, 5, 2)
        b = _random_symobj(rng, eng, 5, 2)
        c = eng.var(5)
        m = merge_ite(eng, c, a, b)
        for env in all_envs(6):
            want = sym_eval(a if env[5] else b, env, eng)
            assert values_equal(sym_eval(m, env, eng), want)


# -- shapes -------------------------------------------------------------------

def test_parse_shape_forms():
    s = parse_shape(read_one_value("(:g-boolean . 0)"))
    assert s.val == 0
    s = parse_shape(read_one_value("(:g-number (0 1 2))"))
    assert s.bits == (0, 1, 2)
    s = parse_shape(read_one_value("(:g-ite (:g-boolean . 11) exact . fast)"))
    assert s.test.val == 11
    s = parse_shape(read_one_value("#b0010100"))
    assert s.value == 20
    s = parse_shape(read_one_value("exact"))
    assert s.value is Symbol("exact")


def test_parse_shape_rejections():
    with pytest.raises(ShapeError):
        parse_shape(read_one_value("(:g-number ())"))
    with pytest.raises(ShapeError):
        parse_shape(read_one_value("(:g-number (0 0))"))
    with pytest.raises(ShapeError):
        parse_shape(read_one_value("(:g-ite (:g-number (0)) a . b)"))
    with pytest.raises(ShapeError):
        parse_shape(read_one_value("(:g-apply f x)"))
    with pytest.raises(ShapeError):
        parse_shape(read_one_value("(:g-var . x)"))
    with pytest.raises(ShapeError):
        parse_shape(read_one_value("(:g-number (-1))"))


def test_g_int():
    assert g_int(1, 2, 5).bits == (1, 3, 5, 7, 9)
    assert g_int(2, 2, 5).bits == (2, 4, 6, 8, 10)
    assert g_int(0, 1, 1).bits == (0,)
    assert g_int(32, -1, 33).bits == tuple(range(32, -1, -1))
    with pytest.raises(ShapeError):
        g_int(0, 1, 0)
    with pytest.raises(ShapeError):
        g_int(2, -1, 5)  # would go negative
    assert len(g_int(0, 1, MAX_WIDTH).bits) == MAX_WIDTH


def test_a_shape_repr_shows_its_own_indices():
    assert repr(g_int(0, 1, 3)) == "(:g-number (0 1 2))"
    shape = parse_shape(read_one_value("(:g-ite (:g-boolean . 3) 1/2 . nil)"))
    assert repr(shape) == "(:g-ite (:g-boolean . 3) 1/2 . nil)"


def test_g_int_width_is_refused_before_building():
    # 1.4 billion indices would take over 11 GB to build
    start = time.perf_counter()
    with pytest.raises(ShapeError, match="wider than 65536 bits"):
        g_int(0, 1, 0x55555555)
    with pytest.raises(ShapeError, match="wider than 65536 bits"):
        g_int(0, 1, MAX_WIDTH + 1)
    assert time.perf_counter() - start < 1.0


def test_shape_to_symobj(eng):
    obj = shape_to_symobj(parse_shape(read_one_value("(:g-boolean . 0)")), eng)
    assert isinstance(obj, GBoolean) and obj.val == eng.var(0)
    obj = shape_to_symobj(g_int(0, 1, 33), eng)
    assert isinstance(obj, GNumber) and len(obj.bits) == 33
    obj = shape_to_symobj(parse_shape(read_one_value("#b0010100")), eng)
    assert obj == Concrete(20)
    spec = parse_shape(read_one_value("(1 . a)"))
    assert spec == Concrete(Cons(1, Symbol("a")))
    assert shape_to_symobj(spec, eng) == spec


def test_shape_indices_collects_everything():
    # syntactic order: test, then, else; car before cdr; bits lsb first
    spec = parse_shape(read_one_value(
        "(:g-ite (:g-boolean . 7) (:g-number (0 1))"
        " . ((:g-boolean . 5) . (:g-number (3 2))))"))
    assert shape_indices(spec) == [7, 0, 1, 5, 3, 2]


# -- the values shapes cover --------------------------------------------------

def test_shape_contains_intervals_and_outside():
    spec = g_int(0, 1, 33)
    assert shape_int_intervals(spec) == [(-(1 << 32), (1 << 32) - 1)]
    assert shape_contains(spec, (1 << 32) - 1)
    assert shape_contains(spec, -(1 << 32))
    assert not shape_contains(spec, 1 << 32)
    spec = g_int(0, 1, 32)
    assert not shape_contains(spec, 1 << 31)
    assert shape_witness_outside(spec) == 1 << 31
    spec = parse_shape(read_one_value("(:g-ite (:g-boolean . 11) exact . fast)"))
    assert shape_contains(spec, Symbol("exact"))
    assert shape_contains(spec, Symbol("fast"))
    assert not shape_contains(spec, Symbol("slow"))
    assert shape_int_intervals(spec) == [] and shape_witness_outside(spec) == 0
    spec = parse_shape(read_one_value("(:g-boolean . 0)"))
    assert shape_contains(spec, T) and shape_contains(spec, NIL)
    assert not shape_contains(spec, 0)
    spec = parse_shape(read_one_value("((:g-number (0 1)) . (:g-boolean . 2))"))
    assert shape_contains(spec, Cons(1, T))
    assert not shape_contains(spec, Cons(2, T))
    assert not shape_contains(spec, 5)
    # an if-then-else shape is the union of its branches
    spec = parse_shape(read_one_value(
        "(:g-ite (:g-boolean . 0) (:g-number (1 2)) . 9)"))
    assert shape_int_intervals(spec) == [(-2, 1), (9, 9)]
    assert shape_contains(spec, -2) and shape_contains(spec, 9)
    assert not shape_contains(spec, 2) and not shape_contains(spec, 8)
    assert shape_witness_outside(spec) == 10


def test_evaluation_homomorphism(eng):
    # every evaluation lands in the shape's set, and every element of the
    # set is attained: over a universe of the attained values and their
    # neighbours, shape_contains is exactly attainment
    specs = [
        g_int(0, 1, 4),
        parse_shape(read_one_value("(:g-boolean . 0)")),
        parse_shape(read_one_value("(:g-ite (:g-boolean . 3) exact . fast)")),
        parse_shape(read_one_value("((:g-number (0 1 2)) . (:g-boolean . 3))")),
        parse_shape(read_one_value("#b0010100")),
        parse_shape(read_one_value(
            "(:g-ite (:g-boolean . 0) (:g-number (1 2)) . (3 . exact))")),
    ]
    universe = (list(range(-12, 24)) + [Fraction(1, 2), T, NIL]
                + [Symbol(n) for n in ("exact", "fast", "slow")]
                + [Cons(i, b) for i in range(-6, 6)
                   for b in (T, NIL, Symbol("exact"))])
    for spec in specs:
        obj = shape_to_symobj(spec, eng)
        idxs = shape_indices(spec)
        nvars = max(idxs) + 1 if idxs else 0
        attained = []
        for env in all_envs(nvars):
            v = sym_eval(obj, env, eng)
            assert shape_contains(spec, v)
            if not any(values_equal(v, u) for u in attained):
                attained.append(v)
        for u in universe:
            assert shape_contains(spec, u) == any(values_equal(u, v)
                                                  for v in attained), (spec, u)
        for lo, hi in shape_int_intervals(spec):
            for n in range(lo, hi + 1):
                assert any(values_equal(n, v) for v in attained), (spec, n)


def test_cons_obj_guards_reserved_tags():
    plain = cons_obj(Concrete(1), Concrete(2))
    assert isinstance(plain, Concrete)
    tagged = cons_obj(Concrete(Symbol(":g-boolean")), Concrete(0))
    assert isinstance(tagged, ConsObj)  # stays structural, not Concrete
