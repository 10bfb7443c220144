import random

import pytest

from bitblast.engine import AigEngine, BddEngine
from bitblast.errors import EvalError, IndeterminateError, ShapeError
from bitblast.reader import read_one_value
from bitblast.symobj import (
    BoolRange,
    Concrete,
    ConsObj,
    FiniteSet,
    GApply,
    GBoolean,
    GIte,
    GNumber,
    ProductCons,
    SignedInt,
    bits_to_int,
    cons_obj,
    descriptor_contains,
    descriptor_witness_outside,
    g_int,
    int_to_bits,
    merge_ite,
    nil_possibility,
    parse_shape,
    shape_coverage_descriptor,
    shape_indices,
    shape_to_symobj,
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
    assert s.index == 0
    s = parse_shape(read_one_value("(:g-number (0 1 2))"))
    assert s.indices == (0, 1, 2)
    s = parse_shape(read_one_value("(:g-ite (:g-boolean . 11) exact . fast)"))
    assert s.test.index == 11
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
    assert g_int(1, 2, 5).indices == (1, 3, 5, 7, 9)
    assert g_int(2, 2, 5).indices == (2, 4, 6, 8, 10)
    assert g_int(0, 1, 1).indices == (0,)
    assert g_int(32, -1, 33).indices == tuple(range(32, -1, -1))
    with pytest.raises(ShapeError):
        g_int(0, 1, 0)
    with pytest.raises(ShapeError):
        g_int(2, -1, 5)  # would go negative


def test_shape_to_symobj(eng):
    obj = shape_to_symobj(parse_shape(read_one_value("(:g-boolean . 0)")), eng)
    assert isinstance(obj, GBoolean) and obj.val == eng.var(0)
    obj = shape_to_symobj(g_int(0, 1, 33), eng)
    assert isinstance(obj, GNumber) and len(obj.bits) == 33
    obj = shape_to_symobj(parse_shape(read_one_value("#b0010100")), eng)
    assert obj == Concrete(20)


def test_shape_indices_collects_everything():
    spec = parse_shape(read_one_value(
        "(:g-ite (:g-boolean . 7) (:g-number (0 1)) . (:g-number (2 3)))"))
    assert sorted(shape_indices(spec)) == [0, 1, 2, 3, 7]


# -- coverage descriptors -----------------------------------------------------

def test_descriptors():
    d = shape_coverage_descriptor(g_int(0, 1, 33))
    assert isinstance(d, SignedInt) and d.width == 33
    assert descriptor_contains(d, (1 << 32) - 1)
    assert descriptor_contains(d, -(1 << 32))
    assert not descriptor_contains(d, 1 << 32)
    d = shape_coverage_descriptor(g_int(0, 1, 32))
    assert not descriptor_contains(d, 1 << 31)
    assert descriptor_witness_outside(d) == 1 << 31
    d = shape_coverage_descriptor(parse_shape(read_one_value(
        "(:g-ite (:g-boolean . 11) exact . fast)")))
    assert isinstance(d, FiniteSet)
    assert descriptor_contains(d, Symbol("exact"))
    assert descriptor_contains(d, Symbol("fast"))
    assert not descriptor_contains(d, Symbol("slow"))
    d = shape_coverage_descriptor(parse_shape(read_one_value("(:g-boolean . 0)")))
    assert isinstance(d, BoolRange)
    assert descriptor_contains(d, T) and descriptor_contains(d, NIL)
    assert not descriptor_contains(d, 0)
    d = shape_coverage_descriptor(parse_shape(read_one_value(
        "((:g-number (0 1)) . (:g-boolean . 2))")))
    assert isinstance(d, ProductCons)
    assert descriptor_contains(d, Cons(1, T))
    assert not descriptor_contains(d, Cons(2, T))
    assert not descriptor_contains(d, 5)


def test_evaluation_homomorphism(eng):
    # every evaluation lands in the descriptor set, and for small widths
    # every descriptor element is attained
    specs = [
        g_int(0, 1, 4),
        parse_shape(read_one_value("(:g-boolean . 0)")),
        parse_shape(read_one_value("(:g-ite (:g-boolean . 3) exact . fast)")),
        parse_shape(read_one_value("((:g-number (0 1 2)) . (:g-boolean . 3))")),
        parse_shape(read_one_value("#b0010100")),
    ]
    for spec in specs:
        d = shape_coverage_descriptor(spec)
        obj = shape_to_symobj(spec, eng)
        idxs = shape_indices(spec)
        nvars = max(idxs) + 1 if idxs else 0
        attained = []
        for env in all_envs(nvars):
            v = sym_eval(obj, env, eng)
            assert descriptor_contains(d, v)
            if not any(values_equal(v, u) for u in attained):
                attained.append(v)
        if isinstance(d, SignedInt):
            lo, hi = -(1 << (d.width - 1)), (1 << (d.width - 1)) - 1
            assert sorted(attained) == list(range(lo, hi + 1))
        elif isinstance(d, (FiniteSet, BoolRange)):
            want = d.values if isinstance(d, FiniteSet) else (T, NIL)
            assert len(attained) == len(want)
            for u in want:
                assert any(values_equal(u, v) for v in attained)


def test_cons_obj_guards_reserved_tags():
    plain = cons_obj(Concrete(1), Concrete(2))
    assert isinstance(plain, Concrete)
    tagged = cons_obj(Concrete(Symbol(":g-boolean")), Concrete(0))
    assert isinstance(tagged, ConsObj)  # stays structural, not Concrete
