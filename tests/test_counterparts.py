from fractions import Fraction

import pytest

from bitblast.cli import run_file
from bitblast.concrete import apply_primitive
from bitblast.counterparts import SymbolicContext, apply_counterpart
from bitblast.engine import AigEngine, BddEngine
from bitblast.errors import GApplyBreak
from bitblast.symobj import (
    Concrete,
    ConsObj,
    GApply,
    GBoolean,
    GIte,
    GNumber,
    g_int,
    shape_to_symobj,
    sym_eval,
)
from bitblast.values import NIL, T, values_equal

from helpers import all_envs, counterpart_oracle_suite


@pytest.fixture(params=["bdd", "aig"])
def eng(request):
    return BddEngine() if request.param == "bdd" else AigEngine()


@pytest.fixture
def ctx(eng):
    return SymbolicContext(eng)


def test_add_paper_values(ctx, eng):
    A, B = eng.var(0), eng.var(1)
    p = GNumber((eng.true, eng.false, eng.and_(A, B), eng.false))
    q = apply_counterpart(ctx, "+", [p, Concrete(1)])
    assert {sym_eval(q, env, eng) for env in all_envs(2)} == {2, 6}
    r = GNumber((A, eng.false, eng.true, eng.false))
    s = apply_counterpart(ctx, "+", [q, r])
    assert {sym_eval(s, env, eng) for env in all_envs(2)} == {6, 7, 11}
    z = apply_counterpart(ctx, "+", [Concrete(0), Concrete(0)])
    assert z == Concrete(0)


def test_add_one_exact_bits_canonical():
    # in the canonical engine the incremented number has exactly the
    # expected bit expressions: (false true A&B false ...)
    eng = BddEngine()
    ctx = SymbolicContext(eng)
    A, B = eng.var(0), eng.var(1)
    p = GNumber((eng.true, eng.false, eng.and_(A, B), eng.false))
    q = apply_counterpart(ctx, "+", [p, Concrete(1)])
    assert q.bits[0] == eng.false
    assert q.bits[1] == eng.true
    assert q.bits[2] == eng.and_(A, B)
    assert all(b == eng.false for b in q.bits[3:])


def test_boolean_coerces_to_zero(ctx, eng):
    b = GBoolean(eng.var(0))
    r = apply_counterpart(ctx, "+", [b, Concrete(3)])
    for env in all_envs(1):
        assert sym_eval(r, env, eng) == 3


def test_mul_escape_and_zero(ctx, eng):
    x = GNumber(tuple(eng.var(i) for i in range(4)))
    m = apply_counterpart(ctx, "*", [Concrete(Fraction(1, 2)), x])
    assert isinstance(m, GApply) and m.fn == "binary-*"
    assert values_equal(m.args[0].value, Fraction(1, 2))
    z = apply_counterpart(ctx, "*", [Concrete(0), x])
    for env in all_envs(4):
        assert sym_eval(z, env, eng) == 0


def test_mul_exhaustive_4x4(ctx, eng):
    x = GNumber(tuple(eng.var(i) for i in range(4)))
    y = GNumber(tuple(eng.var(i) for i in range(4, 8)))
    m = apply_counterpart(ctx, "*", [x, y])
    assert isinstance(m, GNumber) and len(m.bits) == 8
    for env in all_envs(8):
        assert sym_eval(m, env, eng) == \
            sym_eval(x, env, eng) * sym_eval(y, env, eng)


@pytest.mark.parametrize("const", [0, 1, 2, 16, 64, 3, 5, 0x55, 109,
                                   -1, -2, -8, -3, -7, -86])
def test_mul_by_constant_exhaustive_signed_widths(ctx, eng, const):
    # as the right operand, the constant's false bits are partial-product
    # rows the multiplier skips; as the left one they fold inside each row
    for width in range(1, 7):
        x = shape_to_symobj(g_int(0, 1, width), eng)
        for args in ([x, Concrete(const)], [Concrete(const), x]):
            m = apply_counterpart(ctx, "*", args)
            for env in all_envs(width):
                v = sym_eval(x, env, eng)
                assert sym_eval(m, env, eng) == v * const, (width, v, args)


@pytest.mark.parametrize("wx", range(1, 6))
def test_mul_symbolic_exhaustive_signed_widths(ctx, eng, wx):
    # both operands symbolic and signed, in both orders: the sign row
    # is the first row added, and a width-1 operand is its sign row only;
    # wy >= wx with both orders covers every pair of widths
    x = shape_to_symobj(g_int(0, 1, wx), eng)
    for wy in range(wx, 6):
        y = shape_to_symobj(g_int(wx, 1, wy), eng)
        xy = apply_counterpart(ctx, "*", [x, y])
        yx = apply_counterpart(ctx, "*", [y, x])
        for env in all_envs(wx + wy):
            want = sym_eval(x, env, eng) * sym_eval(y, env, eng)
            assert sym_eval(xy, env, eng) == want, (wx, wy, env)
            assert sym_eval(yx, env, eng) == want, (wx, wy, env)


def test_fast_logcount_64_bdd_nodes(corpus):
    # the 64-bit proof is mostly its 64* product; skipping the zero rows
    # of the constant multiplier took it from 62 739 nodes to 59 131, and
    # adding the rows from the top down to 47 195
    report = run_file(str(corpus / "fast_logcount_64.lisp"), mode="bdd")
    (thm,) = [e for e in report.events if e.kind == "theorem"]
    assert thm.result["status"] == "proved"
    assert thm.stats["nodes"] <= 50_000


def test_mul_comm_8_bdd_nodes(tmp_path):
    # interleaved operands; top-down rows took it from 159 689 nodes to
    # 64 412, where bottom-up sums share no partial sums across rows
    f = tmp_path / "mul_comm.lisp"
    f.write_text("(def-gl-thm mul-comm-8\n"
                 "  :hyp (and (unsigned-byte-p 8 x) (unsigned-byte-p 8 y))\n"
                 "  :concl (equal (* x y) (* y x))\n"
                 "  :g-bindings `((x ,(g-int 0 2 9)) (y ,(g-int 1 2 9))))\n")
    report = run_file(str(f), mode="bdd")
    (thm,) = [e for e in report.events if e.kind == "theorem"]
    assert thm.result["status"] == "proved"
    assert thm.stats["nodes"] <= 80_000


def test_logcount_exhaustive_signed_widths(ctx, eng):
    # every value of every width from 1 to 9 bits: odd leftover terms,
    # negative inputs (which count zeros) and the width-1 case, which
    # has no counted bits at all
    for width in range(1, 10):
        x = shape_to_symobj(g_int(0, 1, width), eng)
        r = apply_counterpart(ctx, "logcount", [x])
        for env in all_envs(width):
            v = sym_eval(x, env, eng)
            assert sym_eval(r, env, eng) == \
                apply_primitive("logcount", [v]), (width, v)


def test_equal_same_bits_canonical(eng):
    ctx = SymbolicContext(eng)
    x = GNumber(tuple(eng.var(i) for i in range(4)))
    r = apply_counterpart(ctx, "equal", [x, GNumber(x.bits)])
    assert r == Concrete(T)


def test_equal_equivalent_but_different_builds():
    # canonical realization decides it syntactically; the structural one
    # returns a non-constant boolean even though the sides are equivalent
    for eng, expect_constant in ((BddEngine(), True), (AigEngine(), False)):
        ctx = SymbolicContext(eng)
        a, b = eng.var(0), eng.var(1)
        lhs = GBoolean(eng.or_(eng.and_(a, eng.not_(b)),
                               eng.and_(eng.not_(a), b)))
        rhs = GBoolean(eng.and_(eng.or_(a, b), eng.not_(eng.and_(a, b))))
        r = apply_counterpart(ctx, "equal", [lhs, rhs])
        if expect_constant:
            assert r == Concrete(T)
        else:
            assert isinstance(r, GBoolean)
            for env in all_envs(2):
                assert eng.eval(r.val, env) is True


def test_equal_cross_type_classes(ctx, eng):
    x = GNumber((eng.var(0), eng.false))
    b = GBoolean(eng.var(1))
    assert apply_counterpart(ctx, "equal", [x, b]) == Concrete(NIL)
    assert apply_counterpart(ctx, "equal", [x, Concrete(Fraction(1, 2))]) \
        == Concrete(NIL)
    c = ConsObj(Concrete(1), x)
    assert apply_counterpart(ctx, "equal", [c, b]) == Concrete(NIL)
    r = apply_counterpart(ctx, "equal", [c, ConsObj(Concrete(1), GNumber(x.bits))])
    assert r == Concrete(T)


def test_lt_simple(ctx):
    assert apply_counterpart(ctx, "<", [Concrete(0), Concrete(0)]) \
        == Concrete(NIL)


def test_recognizers(ctx, eng):
    x = GNumber(tuple(eng.var(i) for i in range(3)))
    assert apply_counterpart(ctx, "consp", [x]) == Concrete(NIL)
    assert apply_counterpart(ctx, "integerp", [x]) == Concrete(T)
    assert apply_counterpart(ctx, "booleanp",
                             [ConsObj(Concrete(1), Concrete(2))]) \
        == Concrete(NIL)
    assert apply_counterpart(ctx, "rationalp", [x]) == Concrete(T)


def test_lognot_involution_at_value_level(ctx, eng):
    x = GNumber(tuple(eng.var(i) for i in range(4)))
    r = apply_counterpart(ctx, "lognot",
                          [apply_counterpart(ctx, "lognot", [x])])
    for env in all_envs(4):
        assert sym_eval(r, env, eng) == sym_eval(x, env, eng)


def test_logand_with_zero(ctx, eng):
    x = GNumber(tuple(eng.var(i) for i in range(4)))
    r = apply_counterpart(ctx, "logand", [x, Concrete(0)])
    for env in all_envs(4):
        assert sym_eval(r, env, eng) == 0


def test_ash_value_identity(ctx, eng):
    x = GNumber(tuple(eng.var(i) for i in range(4)))
    r = apply_counterpart(ctx, "ash", [x, Concrete(0)])
    for env in all_envs(4):
        assert sym_eval(r, env, eng) == sym_eval(x, env, eng)
    assert apply_counterpart(ctx, "ash", [Concrete(5), Concrete(-1)]) \
        == Concrete(2)


def test_ash_escapes_only_past_the_result_width(ctx, eng):
    # the widest left shift a 17-bit count allows takes a 4-bit x past
    # 65 536 bits
    x = GNumber(tuple(eng.var(i) for i in range(4)))
    cnt = GNumber(tuple(eng.var(i) for i in range(4, 21)))
    r = apply_counterpart(ctx, "ash", [x, cnt])
    assert isinstance(r, GApply) and r.fn == "ash"
    # (logand c 31) over a 9-bit c has 9 bits, the top four constant
    # false, so it shifts by at most 31
    c = GNumber(tuple(eng.var(i) for i in range(4, 13)))
    cnt = apply_counterpart(ctx, "logand", [c, Concrete(31)])
    assert len(cnt.bits) == 9
    r = apply_counterpart(ctx, "ash", [x, cnt])
    assert isinstance(r, GNumber) and len(r.bits) == 4 + 31
    for k in range(1 << 9):
        env = {0: True, 1: False, 2: True, 3: True}  # x = -3
        env.update((4 + j, bool(k >> j & 1)) for j in range(9))
        assert sym_eval(r, env, eng) == -3 << (k & 31)


def test_ash_huge_count_escapes_instead_of_allocating(ctx, eng):
    x = GNumber(tuple(eng.var(i) for i in range(4)))
    r = apply_counterpart(ctx, "ash", [x, Concrete(10 ** 9)])
    assert isinstance(r, GApply) and r.fn == "ash"
    r = apply_counterpart(ctx, "ash", [x, Concrete(-(10 ** 9))])
    for env in all_envs(4):
        assert sym_eval(r, env, eng) in (0, -1)  # sign bit only


def test_logbitp_simple(ctx, eng):
    x = GNumber(tuple(eng.var(i) for i in range(4)))
    r = apply_counterpart(ctx, "logbitp", [Concrete(0), x])
    assert isinstance(r, GBoolean) and r.val == eng.var(0)
    assert apply_counterpart(ctx, "logbitp", [Concrete(0), Concrete(5)]) \
        == Concrete(T)


def test_logbitp_symbolic_index_node_bound(ctx, eng):
    # 6 index bits plus sign over a 33-bit word: stages from the top
    # index bit down only mux the bits that can still reach bit 0, so
    # the whole read costs well under one full-width mux per index bit
    index = GNumber(tuple(eng.var(j) for j in range(7)))
    x = GNumber(tuple(eng.var(7 + i) for i in range(33)))
    before = eng.num_nodes
    r = apply_counterpart(ctx, "logbitp", [index, x])
    assert eng.num_nodes - before < 250
    for k, v in ((0, 0x1_2345_6789), (32, -1), (40, 1 << 31), (31, 1 << 31)):
        env = {j: bool(k >> j & 1) for j in range(7)}
        env.update((7 + i, bool(v >> i & 1)) for i in range(33))
        assert sym_eval(r, env, eng) == (T if v >> k & 1 else NIL), (k, v)


def test_gite_distribution(ctx, eng):
    c = eng.var(0)
    branchy = GIte(GBoolean(c),
                   GNumber((eng.var(1), eng.false)),
                   Concrete(7))
    r = apply_counterpart(ctx, "+", [branchy, Concrete(1)])
    for env in all_envs(2):
        want = (env[1] + 1) if env[0] else 8
        assert sym_eval(r, env, eng) == want


def test_escape_contagion(ctx, eng):
    x = GNumber((eng.var(0), eng.false))
    esc = GApply("floor", (x, Concrete(3)))
    r = apply_counterpart(ctx, "+", [esc, Concrete(1)])
    assert isinstance(r, GApply)
    r = apply_counterpart(ctx, "consp", [esc])
    assert isinstance(r, GApply)
    # and the escapes still evaluate correctly
    from bitblast.lang import base_env
    defs = base_env()
    for env in all_envs(1):
        got = sym_eval(apply_counterpart(ctx, "+", [esc, Concrete(1)]),
                       env, eng, defs=defs)
        want = apply_primitive("floor", [sym_eval(x, env, eng), 3]) + 1
        assert got == want


def test_break_hook_fires_on_escape(eng):
    seen = []

    def hook(fn, args):
        seen.append(fn)
        raise GApplyBreak(fn, args)

    ctx = SymbolicContext(eng, on_g_apply=hook)
    x = GNumber((eng.var(0), eng.false))
    with pytest.raises(GApplyBreak):
        apply_counterpart(ctx, "*", [Concrete(Fraction(1, 2)), x])
    assert seen == ["binary-*"]


def test_always_equal(ctx, eng):
    x = GNumber(tuple(eng.var(i) for i in range(4)))
    assert apply_counterpart(ctx, "always-equal", [x, x]) == Concrete(T)
    # equivalent but structurally different builds still give t
    a, b = eng.var(0), eng.var(1)
    lhs = GBoolean(eng.or_(a, b))
    rhs = GBoolean(eng.not_(eng.and_(eng.not_(a), eng.not_(b))))
    assert apply_counterpart(ctx, "always-equal", [lhs, rhs]) == Concrete(T)
    # different: nil at exactly the captured environment, opaque elsewhere
    r = apply_counterpart(ctx, "always-equal", [GBoolean(a), Concrete(T)])
    assert isinstance(r, GIte)
    assert sym_eval(r, {0: False, 1: False}, eng) is NIL
    captured = r.test
    assert isinstance(captured, GBoolean)
    assert eng.eval(captured.val, {0: False, 1: False}) is True
    assert eng.eval(captured.val, {0: True, 1: False}) is False


def test_oracle_suite_both_modes():
    for factory in (BddEngine, AigEngine):
        checked, bad = counterpart_oracle_suite(factory)
        assert not bad, bad[:3]
        assert checked > 30_000
