import itertools
import random
from fractions import Fraction

import pytest

from bitblast import counterparts, lang
from bitblast.concrete import (
    MAX_WIDTH,
    PRIMITIVES,
    apply_primitive,
    eval_concrete,
)
from bitblast.errors import EvalError, StepLimitExceeded
from bitblast.lang import base_env
from bitblast.values import NIL, T, Cons, Symbol, values_equal

from helpers import FAST_LOGCOUNT_32_SRC, env_from_defs, term


@pytest.fixture(scope="module")
def defs():
    return env_from_defs(FAST_LOGCOUNT_32_SRC)


def ev(src, defs, env=None, **kw):
    return eval_concrete(term(src), env or {}, defs, **kw)


def test_non_numbers_are_zero_in_arithmetic():
    assert apply_primitive("+", [T, 3]) == 3
    assert apply_primitive("+", [Symbol("foo"), Cons(1, 2)]) == 0
    assert apply_primitive("*", [NIL, 5]) == 0
    assert apply_primitive("-", [T]) == 0
    assert apply_primitive("<", [T, 1]) is T  # t acts as 0


def test_shift_and_bitwise():
    assert apply_primitive("ash", [5, -1]) == 2
    assert apply_primitive("ash", [-5, -1]) == -3  # arithmetic shift
    assert apply_primitive("ash", [5, 3]) == 40
    assert apply_primitive("logand", [-1, 0xFF]) == 255
    assert apply_primitive("logior", [8, 1]) == 9
    assert apply_primitive("logxor", [5, 3]) == 6
    assert apply_primitive("lognot", [0]) == -1
    assert apply_primitive("logand", [Fraction(1, 2), 7]) == 0  # ifix


def test_logcount_against_bit_inspection():
    rng = random.Random(1)
    for _ in range(500):
        x = rng.randint(-(1 << 40), 1 << 40)
        want = bin(x if x >= 0 else ~x).count("1")
        assert apply_primitive("logcount", [x]) == want
    assert apply_primitive("logcount", [0b10111]) == 4
    assert apply_primitive("logcount", [Fraction(1, 2)]) == 0


def test_logbitp():
    assert apply_primitive("logbitp", [0, 5]) is T
    assert apply_primitive("logbitp", [1, 5]) is NIL
    assert apply_primitive("logbitp", [100, -1]) is T  # sign extension
    assert apply_primitive("logbitp", [T, 5]) is T  # index nfix -> 0


def test_car_cdr_cons():
    assert apply_primitive("car", [Cons(1, 2)]) == 1
    assert apply_primitive("cdr", [Cons(1, 2)]) == 2
    assert apply_primitive("car", [7]) is NIL
    assert apply_primitive("cdr", [NIL]) is NIL


def test_recognizers():
    assert apply_primitive("integerp", [3]) is T
    assert apply_primitive("integerp", [Fraction(1, 2)]) is NIL
    assert apply_primitive("rationalp", [Fraction(1, 2)]) is T
    assert apply_primitive("acl2-numberp", [T]) is NIL
    assert apply_primitive("booleanp", [NIL]) is T
    assert apply_primitive("booleanp", [0]) is NIL
    assert apply_primitive("consp", [Cons(NIL, NIL)]) is T


def test_evenp_oddp_rational_behavior():
    assert apply_primitive("evenp", [4]) is T
    assert apply_primitive("evenp", [5]) is NIL
    assert apply_primitive("evenp", [Fraction(1, 2)]) is NIL
    assert apply_primitive("evenp", [T]) is T  # coerces to 0
    assert apply_primitive("oddp", [5]) is T


def test_expt_floor_mod():
    assert apply_primitive("expt", [2, 32]) == 4294967296
    assert apply_primitive("expt", [0, 0]) == 1
    assert apply_primitive("expt", [Fraction(1, 2), 2]) == Fraction(1, 4)
    with pytest.raises(EvalError):
        apply_primitive("expt", [2, -1])
    with pytest.raises(EvalError):
        apply_primitive("expt", [2, Fraction(1, 2)])
    assert apply_primitive("floor", [7, 2]) == 3
    assert apply_primitive("floor", [-7, 2]) == -4
    assert apply_primitive("floor", [7, 0]) == 0
    assert apply_primitive("mod", [7, 0]) == 0
    assert apply_primitive("mod", [-7, 2]) == 1
    assert apply_primitive("mod", [Fraction(7, 2), 2]) == Fraction(3, 2)


def test_ash_and_expt_refuse_results_past_max_width():
    # the widest result keeps its sign bit inside MAX_WIDTH bits
    top = MAX_WIDTH - 1
    assert apply_primitive("ash", [1, top - 1]) == 1 << (top - 1)
    assert apply_primitive("ash", [-1, top]) == -1 << top
    assert apply_primitive("expt", [2, top - 1]) == 1 << (top - 1)
    assert apply_primitive("expt", [-2, top]) == -1 << top
    assert apply_primitive("expt", [3, 41_347]) == 3 ** 41_347
    for args in ([1, top], [-3, top], [1, 2 ** 70]):
        with pytest.raises(EvalError, match="ash result wider"):
            apply_primitive("ash", args)
    for args in ([2, top], [3, 41_348], [Fraction(1, 2), top],
                 [2, 2 ** 40]):
        with pytest.raises(EvalError, match="expt result wider"):
            apply_primitive("expt", args)
    # results that stay narrow are never refused, however large the count
    assert apply_primitive("ash", [0, 2 ** 70]) == 0
    assert apply_primitive("ash", [5, -(2 ** 70)]) == 0
    assert apply_primitive("expt", [1, 2 ** 70]) == 1
    assert apply_primitive("expt", [-1, 2 ** 70 + 1]) == -1
    assert apply_primitive("expt", [0, 2 ** 70]) == 0


def test_total_and_deterministic_over_value_grid(defs):
    values = [0, 1, -1, 7, Fraction(1, 2), T, NIL, Symbol("a"),
              Cons(1, NIL), "s"]
    binary = ["+", "-", "*", "<", "equal", "logand", "logior", "logxor",
              "ash", "logbitp", "floor", "mod", "cons", "always-equal"]
    for name in binary:
        for a, b in itertools.product(values, repeat=2):
            if name == "expt":
                continue
            r1 = apply_primitive(name, [a, b])
            r2 = apply_primitive(name, [a, b])
            assert values_equal(r1, r2)
    unary = ["not", "consp", "integerp", "rationalp", "acl2-numberp",
             "booleanp", "car", "cdr", "lognot", "logcount", "evenp", "oddp"]
    for name in unary:
        for a in values:
            assert values_equal(apply_primitive(name, [a]),
                                apply_primitive(name, [a]))


def test_if_nil_takes_else(defs):
    assert ev("(if nil 1 2)", defs) == 2
    assert ev("(if 0 1 2)", defs) == 1  # only nil is false
    assert ev("(if-degenerate-free 0 1 2)", defs) == 1


def test_let_and_let_star(defs):
    assert ev("(let ((x 1) (y 2)) (+ x y))", defs) == 3
    assert ev("(let* ((x 1) (x (+ x 1))) x)", defs) == 2
    # parallel let reads the outer scope
    assert ev("(let ((x 5)) (let ((x 1) (y x)) y))", defs) == 5


def test_fast_logcount_32_examples(defs):
    assert ev("(logcount #b10111)", defs) == 4
    assert ev("(fast-logcount-32 0)", defs) == 0
    assert ev("(fast-logcount-32 1)", defs) == 1
    assert ev("(fast-logcount-32 #xFFFFFFFF)", defs) == 32


def test_evaluation_errors(defs):
    with pytest.raises(EvalError):
        ev("(undefined-fn 1)", defs)
    with pytest.raises(EvalError):
        eval_concrete(term("x"), {}, defs)
    with pytest.raises(EvalError):
        ev("(fast-logcount-32 1 2)", defs)  # arity


def test_step_limit():
    defs = env_from_defs("(defun loop-forever (x) (loop-forever x))")
    with pytest.raises(StepLimitExceeded):
        eval_concrete(term("(loop-forever 0)"), {}, defs, 1000)


def test_reevaluation_identical(defs):
    t = term("(fast-logcount-32 #x9448C263)")
    assert eval_concrete(t, {}, defs) == eval_concrete(t, {}, defs) == 12


def test_prelude_predicates():
    defs = base_env()
    assert ev("(unsigned-byte-p 32 4294967295)", defs) is T
    assert ev("(unsigned-byte-p 32 4294967296)", defs) is NIL
    assert ev("(signed-byte-p 8 -128)", defs) is T
    assert ev("(signed-byte-p 8 128)", defs) is NIL
    assert ev("(atom 5)", defs) is T
    assert ev("(member 'b '(a b c))", defs) is not NIL
    assert ev("(member 'z '(a b c))", defs) is NIL
    assert ev("(implies nil nil)", defs) is T
    assert ev("(1- (expt 2 32))", defs) == 0xFFFFFFFF


def test_duplicate_and_primitive_redefinition():
    defs = base_env()
    from bitblast.errors import FileFormatError
    with pytest.raises(FileFormatError):
        defs.define("car", ["x"], term("x"))
    defs.define("f", ["x"], term("x"))
    with pytest.raises(FileFormatError):
        defs.define("f", ["x"], term("x"))
    with pytest.raises(FileFormatError):
        defs.define("evenp", ["x"], term("x"))  # prelude already has it


def test_primitive_tables_agree():
    # lang cannot import concrete (a cycle), so it keeps its own copy
    assert lang.PRIMITIVE_NAMES == set(PRIMITIVES)
    # each counterpart takes its arity from PRIMITIVES
    assert set(counterparts._HANDLERS) <= set(PRIMITIVES)
