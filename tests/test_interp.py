import io

import pytest

from bitblast.concrete import eval_concrete
from bitblast.engine import BddEngine
from bitblast.errors import EvalError, GApplyBreak, StepLimitExceeded
from bitblast.interp import (
    Interp,
    InterpConfig,
    allow_concrete_exec,
    register_preferred_def,
    set_debug_hooks,
)
from bitblast.lang import base_env
from bitblast.symobj import Concrete, ConsObj, GApply, GNumber, sym_eval
from bitblast.values import NIL, T, values_equal

from helpers import FAST_LOGCOUNT_32_SRC, all_envs, env_from_defs, term

FILTER_SRC = """
(defun element-okp (e) (and (integerp e) (< 0 e)))
(defun filter1 (x)
  (cond ((atom x) nil)
        ((element-okp (car x)) (cons (car x) (filter1 (cdr x))))
        (t (filter1 (cdr x)))))
(defun filter2 (x)
  (if (atom x)
      nil
    (let ((rest (filter2 (cdr x))))
      (if (element-okp (car x))
          (cons (car x) rest)
        rest))))
"""


def run(src, bindings, defs, cfg=None, eng=None):
    eng = eng or BddEngine()
    cfg = cfg or InterpConfig()
    return Interp(defs, cfg, eng).run(term(src), bindings)


def symbolic_list(eng, n, bits=2):
    obj = Concrete(NIL)
    for k in range(n):
        elt = GNumber(tuple(eng.var(k * bits + i) for i in range(bits)))
        obj = ConsObj(elt, obj)
    return obj


def test_concrete_bindings_follow_the_oracle():
    defs = env_from_defs(FAST_LOGCOUNT_32_SRC)
    for x in (0, 1, 0b111, 0b10111, 0x9448C263):
        r = run("(fast-logcount-32 x)", {"x": Concrete(x)}, defs)
        assert r == Concrete(bin(x).count("1"))


def test_concrete_bindings_randomized_agreement():
    import random
    defs = env_from_defs(FILTER_SRC)
    rng = random.Random(99)
    srcs = [
        "(+ (* x 3) (ash y -2))",
        "(if (< x y) (logxor x y) (logand x y))",
        "(logcount (logior x (lognot y)))",
        "(filter1 (cons x (cons y nil)))",
        "(max (abs x) (abs y))",
    ]
    for _ in range(60):
        x, y = rng.randint(-300, 300), rng.randint(-300, 300)
        for src in srcs:
            t = term(src)
            got = Interp(defs, InterpConfig(), BddEngine()).run(
                t, {"x": Concrete(x), "y": Concrete(y)})
            assert isinstance(got, Concrete)
            want = eval_concrete(t, {"x": x, "y": y}, defs)
            assert values_equal(got.value, want), (src, x, y)


def test_consp_of_number_is_nil():
    defs = base_env()
    eng = BddEngine()
    x = GNumber(tuple(eng.var(i) for i in range(3)))
    assert run("(consp x)", {"x": x}, defs, eng=eng) == Concrete(NIL)


def test_full_symbolic_agreement():
    # interpreted-then-evaluated equals concretely evaluated, pointwise
    defs = env_from_defs(FILTER_SRC)
    eng = BddEngine()
    cfg = InterpConfig()
    x = GNumber(tuple(eng.var(i) for i in range(4)))
    y = GNumber(tuple(eng.var(i) for i in range(4, 8)))
    terms = [
        "(+ x (* 2 y))",
        "(logand (lognot x) (ash y -1))",
        "(if (< x y) (- y x) (- x y))",
        "(logcount (logxor x y))",
        "(filter2 (cons x (cons y nil)))",
        "(unsigned-byte-p 3 (+ x y))",
        "(let* ((a (+ x 1)) (b (+ a y))) (equal b (+ x y 1)))",
    ]
    for src in terms:
        t = term(src)
        obj = Interp(defs, cfg, eng).run(t, {"x": x, "y": y})
        for env in all_envs(8):
            got = sym_eval(obj, env, eng, defs=defs)
            want = eval_concrete(t, {"x": sym_eval(x, env, eng),
                                     "y": sym_eval(y, env, eng)}, defs)
            assert values_equal(got, want), (src, env)


def test_dispatch_priority_counterpart_beats_preferred():
    defs = env_from_defs("(defun my-logand (a b) (logand a b))")
    cfg = InterpConfig()
    # a preferred definition for a function that also has a counterpart
    # must lose to the counterpart
    cfg = register_preferred_def(cfg, "my-logand", term("(logand a b)"), defs)
    table = dict(cfg.preferred_defs)
    table["logand"] = (("a", "b"), term("(logand b a)"))
    cfg.preferred_defs = table
    eng = BddEngine()
    interp = Interp(defs, cfg, eng)
    x = GNumber(tuple(eng.var(i) for i in range(2)))
    interp.run(term("(logand x 1)"), {"x": x})
    assert interp.dispatch["counterpart"] >= 1
    assert interp.dispatch["preferred"] == 0
    # the preferred def *is* used for a function without a counterpart
    interp = Interp(defs, cfg, eng)
    interp.run(term("(my-logand x 1)"), {"x": x})
    assert interp.dispatch["preferred"] == 1


def test_dispatch_priority_concrete_beats_counterpart():
    defs = base_env()
    cfg = InterpConfig()
    eng = BddEngine()
    interp = Interp(defs, cfg, eng)
    interp.run(term("(+ 1 2)"), {})
    assert interp.dispatch["concrete"] == 1
    assert interp.dispatch["counterpart"] == 0


def test_concrete_exec_table():
    defs = env_from_defs("(defun triple (x) (* 3 x))")
    cfg = InterpConfig()
    eng = BddEngine()
    interp = Interp(defs, cfg, eng)
    r = interp.run(term("(triple 5)"), {})
    assert r == Concrete(15)
    assert interp.dispatch["expand"] == 1  # expanded, not direct
    cfg2 = allow_concrete_exec(cfg, ["triple"])
    interp = Interp(defs, cfg2, eng)
    r = interp.run(term("(triple 5)"), {})
    assert r == Concrete(15)
    assert interp.dispatch["concrete"] == 1
    assert interp.dispatch["expand"] == 0


def test_unknown_function_and_unbound_variable():
    defs = base_env()
    with pytest.raises(EvalError):
        run("(no-such-fn 1)", {}, defs)
    with pytest.raises(EvalError):
        run("(+ x 1)", {}, defs)


def test_trace_output():
    defs = base_env()
    cfg = InterpConfig(trace="calls")
    out = io.StringIO()
    Interp(defs, cfg, BddEngine(), trace_out=out).run(
        term("(logcount 5)"), {})
    text = out.getvalue()
    assert "logcount" in text
    assert text.startswith("sym>")
    # off -> silent
    out = io.StringIO()
    Interp(defs, InterpConfig(), BddEngine(), trace_out=out).run(
        term("(logcount 5)"), {})
    assert out.getvalue() == ""


def test_trace_values_hides_symbolic_bindings():
    defs = base_env()
    eng = BddEngine()
    cfg = InterpConfig(trace="values")
    out = io.StringIO()
    x = GNumber((eng.var(0), eng.false))
    Interp(defs, cfg, eng, trace_out=out).run(
        term("(+ x y)"), {"x": x, "y": Concrete(5)})
    text = out.getvalue()
    assert "y = 5" in text
    assert "x =" not in text  # symbolic bindings are hidden


def test_trace_json_lines():
    import json as _json
    defs = base_env()
    eng = BddEngine()
    cfg = InterpConfig(trace="json")
    out = io.StringIO()
    x = GNumber((eng.var(0), eng.false))
    Interp(defs, cfg, eng, trace_out=out).run(
        term("(+ x y)"), {"x": x, "y": Concrete(5)})
    lines = [l for l in out.getvalue().splitlines() if l]
    docs = [_json.loads(l) for l in lines]
    assert docs[0]["fn"] == "+"
    assert docs[0]["bindings"] == {"y": "5"}


def test_break_on_g_apply_diagnostic():
    defs = base_env()
    eng = BddEngine()
    cfg = set_debug_hooks(InterpConfig(), break_on_g_apply=True)
    out = io.StringIO()
    x = GNumber(tuple(eng.var(i) for i in range(4)))
    with pytest.raises(GApplyBreak) as e:
        Interp(defs, cfg, eng, trace_out=out).run(term("(* 1/2 x)"),
                                                  {"x": x})
    assert e.value.fn == "binary-*"
    assert "binary-*" in out.getvalue() and "1/2" in out.getvalue()


def test_step_limit_enforced():
    defs = env_from_defs(FILTER_SRC)
    eng = BddEngine()
    cfg = InterpConfig(step_limit=500)
    with pytest.raises(StepLimitExceeded):
        Interp(defs, cfg, eng).run(term("(filter1 x)"),
                                   {"x": symbolic_list(eng, 12)})


def test_filter_regression_step_budget():
    # the doubled-recursion filter blows a 10^5 step budget on a
    # 12-element symbolic list; the single-recursion preferred
    # definition finishes comfortably inside it
    defs = env_from_defs(FILTER_SRC)
    budget = 10 ** 5

    eng = BddEngine()
    cfg = InterpConfig(step_limit=budget)
    with pytest.raises(StepLimitExceeded):
        Interp(defs, cfg, eng).run(term("(filter1 x)"),
                                   {"x": symbolic_list(eng, 12)})

    eng = BddEngine()
    cfg = register_preferred_def(InterpConfig(step_limit=budget), "filter1",
                                 term("(filter2 x)"), defs)
    interp = Interp(defs, cfg, eng)
    r = interp.run(term("(filter1 x)"), {"x": symbolic_list(eng, 12)})
    assert interp.steps < budget
    # and the result agrees with the concrete filter on a few points
    for env in ({i: False for i in range(24)},
                {i: (i % 3 == 0) for i in range(24)},
                {i: True for i in range(24)}):
        got = sym_eval(r, env, eng, defs=defs)
        lst = sym_eval(symbolic_list(eng, 12), env, eng)
        want = eval_concrete(term("(filter1 x)"), {"x": lst}, defs)
        assert values_equal(got, want)


def test_register_preferred_def_validation():
    defs = env_from_defs(FILTER_SRC)
    cfg = InterpConfig()
    # body-identical replacement: accepted
    cfg2 = register_preferred_def(cfg, "element-okp",
                                  term("(and (integerp e) (< 0 e))"), defs)
    assert "element-okp" in cfg2.preferred_defs
    # free variable outside the formals: rejected
    with pytest.raises(EvalError):
        register_preferred_def(cfg, "element-okp", term("(< q e)"), defs)
    # semantically different replacement: rejected by sampling
    with pytest.raises(EvalError):
        register_preferred_def(cfg, "element-okp", term("(+ e 1)"), defs)
    # unknown function: rejected
    with pytest.raises(EvalError):
        register_preferred_def(cfg, "mystery", term("x"), defs)
    # the original config is untouched (functional update)
    assert "element-okp" not in cfg.preferred_defs


def test_filter_preferred_def_expands_once_per_element():
    defs = env_from_defs(FILTER_SRC)
    eng = BddEngine()
    cfg = register_preferred_def(InterpConfig(), "filter1",
                                 term("(filter2 x)"), defs)
    interp = Interp(defs, cfg, eng)
    interp.run(term("(filter1 x)"), {"x": symbolic_list(eng, 8)})
    # one preferred expansion, then linear filter2 expansions
    assert interp.dispatch["preferred"] == 1
    assert interp.dispatch["expand"] <= 3 * 8 + 4
