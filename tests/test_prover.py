import sys

import pytest

import bitblast.prover as prover
from bitblast.engine import AigEngine, BddEngine
from bitblast.errors import EvalError
from bitblast.interp import InterpConfig
from bitblast.prover import (
    ParamTheoremSpec,
    ProverOptions,
    TheoremSpec,
    check_coverage,
    parametrize_bindings,
    prove_gl_param_thm,
    prove_gl_thm,
)
from bitblast.reader import read_one_value
from bitblast.symobj import (
    ShapeBool,
    g_int,
    parse_shape,
    shape_to_symobj,
    sym_eval,
)
from bitblast.values import NIL, T, Symbol

from helpers import FAST_LOGCOUNT_32_SRC, all_envs, env_from_defs, term


@pytest.fixture(scope="module")
def defs():
    return env_from_defs(FAST_LOGCOUNT_32_SRC)


CFG = InterpConfig()


# -- coverage -----------------------------------------------------------------

def test_coverage_recognized_fragment(defs):
    ok = check_coverage(term("(unsigned-byte-p 32 x)"),
                        {"x": g_int(0, 1, 33)}, defs)
    assert ok is None
    failed = check_coverage(term("(unsigned-byte-p 32 x)"),
                            {"x": g_int(0, 1, 32)}, defs)
    assert failed == ("x", 2147483648)
    ok = check_coverage(term("(equal op 20)"),
                        {"op": parse_shape(read_one_value("#b0010100"))}, defs)
    assert ok is None
    failed = check_coverage(term("(equal op 21)"),
                            {"op": parse_shape(read_one_value("#b0010100"))},
                            defs)
    assert failed == ("op", 21)


def test_coverage_boolean_member_and_bounds(defs):
    ok = check_coverage(term("(booleanp f)"),
                        {"f": parse_shape(read_one_value("(:g-boolean . 0)"))},
                        defs)
    assert ok is None
    failed = check_coverage(term("(booleanp f)"), {"f": g_int(0, 1, 2)}, defs)
    assert failed[0] == "f" and failed[1] in (T, NIL)
    shape = parse_shape(read_one_value("(:g-ite (:g-boolean . 0) exact . fast)"))
    ok = check_coverage(term("(member m '(exact fast))"), {"m": shape}, defs)
    assert ok is None
    failed = check_coverage(term("(member m '(exact fast slow))"),
                            {"m": shape}, defs)
    assert failed == ("m", Symbol("slow"))
    ok = check_coverage(term("(and (integerp x) (<= 0 x) (< x 16))"),
                        {"x": g_int(0, 1, 5)}, defs)
    assert ok is None
    failed = check_coverage(term("(and (integerp x) (<= 0 x) (< x 17))"),
                            {"x": g_int(0, 1, 5)}, defs)
    assert failed == ("x", 16)


def test_coverage_unconstrained_variable_fails(defs):
    failed = check_coverage(term("(equal y y)"), {"y": g_int(0, 1, 8)}, defs)
    assert failed == ("y", 128)


def test_coverage_unrecognized_conjuncts_are_conservative(defs):
    # dropping (not (logbitp 0 x)) only grows the required set
    ok = check_coverage(
        term("(and (unsigned-byte-p 4 x) (not (logbitp 0 x)))"),
        {"x": g_int(0, 1, 5)}, defs)
    assert ok is None
    failed = check_coverage(
        term("(and (unsigned-byte-p 4 x) (not (logbitp 0 x)))"),
        {"x": g_int(0, 1, 4)}, defs)
    assert failed == ("x", 8)


def test_coverage_expands_wrappers(defs):
    wrapped = env_from_defs("(defun byte8 (x) (unsigned-byte-p 8 x))")
    ok = check_coverage(term("(byte8 x)"), {"x": g_int(0, 1, 9)}, wrapped)
    assert ok is None
    failed = check_coverage(term("(byte8 x)"), {"x": g_int(0, 1, 8)}, wrapped)
    assert failed == ("x", 128)
    # :do-not-expand suppresses recognition, turning x unconstrained
    failed = check_coverage(term("(byte8 x)"), {"x": g_int(0, 1, 9)}, wrapped,
                            do_not_expand={"byte8"})
    assert failed == ("x", 256)


def test_coverage_signed_and_lower_bound(defs):
    ok = check_coverage(term("(signed-byte-p 8 x)"), {"x": g_int(0, 1, 8)},
                        defs)
    assert ok is None
    failed = check_coverage(term("(signed-byte-p 9 x)"), {"x": g_int(0, 1, 8)},
                            defs)
    assert failed == ("x", -256)  # smallest admitted-but-uncovered value
    failed = check_coverage(term("(and (integerp x) (< x 0))"),
                            {"x": g_int(0, 1, 8)}, defs)
    assert failed == ("x", -129)


# -- parametrization ----------------------------------------------------------

def test_parametrize_bindings_sign_bit_becomes_constant(defs):
    # a 33-bit binding under an unsigned-32 hypothesis loses its sign
    # bit in both realizations
    for eng in (BddEngine(), AigEngine()):
        from bitblast.interp import sym_interp
        objs = {"x": shape_to_symobj(g_int(0, 1, 33), eng)}
        h = sym_interp(term("(unsigned-byte-p 32 x)"), objs, defs, CFG, eng)
        from bitblast.symobj import truth_expr
        hyp_expr = truth_expr(h, eng)
        pobjs, hyp_p = parametrize_bindings(hyp_expr, objs, eng,
                                            list(range(33)))
        xbits = pobjs["x"].bits
        assert eng.is_false(xbits[32]), eng.mode
        assert eng.is_true(hyp_p) or eng.valid(hyp_p)
        # the value bits stay the plain variables: exactly the hand-
        # picked best object for this hypothesis
        assert all(xbits[i] == eng.var(i) for i in range(32)), eng.mode


def test_parametrize_bindings_image(defs):
    # exact image property for the canonical realization
    eng = BddEngine()
    from bitblast.interp import sym_interp
    from bitblast.symobj import truth_expr
    objs = {"x": shape_to_symobj(g_int(0, 1, 5), eng)}
    h = sym_interp(term("(not (logbitp 0 x))"), objs, defs, CFG, eng)
    hyp_expr = truth_expr(h, eng)
    pobjs, _ = parametrize_bindings(hyp_expr, objs, eng, list(range(5)))
    assert eng.is_false(pobjs["x"].bits[0])
    image = {sym_eval(pobjs["x"], env, eng) for env in all_envs(5)}
    assert image == {v for v in range(-16, 16) if v % 2 == 0}


def test_parametrize_bindings_no_restriction(defs):
    eng = BddEngine()
    objs = {"x": shape_to_symobj(g_int(0, 1, 4), eng)}
    pobjs, hyp_p = parametrize_bindings(eng.true, objs, eng, list(range(4)))
    assert pobjs["x"].bits == objs["x"].bits
    assert eng.is_true(hyp_p)


# -- proving ------------------------------------------------------------------

def _spec(name, hyp_src, concl_src, bindings, **kw):
    return TheoremSpec(name=name, hyp=term(hyp_src), concl=term(concl_src),
                       g_bindings=bindings, **kw)


def test_prove_logcount(defs):
    spec = _spec("flc", "(unsigned-byte-p 32 x)",
                 "(equal (fast-logcount-32 x) (logcount x))",
                 {"x": g_int(0, 1, 33)})
    r = prove_gl_thm(spec, defs, CFG, ProverOptions(mode="bdd"))
    assert r.kind == "proved" and not r.warnings
    assert r.stats["steps"] > 0 and r.stats["nodes"] > 0


def test_soundness_spot_check_small_widths(defs):
    # every proved verdict at <= 12 bits confirmed by exhaustive
    # concrete enumeration over the covered space
    from bitblast.concrete import eval_concrete
    cases = [
        ("(unsigned-byte-p 6 x)", "(equal (logand x (lognot x)) 0)",
         {"x": g_int(0, 1, 7)}, range(0, 64)),
        ("(signed-byte-p 5 x)", "(equal (- (- x)) x)",
         {"x": g_int(0, 1, 5)}, range(-16, 16)),
        ("(unsigned-byte-p 6 x)", "(not (< (logcount x) 0))",
         {"x": g_int(0, 1, 7)}, range(0, 64)),
    ]
    for hyp_src, concl_src, bindings, space in cases:
        spec = _spec("t", hyp_src, concl_src, bindings)
        r = prove_gl_thm(spec, defs, CFG, ProverOptions(mode="bdd"))
        assert r.kind == "proved", (hyp_src, concl_src, r)
        for v in space:
            assert eval_concrete(term(concl_src), {"x": v}, defs) is not NIL


def test_disproof_counterexamples_verified(defs):
    spec = _spec("lt", "(unsigned-byte-p 4 x)", "(< x 10)",
                 {"x": g_int(0, 1, 5)}, seed=3)
    r = prove_gl_thm(spec, defs, CFG, ProverOptions(mode="bdd"))
    assert r.kind == "disproved"
    assert [cx.policy for cx in r.counterexamples[:2]] == ["zeros", "ones"]
    # extremal policies are lexicographic over bit indices: among the
    # failing inputs 10..15, 12 = 0b1100 clears the most low bits
    assert r.counterexamples[0].values["x"] == 12
    assert r.counterexamples[1].values["x"] == 15
    for cx in r.counterexamples:
        assert cx.verified
        assert 10 <= cx.values["x"] <= 15


def test_counterexample_count_and_dedup(defs):
    spec = _spec("only-one", "(unsigned-byte-p 4 x)", "(not (equal x 7))",
                 {"x": g_int(0, 1, 5)}, counterexample_count=3)
    r = prove_gl_thm(spec, defs, CFG, ProverOptions(mode="bdd"))
    assert r.kind == "disproved"
    assert len(r.counterexamples) == 1  # single bad input, duplicates collapsed
    assert r.counterexamples[0].values["x"] == 7


def test_vacuous_hypothesis_warns(defs):
    spec = _spec("vac", "(and (< x 0) (unsigned-byte-p 4 x))", "(equal x 99)",
                 {"x": g_int(0, 1, 5)})
    r = prove_gl_thm(spec, defs, CFG, ProverOptions(mode="bdd"))
    assert r.kind == "proved"
    assert r.warnings and "vacuous" in r.warnings[0]


def test_indeterminate_rational_multiply(defs):
    spec = _spec("integer-half",
                 "(and (unsigned-byte-p 4 x) (not (logbitp 0 x)))",
                 "(equal (* 1/2 x) (ash x -1))", {"x": g_int(0, 1, 5)})
    r = prove_gl_thm(spec, defs, CFG, ProverOptions(mode="bdd"))
    assert r.kind == "indeterminate"
    assert "binary-*" in r.offender
    assert r.examples is not None


def test_coverage_failure_comes_after_symbolic_success(defs):
    spec = _spec("flc-cov", "(unsigned-byte-p 32 x)",
                 "(equal (fast-logcount-32 x) (logcount x))",
                 {"x": g_int(0, 1, 32)})
    r = prove_gl_thm(spec, defs, CFG, ProverOptions(mode="bdd"))
    assert r.kind == "coverage-failed"
    assert r.variable == "x" and r.witness == 2147483648


def test_coverage_only_mode(defs):
    spec = _spec("flc", "(unsigned-byte-p 32 x)",
                 "(equal (fast-logcount-32 x) (logcount x))",
                 {"x": g_int(0, 1, 33)})
    r = prove_gl_thm(spec, defs, CFG,
                     ProverOptions(mode="bdd", coverage_only=True))
    assert r.kind == "coverage-ok"  # no proved verdict
    assert r.stats is None
    spec = _spec("flc32", "(unsigned-byte-p 32 x)", "(equal x x)",
                 {"x": g_int(0, 1, 32)})
    r = prove_gl_thm(spec, defs, CFG,
                     ProverOptions(mode="bdd", coverage_only=True))
    assert r.kind == "coverage-failed"


def test_resource_limit_steps(defs):
    filt = env_from_defs("""
    (defun grow (x) (if (atom x) 0 (+ (grow (cdr x)) (grow (cdr x)))))
    """)
    eng_bindings = {"x": parse_shape(read_one_value(
        "((:g-boolean . 0) (:g-boolean . 1) (:g-boolean . 2)"
        " (:g-boolean . 3) . nil)"))}
    spec = TheoremSpec(name="grow", hyp=term("t"),
                       concl=term("(equal (grow x) (grow x))"),
                       g_bindings=eng_bindings)
    cfg = InterpConfig(step_limit=40)
    r = prove_gl_thm(spec, filt, cfg, ProverOptions(mode="bdd"))
    assert r.kind == "resource-limit"
    assert r.stage.startswith("steps:")


def test_node_budget_limit(defs):
    spec = _spec("big", "(unsigned-byte-p 16 x)",
                 "(equal (fast-logcount-32 x) (logcount x))",
                 {"x": g_int(0, 1, 17)})
    r = prove_gl_thm(spec, defs, CFG,
                     ProverOptions(mode="bdd", node_budget=50))
    assert r.kind == "resource-limit"
    assert r.stage.startswith("nodes:")


def test_sat_budget_limit_in_structural_mode(defs):
    # commuted multiplies build structurally different circuits, so the
    # always-equal validity check has to run the solver; a zero conflict
    # budget turns that into a resource limit
    spec = _spec("ae", "(and (unsigned-byte-p 3 x) (unsigned-byte-p 3 y))",
                 "(always-equal (* x y) (* y x))",
                 {"x": g_int(0, 2, 4), "y": g_int(1, 2, 4)})
    r = prove_gl_thm(spec, defs, CFG, ProverOptions(mode="aig"))
    assert r.kind == "proved"
    r = prove_gl_thm(spec, defs, CFG,
                     ProverOptions(mode="aig", sat_conflict_budget=0))
    assert r.kind == "resource-limit"
    assert r.stage.startswith("sat:")


def test_forced_constant_budget_is_a_parametrize_resource_limit(defs):
    # b is forced true only because the commuted multiplies agree, so
    # the forced-constant probes must prove that; the vacuity check
    # answers by simulation and the conclusion is then the constant t
    spec = _spec("guard", "(and (unsigned-byte-p 3 x) (unsigned-byte-p 3 y)"
                 " (booleanp b) (if (equal (* x y) (* y x)) b t))", "b",
                 {"x": g_int(0, 2, 4), "y": g_int(1, 2, 4),
                  "b": ShapeBool(8)})
    r = prove_gl_thm(spec, defs, CFG, ProverOptions(mode="aig"))
    assert r.kind == "proved"
    used = r.stats["sat_conflicts"]
    assert used > 0 and r.stats["sweep_candidates"] == 0
    r = prove_gl_thm(spec, defs, CFG,
                     ProverOptions(mode="aig", sat_conflict_budget=used - 1))
    assert r.kind == "resource-limit"
    assert r.stage == "sat:parametrize"


def test_witness_blowup_is_a_counterexample_resource_limit(defs,
                                                          monkeypatch):
    from bitblast.aig import SatSweep
    from bitblast.errors import SatBudgetExceeded

    def blowup(*args, **kwargs):
        raise SatBudgetExceeded("SAT conflict budget exhausted")

    monkeypatch.setattr(SatSweep, "witness", blowup)
    spec = _spec("lt", "(unsigned-byte-p 4 x)", "(< x 10)",
                 {"x": g_int(0, 1, 5)})
    r = prove_gl_thm(spec, defs, CFG, ProverOptions(mode="aig"))
    assert r.kind == "resource-limit"
    assert r.stage == "sat:counterexamples"


def _stack_depth():
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_deep_bdd_is_a_recursion_resource_limit(defs):
    # the interleaved 100-bit comparison has about 200 BDD levels, and
    # parametrize recurses once per level: with 200 frames to spare the
    # recursion limit stops it, as a deeper theorem would at the
    # default limit
    spec = _spec("lt", "(and (unsigned-byte-p 100 x) "
                       "(unsigned-byte-p 100 y) (< x y))",
                 "(not (< y x))",
                 {"x": g_int(0, 2, 101), "y": g_int(1, 2, 101)})
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 200)
    try:
        r = prove_gl_thm(spec, defs, CFG, ProverOptions(mode="bdd"))
    finally:
        sys.setrecursionlimit(limit)
    assert r.kind == "resource-limit"
    assert r.stage == "recursion:parametrize"
    assert r.stats["nodes"] > 200
    assert prove_gl_thm(spec, defs, CFG,
                        ProverOptions(mode="bdd")).kind == "proved"


def test_distinct_index_validation(defs):
    spec = _spec("dup", "(unsigned-byte-p 2 x)", "(equal x y)",
                 {"x": g_int(0, 1, 3), "y": g_int(2, 1, 3)})
    with pytest.raises(EvalError):
        prove_gl_thm(spec, defs, CFG, ProverOptions())
    spec = _spec("missing", "(unsigned-byte-p 2 x)", "(equal x y)",
                 {"x": g_int(0, 1, 3)})
    with pytest.raises(EvalError):
        prove_gl_thm(spec, defs, CFG, ProverOptions())


def _random_term(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        roll = rng.random()
        if roll < 0.45:
            return "x"
        if roll < 0.9:
            return "y"
        return str(rng.randint(-3, 7))
    op = rng.choice(("+", "-", "*", "logand", "logior", "logxor", "lognot",
                     "logcount", "ash", "if", "max", "min"))
    a = _random_term(rng, depth - 1)
    b = _random_term(rng, depth - 1)
    if op in ("lognot", "logcount"):
        return "(%s %s)" % (op, a)
    if op == "ash":
        return "(ash %s %d)" % (a, rng.randint(-3, 2))
    if op == "if":
        return "(if (< %s %s) %s %s)" % (a, b, b, a)
    return "(%s %s %s)" % (op, a, b)


def test_randomized_end_to_end_soundness(defs):
    # whole-pipeline fuzz: the verdict must agree with exhaustive
    # concrete enumeration of the hypothesis-satisfying space
    import random as _random
    from bitblast.concrete import eval_concrete
    rng = _random.Random(2718)
    proved = disproved = 0
    for trial in range(120):
        body = _random_term(rng, 3)
        concl_src = rng.choice((
            "(equal %s %s)" % (body, _random_term(rng, 2)),
            "(< %s %s)" % (body, _random_term(rng, 2)),
            "(not (equal %s 0))" % body,
        ))
        signed = rng.random() < 0.4
        pred = "signed-byte-p" if signed else "unsigned-byte-p"
        hyp_src = "(and (%s 4 x) (%s 3 y))" % (pred, pred)
        bindings = {"x": g_int(0, 1, 4 if signed else 5),
                    "y": g_int(8, 1, 3 if signed else 4)}
        spec = _spec("fuzz%d" % trial, hyp_src, concl_src, bindings,
                     seed=trial)
        r = prove_gl_thm(spec, defs, CFG, ProverOptions(mode="bdd"))
        xs = range(-8, 8) if signed else range(0, 16)
        ys = range(-4, 4) if signed else range(0, 8)
        concl_t = term(concl_src)
        failing = [(x, y) for x in xs for y in ys
                   if eval_concrete(concl_t, {"x": x, "y": y}, defs) is NIL]
        if failing:
            assert r.kind == "disproved", (trial, concl_src, failing[:3], r)
            disproved += 1
            for cx in r.counterexamples:
                assert cx.verified
                assert (cx.values["x"], cx.values["y"]) in failing
        else:
            assert r.kind == "proved", (trial, concl_src, r)
            proved += 1
    assert proved > 10 and disproved > 10  # the fuzz hits both outcomes


def test_prove_deterministic_for_fixed_seed(defs):
    spec1 = _spec("d", "(unsigned-byte-p 6 x)", "(< (logcount x) 3)",
                  {"x": g_int(0, 1, 7)}, seed=11, counterexample_count=4)
    spec2 = _spec("d", "(unsigned-byte-p 6 x)", "(< (logcount x) 3)",
                  {"x": g_int(0, 1, 7)}, seed=11, counterexample_count=4)
    r1 = prove_gl_thm(spec1, defs, CFG, ProverOptions(mode="bdd"))
    r2 = prove_gl_thm(spec2, defs, CFG, ProverOptions(mode="bdd"))
    assert [cx.values for cx in r1.counterexamples] == \
        [cx.values for cx in r2.counterexamples]


def test_mode_agreement_small(defs):
    cases = [
        ("(unsigned-byte-p 6 x)", "(equal (logand x (lognot x)) 0)",
         {"x": g_int(0, 1, 7)}, "proved"),
        ("(unsigned-byte-p 4 x)", "(< x 10)", {"x": g_int(0, 1, 5)},
         "disproved"),
        ("(unsigned-byte-p 6 x)",
         "(equal (+ x x) (ash x 1))", {"x": g_int(0, 1, 7)}, "proved"),
    ]
    for hyp_src, concl_src, bindings, want in cases:
        for mode in ("bdd", "aig"):
            spec = _spec("m", hyp_src, concl_src, dict(bindings), seed=1)
            r = prove_gl_thm(spec, defs, CFG, ProverOptions(mode=mode))
            assert r.kind == want, (hyp_src, mode, r.kind)


# -- parametrized theorems ----------------------------------------------------

PARAM_CASES = [
    ({"msb": 1, "low": NIL}, lambda: {"x": g_int(32, -1, 33)}),
    ({"msb": 0, "low": 0}, lambda: {"x": g_int(0, 1, 33)}),
    ({"msb": 0, "low": 1}, lambda: {"x": g_int(5, 1, 33)}),
    ({"msb": 0, "low": 2}, lambda: {"x": g_int(0, 2, 33)}),
    ({"msb": 0, "low": 3}, lambda: {"x": g_int(3, 1, 33)}),
]


def _param_spec(defs, cases, **kw):
    return ParamTheoremSpec(
        name="fast-logcount-32-correct-alt",
        hyp=term("(unsigned-byte-p 32 x)"),
        concl=term("(equal (fast-logcount-32 x) (logcount x))"),
        param_bindings=[(dict(a), mk()) for a, mk in cases],
        param_hyp=term("(and (equal msb (ash x -31))"
                       " (or (equal msb 1) (equal (logand x 3) low)))"),
        cov_bindings={"x": g_int(0, 1, 33)},
        **kw)


def test_param_theorem_five_cases(defs, monkeypatch):
    run = []

    def recording(*args, **kwargs):
        r = prove_gl_thm(*args, **kwargs)
        run.append(r.stats)
        return r

    monkeypatch.setattr(prover, "prove_gl_thm", recording)
    spec = _param_spec(defs, PARAM_CASES)
    r = prove_gl_param_thm(spec, defs, CFG, ProverOptions(mode="bdd"))
    assert r.kind == "proved"
    # stats sum every obligation: the cases, then completeness
    assert len(run) == len(PARAM_CASES) + 1
    assert r.stats["steps"] > run[-1]["steps"]
    for key in ("steps", "merges", "nodes"):
        assert r.stats[key] == sum(s[key] for s in run), key
    for kind, n in r.stats["dispatch"].items():
        assert n == sum(s["dispatch"].get(kind, 0) for s in run), kind
    # the same key order as one obligation's, whatever the hash seed
    assert list(r.stats["dispatch"]) == list(run[0]["dispatch"])


def test_param_obligations_carry_the_theorem_options(defs, monkeypatch):
    specs = []
    monkeypatch.setattr(
        prover, "prove_gl_thm",
        lambda spec, *args: specs.append(spec) or prover.Proved())
    options = dict(mode="aig", do_not_expand=frozenset({"f"}),
                   counterexample_count=2, seed=9, coverage_only=True)
    spec = _param_spec(defs, PARAM_CASES, **options)
    assert prove_gl_param_thm(spec, defs, CFG).kind == "proved"
    assert len(specs) == len(PARAM_CASES) + 1
    for case_spec in specs:
        assert {k: getattr(case_spec, k) for k in options} == options


def test_param_theorem_dropped_case_fails_completeness(defs):
    for drop in range(1, 5):
        cases = PARAM_CASES[:drop] + PARAM_CASES[drop + 1:]
        spec = _param_spec(defs, cases, seed=drop)
        r = prove_gl_param_thm(spec, defs, CFG, ProverOptions(mode="bdd"))
        assert r.kind == "disproved"
        assert r.case == "completeness"
        dropped_low = PARAM_CASES[drop][0]["low"]
        for cx in r.counterexamples:
            assert cx.verified
            x = cx.values["x"]
            assert (x & 3) == dropped_low and (x >> 31) == 0


def test_param_theorem_single_trivial_case(defs):
    spec = ParamTheoremSpec(
        name="degenerate",
        hyp=term("(unsigned-byte-p 4 x)"),
        concl=term("(equal (logand x x) x)"),
        param_bindings=[({"c": 0}, {"x": g_int(0, 1, 5)})],
        param_hyp=term("t"),
        cov_bindings={"x": g_int(0, 1, 5)})
    r = prove_gl_param_thm(spec, defs, CFG, ProverOptions(mode="bdd"))
    assert r.kind == "proved"


def test_param_theorem_failing_case_is_tagged(defs):
    spec = ParamTheoremSpec(
        name="bad-case",
        hyp=term("(unsigned-byte-p 4 x)"),
        concl=term("(< x 8)"),
        param_bindings=[
            ({"hi": 0}, {"x": g_int(0, 1, 5)}),
            ({"hi": 1}, {"x": g_int(0, 1, 5)}),
        ],
        param_hyp=term("(equal hi (ash x -3))"),
        cov_bindings={"x": g_int(0, 1, 5)})
    r = prove_gl_param_thm(spec, defs, CFG, ProverOptions(mode="bdd"))
    assert r.kind == "disproved"
    assert r.case == "((hi 1))"
