"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line (run with -s or -rA to see them on success)."""

import contextlib
import random
import time

import pytest

from bitblast.bdd import FALSE, BddStore
from bitblast.cli import run_file
from bitblast.engine import AigEngine, BddEngine
from bitblast.errors import StepLimitExceeded
from bitblast.interp import (
    Interp,
    InterpConfig,
    InterpState,
    register_preferred_def,
    sym_interp,
)
from bitblast.prover import ProverOptions, prove_gl_param_thm
from bitblast.sat import SAT, UNSAT, solve_cnf
from bitblast.symobj import Concrete, ConsObj, GNumber
from bitblast.toplevel import parse_file
from bitblast.values import NIL

from helpers import (
    all_envs,
    build_formula,
    clauses_tt,
    counterpart_oracle_suite,
    env_from_defs,
    formula_tt,
    random_cnf,
    random_formula,
    term,
)
from conftest import CORPUS


@contextlib.contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print("[criterion %2d] FAIL - %s" % (number, description))
        raise
    print("[criterion %2d] PASS - %s" % (number, description))


def _run(name, expect_status=None):
    report = run_file(str(CORPUS / name), keep_going=True)
    if expect_status is not None:
        assert report.exit_status == expect_status, (name, report.exit_status)
    return report


def test_criterion_01_fast_logcount_end_to_end():
    with criterion(1, "fast-logcount-32 proves in BDD mode under 10 s; "
                      "the 64-bit analogue under 60 s"):
        start = time.perf_counter()
        report = _run("fast_logcount_32.lisp", expect_status=0)
        elapsed32 = time.perf_counter() - start
        thm = [e for e in report.events if e.kind == "theorem"][0]
        assert thm.result["status"] == "proved"
        assert elapsed32 < 10.0, elapsed32

        start = time.perf_counter()
        report = _run("fast_logcount_64.lisp", expect_status=0)
        elapsed64 = time.perf_counter() - start
        thm = [e for e in report.events if e.kind == "theorem"][0]
        assert thm.result["status"] == "proved"
        assert elapsed64 < 60.0, elapsed64


def test_criterion_02_counterexample_reproduction():
    with criterion(2, "buggy multiply variant disproved with exact zeros/"
                      "ones counterexamples and a verified random one"):
        report = _run("fast_logcount_32_buggy.lisp", expect_status=1)
        thm = [e for e in report.events if e.kind == "theorem"][0]
        cxs = thm.result["counterexamples"]
        by_policy = {cx["policy"]: cx for cx in cxs}
        assert by_policy["zeros"]["values"]["x"]["decimal"] == 0x80000000
        assert by_policy["ones"]["values"]["x"]["decimal"] == 0xFFFFFFFF
        assert by_policy["random"]["verified"] is True
        assert all(cx["verified"] for cx in cxs)


def test_criterion_03_coverage_failure():
    with criterion(3, "32-bit signed binding fails coverage with witness "
                      "2147483648"):
        report = _run("fast_logcount_32_cov32.lisp", expect_status=2)
        thm = [e for e in report.events if e.kind == "theorem"][0]
        assert thm.result["status"] == "coverage-failed"
        assert thm.result["variable"] == "x"
        assert thm.result["witness"]["decimal"] == 2147483648


def test_criterion_04_parametrized_case_split():
    with criterion(4, "five-case split proves incl. completeness; deleting "
                      "any one case fails completeness with a verified "
                      "witness"):
        report = _run("fast_logcount_param.lisp", expect_status=0)
        thm = [e for e in report.events if e.kind == "theorem"][0]
        assert thm.result["status"] == "proved"

        defs, theorems, _ = parse_file(
            (CORPUS / "fast_logcount_param.lisp").read_text())
        spec = theorems[0]
        cfg = InterpConfig()
        for drop in range(len(spec.param_bindings)):
            import copy
            trimmed = copy.copy(spec)
            trimmed.param_bindings = (spec.param_bindings[:drop]
                                      + spec.param_bindings[drop + 1:])
            r = prove_gl_param_thm(trimmed, defs, cfg,
                                   ProverOptions(mode="bdd", seed=drop))
            assert r.kind == "disproved", drop
            assert r.case == "completeness"
            assert any(cx.verified for cx in r.counterexamples)
            dropped_assignment = spec.param_bindings[drop][0]
            for cx in r.counterexamples:
                x = cx.values["x"]
                msb, low = dropped_assignment["msb"], dropped_assignment["low"]
                assert (x >> 31) == msb
                if msb == 0:
                    assert (x & 3) == low


def test_criterion_05_indeterminate_diagnosis():
    with criterion(5, "integer-half is indeterminate; break-on-g-apply "
                      "names binary-* with argument 1/2"):
        report = _run("integer_half.lisp", expect_status=2)
        thm = [e for e in report.events if e.kind == "theorem"][0]
        assert thm.result["status"] == "indeterminate"

        report = run_file(str(CORPUS / "integer_half.lisp"),
                          break_on_g_apply=True)
        thm = [e for e in report.events if e.kind == "theorem"][0]
        assert thm.result["status"] == "indeterminate"
        assert "binary-*" in thm.result["offender"]
        assert "1/2" in thm.result["offender"]


def test_criterion_06_preferred_definitions():
    with criterion(6, "evenp theorem proves with the logbitp-based "
                      "preferred definition and is indeterminate without"):
        report = _run("evenp_preferred.lisp", expect_status=0)
        thm = [e for e in report.events if e.kind == "theorem"][0]
        assert thm.result["status"] == "proved"
        report = _run("evenp_no_preferred.lisp", expect_status=2)
        thm = [e for e in report.events if e.kind == "theorem"][0]
        assert thm.result["status"] == "indeterminate"


def test_criterion_07_counterpart_oracle_suite():
    with criterion(7, "exhaustive 4-bit counterpart/oracle agreement, "
                      "zero discrepancies, under 5 minutes"):
        start = time.perf_counter()
        for factory in (BddEngine, AigEngine):
            checked, bad = counterpart_oracle_suite(factory)
            assert not bad, bad[:3]
            assert checked > 30_000
        assert time.perf_counter() - start < 300.0


def test_criterion_08_bdd_canonicity():
    with criterion(8, "500 random formula pairs over <= 12 vars: node "
                      "identity iff truth-table equivalence"):
        rng = random.Random(1208)
        store = BddStore()
        for trial in range(500):
            nvars = rng.randrange(1, 13)
            e1 = random_formula(rng, nvars, 6)
            e2 = random_formula(rng, nvars, 6)
            n1, n2 = build_formula(store, e1), build_formula(store, e2)
            assert (n1 == n2) == (formula_tt(e1, nvars) == formula_tt(e2, nvars))
        store.check_invariants()


def test_criterion_09_parametrization_image():
    with criterion(9, "200 satisfiable constraints over <= 10 vars: "
                      "parametrized image equals the satisfying set"):
        rng = random.Random(1209)
        store = BddStore()
        done = 0
        while done < 200:
            nvars = rng.randrange(1, 11)
            constraint = build_formula(store, random_formula(rng, nvars, 5))
            if constraint == FALSE:
                continue
            done += 1
            idxs = list(range(nvars))
            sigma = store.parametrize(constraint, idxs)
            sat = set()
            image = set()
            for env in all_envs(nvars):
                if store.eval(constraint, env):
                    sat.add(tuple(env[i] for i in idxs))
                image.add(tuple(store.eval(sigma[i], env) for i in idxs))
            assert image == sat, done


MODE_CORPUS = [
    ("fast_logcount_16.lisp", ["proved"]),
    ("fast_logcount_32.lisp", ["proved"]),
    ("fast_logcount_32_cov32.lisp", ["coverage-failed"]),
    ("fast_logcount_param.lisp", ["proved"]),
    ("serial_logcount_16.lisp", ["proved"]),
    ("fast_logcount_32_buggy.lisp", ["disproved"]),
    ("bit_identities.lisp", ["proved"] * 5),
    ("alu_mode.lisp", ["proved", "proved"]),
    ("list_filter.lisp", ["proved"]),
    ("evenp_preferred.lisp", ["proved"]),
    ("evenp_no_preferred.lisp", ["indeterminate"]),
    ("integer_half.lisp", ["indeterminate"]),
    ("always_equal.lisp", ["proved", "indeterminate"]),
    ("word_mutants.lisp", ["disproved"] * 4),
    ("coverage_traps.lisp", ["coverage-failed"] * 2),
]


def _answers(result):
    """The counterexamples of every policy, the indeterminate examples
    and the coverage witness of a theorem result."""
    return (result.get("counterexamples"), result.get("examples"),
            result.get("witness"))


def test_criterion_10_mode_agreement():
    with criterion(10, "regression corpus verdicts, counterexamples of "
                       "every policy, indeterminate examples and coverage "
                       "witnesses identical in BDD and AIG modes"):
        for name, expected in MODE_CORPUS:
            verdicts = {}
            answers = {}
            for mode in ("bdd", "aig"):
                report = run_file(str(CORPUS / name), mode=mode,
                                  keep_going=True, seed=5)
                results = [e.result for e in report.events
                           if e.kind == "theorem"]
                verdicts[mode] = [r["status"] for r in results]
                answers[mode] = [_answers(r) for r in results]
            assert verdicts["bdd"] == verdicts["aig"] == expected, name
            assert answers["bdd"] == answers["aig"], name


def test_coverage_traps_fail_with_admitted_witnesses():
    # each witness satisfies its theorem's hypothesis, and the binding
    # (a 3-bit signed number) misses it
    for mode in ("bdd", "aig"):
        report = run_file(str(CORPUS / "coverage_traps.lisp"), mode=mode,
                          keep_going=True, seed=5)
        assert report.exit_status == 2, mode
        witnesses = [e.result["witness"]["text"] for e in report.events
                     if e.kind == "theorem"]
        assert witnesses == ["a", "-5"], mode


def test_aig_proofs_run_on_one_solver_each(monkeypatch):
    # every SAT question of an aig proof (vacuity, forced constants, the
    # decision, counterexamples) goes to the solver of its store's sweep
    import bitblast.aig
    import bitblast.prover
    import bitblast.sat

    per_proof = []  # solvers built since each make_engine call
    original = bitblast.prover.make_engine

    class CountedSolver(bitblast.sat.Solver):
        def __init__(self, *args, **kwargs):
            per_proof[-1] += 1
            super().__init__(*args, **kwargs)

    def make_engine(*args, **kwargs):
        per_proof.append(0)
        return original(*args, **kwargs)

    monkeypatch.setattr(bitblast.sat, "Solver", CountedSolver)
    monkeypatch.setattr(bitblast.aig, "Solver", CountedSolver)
    monkeypatch.setattr(bitblast.prover, "make_engine", make_engine)
    for name, _ in MODE_CORPUS:
        before = len(per_proof)
        run_file(str(CORPUS / name), mode="aig", keep_going=True, seed=5)
        assert len(per_proof) > before, name
        assert per_proof[before:] == [1] * (len(per_proof) - before), name


def test_criterion_11_sat_solver():
    with criterion(11, "1000 seeded CNFs agree with enumeration; "
                       "pigeonhole 4/3 unsat; runs are deterministic"):
        rng = random.Random(1211)
        for trial in range(1000):
            nv, clauses = random_cnf(rng)
            kind, model = solve_cnf(nv, clauses, seed=trial)
            assert (kind is SAT) == (clauses_tt(clauses, nv) != 0), trial
            if kind is SAT:
                for clause in clauses:
                    assert any((l > 0) == model[abs(l)] for l in clause)

        def pv(i, j):
            return i * 3 + j + 1
        clauses = [[pv(i, j) for j in range(3)] for i in range(4)]
        for j in range(3):
            for i1 in range(4):
                for i2 in range(i1 + 1, 4):
                    clauses.append([-pv(i1, j), -pv(i2, j)])
        kind, _ = solve_cnf(12, clauses)
        assert kind is UNSAT

        nv, clauses = random_cnf(random.Random(7), max_vars=12)
        runs = {solve_cnf(nv, clauses, seed=3, polarity="random")[0]
                for _ in range(3)}
        assert len(runs) == 1
        m1 = solve_cnf(nv, clauses, seed=3, polarity="random")
        m2 = solve_cnf(nv, clauses, seed=3, polarity="random")
        assert m1 == m2


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


def test_criterion_12_exponential_recursion_regression():
    with criterion(12, "doubled recursion over a 12-element symbolic list "
                       "blows a 1e5 step budget; the preferred definition "
                       "stays inside it"):
        defs = env_from_defs(FILTER_SRC)
        budget = 10 ** 5

        def symbolic_list(eng, n, bits=2):
            obj = Concrete(NIL)
            for k in range(n):
                obj = ConsObj(GNumber(tuple(eng.var(k * bits + i)
                                            for i in range(bits))), obj)
            return obj

        eng = BddEngine()
        state = InterpState(budget)
        with pytest.raises(StepLimitExceeded):
            sym_interp(term("(filter1 x)"), {"x": symbolic_list(eng, 12)},
                       defs, InterpConfig(step_limit=budget), eng, state)

        eng = BddEngine()
        cfg = register_preferred_def(InterpConfig(step_limit=budget),
                                     "filter1", term("(filter2 x)"), defs)
        state = InterpState(budget)
        sym_interp(term("(filter1 x)"), {"x": symbolic_list(eng, 12)}, defs,
                   cfg, eng, state)
        assert state.steps < budget
