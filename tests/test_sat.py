import random

import pytest

from bitblast.aig import FALSE, TRUE, AigStore
from bitblast.errors import SatBudgetExceeded
from bitblast.sat import BUDGET, SAT, UNSAT, Solver, lit_code, solve_cnf

from helpers import clauses_tt, random_cnf, var_mask


def php_clauses(pigeons, holes):
    def pv(i, j):
        return i * holes + j + 1

    clauses = [[pv(i, j) for j in range(holes)] for i in range(pigeons)]
    for j in range(holes):
        for i1 in range(pigeons):
            for i2 in range(i1 + 1, pigeons):
                clauses.append([-pv(i1, j), -pv(i2, j)])
    return pigeons * holes, clauses


def test_trivial_instances():
    kind, model = solve_cnf(0, [])
    assert kind is SAT and model == {}
    kind, model = solve_cnf(3, [])
    assert kind is SAT and len(model) == 3
    kind, _ = solve_cnf(1, [[1], [-1]])
    assert kind is UNSAT
    kind, _ = solve_cnf(1, [[]])
    assert kind is UNSAT
    kind, model = solve_cnf(2, [[1, -1]])  # tautology dropped
    assert kind is SAT


def test_pigeonhole_4_3_unsat():
    nv, clauses = php_clauses(4, 3)
    # exhaustive cross-check over all 2^12 assignments
    assert clauses_tt(clauses, nv) == 0
    kind, _ = solve_cnf(nv, clauses)
    assert kind is UNSAT


def test_assumptions():
    kind, model = solve_cnf(2, [[1, 2]], assumptions=[-1])
    assert kind is SAT and model[2] is True
    kind, _ = solve_cnf(2, [[1, 2]], assumptions=[-1, -2])
    assert kind is UNSAT


def test_model_soundness_and_completeness_1000():
    rng = random.Random(2024)
    for trial in range(1000):
        nv, clauses = random_cnf(rng)
        kind, model = solve_cnf(nv, clauses)
        brute_sat = clauses_tt(clauses, nv) != 0
        assert (kind is SAT) == brute_sat, (trial, clauses)
        if kind is SAT:
            assert len(model) == nv
            for clause in clauses:
                assert any((lit > 0) == model[abs(lit)] for lit in clause), \
                    (trial, clause, model)


def test_determinism():
    rng = random.Random(5)
    for trial in range(50):
        nv, clauses = random_cnf(rng)
        a = solve_cnf(nv, clauses)
        b = solve_cnf(nv, clauses)
        assert a == b


def test_conflict_budget():
    nv, clauses = php_clauses(7, 6)
    kind, _ = solve_cnf(nv, clauses, conflict_budget=10)
    assert kind is BUDGET
    kind, _ = solve_cnf(nv, clauses, conflict_budget=10 ** 6)
    assert kind is UNSAT


def test_witness_policies():
    store = AigStore()
    b0, b1 = store.var(0), store.var(1)
    # unsat -> none
    assert store.witness(store.and_(b0, store.not_(b0)), "zeros", [0]) is None
    # forced single literal under zeros: everything else defaults false
    env = store.witness(b0, "zeros", [0, 1, 2])
    assert env == {0: True, 1: False, 2: False}
    # or(b0, b1) under ones prefers both true
    env = store.witness(store.or_(b0, b1), "ones", [0, 1])
    assert env[0] is True and env[1] is True
    # witnesses satisfy the node; random is seed-deterministic
    node = store.or_(store.and_(b0, b1), store.var(2))
    for policy in ("zeros", "ones", "random"):
        env = store.witness(node, policy, [0, 1, 2], seed=4)
        assert store.eval(node, env) is True
        assert env == store.witness(node, policy, [0, 1, 2], seed=4)


def test_witness_budget_exhaustion():
    # pigeonhole 7/6 as an AIG: every pigeon in a hole, no hole shared
    store = AigStore(sat_conflict_budget=5)
    p = [[store.var(i * 6 + j) for j in range(6)] for i in range(7)]
    root = TRUE
    for row in p:
        some = FALSE
        for x in row:
            some = store.or_(some, x)
        root = store.and_(root, some)
    for j in range(6):
        for i1 in range(7):
            for i2 in range(i1 + 1, 7):
                root = store.and_(root,
                                  store.not_(store.and_(p[i1][j], p[i2][j])))
    with pytest.raises(SatBudgetExceeded):
        store.witness(root, "zeros", [])


def _extreme_models(tt, nvars, prefer):
    """The models in truth table tt that take, on every preferred
    variable, the value of tt's lexicographic extreme in prefer order."""
    full = (1 << (1 << nvars)) - 1
    for code in prefer:
        mask = var_mask((code >> 1) - 1, nvars)
        agree = tt & (full ^ mask if code & 1 else mask)
        if agree:
            tt = agree
    return tt


def test_prefer_gives_the_lexicographic_extreme_model():
    rng = random.Random(91)
    for trial in range(300):
        nv, clauses = random_cnf(rng, max_clauses=24)
        solver = Solver()
        for _ in range(nv):
            solver.new_var()
        for clause in clauses:
            solver.add_clause([lit_code(l) for l in clause])
        for _ in range(4):  # learnt clauses carry over between calls
            assumptions = [rng.choice((1, -1)) * rng.randrange(1, nv + 1)
                           for _ in range(rng.randrange(0, 3))]
            prefer = [2 * v + rng.randrange(2)
                      for v in rng.sample(range(1, nv + 1),
                                          rng.randrange(0, nv + 1))]
            kind, model = solver.solve([lit_code(a) for a in assumptions],
                                       prefer=prefer)
            tt = clauses_tt(clauses + [[a] for a in assumptions], nv)
            assert (kind is SAT) == (tt != 0), (trial, assumptions)
            if kind is SAT:
                k = sum(1 << (v - 1) for v in range(1, nv + 1) if model[v])
                assert _extreme_models(tt, nv, prefer) >> k & 1, \
                    (trial, clauses, assumptions, prefer)


def test_prefer_extreme_survives_restarts():
    # random 3-SAT at 60 variables: some calls pass the first restart
    # (64 conflicts).  A preferred literal the model does not take must
    # be refuted by the clauses under the model's earlier preferred
    # values, which fresh solves under assumptions check.
    rng = random.Random(3)
    longest = 0
    for trial in range(8):
        nv = 60
        clauses = [[rng.choice((1, -1)) * v
                    for v in rng.sample(range(1, nv + 1), 3)]
                   for _ in range(246)]
        solver = Solver()
        for _ in range(nv):
            solver.new_var()
        for clause in clauses:
            solver.add_clause([lit_code(l) for l in clause])
        order = rng.sample(range(1, nv + 1), nv)
        prefer = [2 * v + rng.randrange(2) for v in order]
        kind, model = solver.solve(prefer=prefer)
        longest = max(longest, solver.conflicts)
        assert kind is solve_cnf(nv, clauses)[0], trial
        if kind is not SAT:
            continue
        prefix = []
        for code in prefer:
            v, want = code >> 1, not code & 1
            if model[v] != want:
                lit = v if want else -v
                assert solve_cnf(nv, clauses, prefix + [lit])[0] is UNSAT, \
                    (trial, v)
            prefix.append(v if model[v] else -v)
    assert longest > 64


def test_literal_codes():
    assert [lit_code(l) for l in (1, -1, 2, -2)] == [2, 3, 4, 5]
    assert lit_code(-7) == lit_code(7) ^ 1


def _brute(clauses, nv, assumptions):
    return clauses_tt(clauses + [[a] for a in assumptions], nv) != 0


def test_incremental_solver_agrees_with_enumeration_and_fresh_solves():
    rng = random.Random(77)
    for trial in range(300):
        nv, clauses = random_cnf(rng, max_clauses=24)
        solver = Solver()
        for _ in range(nv):
            solver.new_var()
        added = []
        pending = list(clauses)
        while True:
            for _ in range(rng.randrange(1, 6)):
                if pending:
                    clause = pending.pop()
                    added.append(clause)
                    solver.add_clause([lit_code(l) for l in clause])
            for _ in range(rng.randrange(1, 4)):
                assumptions = [rng.choice((1, -1)) * rng.randrange(1, nv + 1)
                               for _ in range(rng.randrange(0, 4))]
                kind, model = solver.solve([lit_code(a) for a in assumptions])
                expect = _brute(added, nv, assumptions)
                assert (kind is SAT) == expect, (trial, added, assumptions)
                fresh, _ = solve_cnf(nv, added, assumptions=assumptions)
                assert fresh is kind, (trial, added, assumptions)
                if kind is SAT:
                    assert len(model) == nv + 1
                    for clause in added + [[a] for a in assumptions]:
                        assert any((l > 0) == model[abs(l)] for l in clause)
            if not pending:
                break


def test_budget_return_leaves_solver_usable():
    # pigeonhole 5/4 whose "each pigeon has a hole" clauses are relaxed
    # by a selector: UNSAT under -sel, SAT under sel
    nv, clauses = php_clauses(5, 4)
    sel = nv + 1
    solver = Solver()
    for _ in range(sel):
        solver.new_var()
    for clause in clauses:
        if clause[0] > 0:
            clause = clause + [sel]
        solver.add_clause([lit_code(l) for l in clause])
    assert solver.solve([lit_code(-sel)], conflict_budget=3) == (BUDGET, None)
    assert solver.conflicts == 4
    assert solver.solve([lit_code(-sel)]) == (UNSAT, None)
    kind, model = solver.solve([lit_code(sel)])
    assert kind is SAT and model[sel] is True
    assert solver.solve([lit_code(-sel)], conflict_budget=0) == (UNSAT, None)
    assert solver.calls == 4
