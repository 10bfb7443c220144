import random

import pytest

from bitblast.aig import AigStore
from bitblast.errors import SatBudgetExceeded
from bitblast.sat import (
    BUDGET, SAT, UNSAT, Solver, lit_code, sat_witness, solve_cnf,
)

from helpers import clauses_tt, random_cnf


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
        kind, model = solve_cnf(nv, clauses, seed=trial)
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
        a = solve_cnf(nv, clauses, seed=9, polarity="random")
        b = solve_cnf(nv, clauses, seed=9, polarity="random")
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
    cnf, out = store.to_cnf(store.and_(b0, store.not_(b0)))
    assert sat_witness(cnf, out, "zeros", [0], cnf.var_map) is None
    # forced single literal under zeros: everything else defaults false
    cnf, out = store.to_cnf(b0)
    env = sat_witness(cnf, out, "zeros", [0, 1, 2], cnf.var_map)
    assert env == {0: True, 1: False, 2: False}
    # or(b0, b1) under ones prefers both true
    cnf, out = store.to_cnf(store.or_(b0, b1))
    env = sat_witness(cnf, out, "ones", [0, 1], cnf.var_map)
    assert env[0] is True and env[1] is True
    # witnesses satisfy the node; random is seed-deterministic
    node = store.or_(store.and_(b0, b1), store.var(2))
    cnf, out = store.to_cnf(node)
    for policy in ("zeros", "ones", "random"):
        env = sat_witness(cnf, out, policy, [0, 1, 2], cnf.var_map, seed=4)
        assert store.eval(node, env) is True
        assert env == sat_witness(cnf, out, policy, [0, 1, 2], cnf.var_map,
                                  seed=4)


def test_witness_budget_exhaustion():
    nv, clauses = php_clauses(7, 6)
    from bitblast.aig import Cnf
    cnf = Cnf(num_vars=nv, clauses=clauses, var_map={})
    with pytest.raises(SatBudgetExceeded):
        sat_witness(cnf, 1, "zeros", [], {}, conflict_budget=5)


def test_literal_codes():
    assert [lit_code(l) for l in (1, -1, 2, -2)] == [2, 3, 4, 5]
    assert lit_code(-7) == lit_code(7) ^ 1


def _brute(clauses, nv, assumptions):
    return clauses_tt(clauses + [[a] for a in assumptions], nv) != 0


def test_incremental_solver_agrees_with_enumeration_and_fresh_solves():
    rng = random.Random(77)
    for trial in range(300):
        nv, clauses = random_cnf(rng, max_clauses=24)
        solver = Solver(seed=trial)
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
