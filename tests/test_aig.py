import random
from pathlib import Path

import pytest

from bitblast.aig import (
    FALSE, SWEEP_STATS, TRUE, AigStore, forced_constants,
    witness_preference,
)
from bitblast.bdd import BddStore
from bitblast.engine import AigEngine
from bitblast.errors import NodeBudgetExceeded, SatBudgetExceeded, UnsatConstraint
from bitblast.sat import SAT, UNSAT, parse_dimacs, solve_cnf

from helpers import (
    aig_tt,
    all_envs,
    build_formula,
    clauses_tt,
    extreme_witness,
    formula_tt,
    random_formula,
    var_mask,
)


def test_local_simplifications():
    s = AigStore()
    x, y = s.var(0), s.var(1)
    assert s.and_(x, TRUE) == x
    assert s.and_(TRUE, x) == x
    assert s.and_(x, FALSE) == FALSE
    assert s.and_(x, x) == x
    assert s.and_(x, s.not_(x)) == FALSE
    assert s.not_(s.not_(x)) == x
    assert s.and_(x, y) == s.and_(x, y)  # hash-consed


def test_double_negation_of_structure():
    s = AigStore()
    a, b = s.var(0), s.var(1)
    n = s.xor_(a, b)
    assert s.not_(s.not_(n)) == n


def test_equivalent_builds_not_identical():
    # structurally different but equivalent: distribution of and over or
    s = AigStore()
    a, b, c = s.var(0), s.var(1), s.var(2)
    lhs = s.and_(a, s.or_(b, c))
    rhs = s.or_(s.and_(a, b), s.and_(a, c))
    assert lhs != rhs
    assert aig_tt(s, lhs, 3) == aig_tt(s, rhs, 3)


def test_eval_against_oracle():
    rng = random.Random(3)
    s = AigStore()
    for _ in range(60):
        e = random_formula(rng, 8, 5)
        node = build_formula(s, e)
        assert aig_tt(s, node, 8) == formula_tt(e, 8)
    for env in all_envs(2):
        node = s.and_(s.var(0), s.not_(s.var(1)))
        assert s.eval(node, env) == (env[0] and not env[1])


def test_support_and_substitute():
    s = AigStore()
    a, b, c = s.var(0), s.var(1), s.var(2)
    n = s.or_(s.and_(a, b), c)
    assert s.support(n) == {0, 1, 2}
    m = s.substitute(n, {2: False})
    assert s.support(m) == {0, 1}
    for env in all_envs(2):
        assert s.eval(m, env) == (env[0] and env[1])
    assert s.substitute(n, {0: True, 1: True}) == TRUE


def test_tseitin_trivial_cases():
    s = AigStore()
    cnf, out = s.to_cnf(TRUE)
    assert cnf.clauses == [] and out > 0
    kind, _ = solve_cnf(cnf.num_vars, cnf.clauses, assumptions=[out])
    assert kind is SAT
    cnf, out = s.to_cnf(FALSE)
    kind, _ = solve_cnf(cnf.num_vars, cnf.clauses, assumptions=[out])
    assert kind is UNSAT
    x = s.var(0)
    cnf, out = s.to_cnf(x)
    assert cnf.var_map[0] == out


def test_tseitin_and_models():
    s = AigStore()
    n = s.and_(s.var(0), s.var(1))
    cnf, out = s.to_cnf(n)
    # every model of cnf + out has both inputs true
    nv = cnf.num_vars
    tt = clauses_tt(cnf.clauses + [[out]], nv)
    for k in range(1 << nv):
        if (tt >> k) & 1:
            assert (k >> (cnf.var_map[0] - 1)) & 1
            assert (k >> (cnf.var_map[1] - 1)) & 1


def test_tseitin_equisatisfiable_exhaustive():
    # SAT(node) by evaluation iff SAT(cnf + out) by the solver, and
    # solver models satisfy the node through var_map
    rng = random.Random(17)
    s = AigStore()
    for trial in range(150):
        nvars = rng.randrange(1, 9)
        e = random_formula(rng, nvars, 5)
        node = build_formula(s, e)
        cnf, out = s.to_cnf(node)
        kind, model = solve_cnf(cnf.num_vars, cnf.clauses, assumptions=[out])
        sat_by_eval = aig_tt(s, node, nvars) != 0
        assert (kind is SAT) == sat_by_eval, (trial, e)
        if kind is SAT:
            env = {i: model[cv] for i, cv in cnf.var_map.items()}
            for i in range(nvars):
                env.setdefault(i, False)
            assert s.eval(node, env) is True


def test_to_cnf_writes_the_clauses_the_sweep_gives_its_solver():
    # one Tseitin encoder: to_cnf's clauses, numbering and var_map are
    # those a proof's solver gets for the same root
    def signed(code):
        return -(code >> 1) if code & 1 else code >> 1

    rng = random.Random(23)
    for trial in range(150):
        s = AigStore()  # a fresh solver, numbering from zero
        nvars = rng.randrange(1, 9)
        node = build_formula(s, random_formula(rng, nvars, 5))
        if node in (TRUE, FALSE):
            continue
        given = []
        add = s.solver.add_clause
        s.solver.add_clause = lambda codes: (
            given.append([signed(c) for c in codes]), add(codes))
        code = s._lit(node)
        cnf, out = s.to_cnf(node)
        assert cnf.clauses == given, trial
        assert (cnf.num_vars, out) == (s.solver.nvars, signed(code))
        assert cnf.var_map == {i: s._var[n]
                               for i, n in s._inputs(node).items()}


def test_dimacs_round_trip():
    s = AigStore()
    n = s.or_(s.and_(s.var(0), s.var(1)), s.not_(s.var(2)))
    cnf, out = s.to_cnf(n)
    text = cnf.to_dimacs()
    assert text.startswith("p cnf %d %d" % (cnf.num_vars, len(cnf.clauses)))
    nv, clauses = parse_dimacs(text)
    assert nv == cnf.num_vars
    assert clauses == cnf.clauses


def test_forced_constants():
    s = AigStore()
    b0, b1, b3 = s.var(0), s.var(1), s.var(3)
    assert forced_constants(s, b3, [3]) == {3: True}
    assert forced_constants(s, s.or_(b0, b1), [0, 1]) == {}
    constraint = s.and_(b0, s.iff_(b1, b0))
    assert forced_constants(s, constraint, [0, 1]) == \
        {0: True, 1: True}
    assert forced_constants(s, s.not_(b0), [0, 1]) == {0: False}
    with pytest.raises(UnsatConstraint):
        forced_constants(s, FALSE, [0])


def _expected_forced(s, node, nvars, indices):
    """Forced constants read off the truth table, or None when no row
    satisfies node: an index in node's cone that every satisfying row
    gives the same value."""
    tt = aig_tt(s, node, nvars)
    if not tt:
        return None
    cone = s.support(node)
    out = {}
    for i in indices:
        if i in cone:
            m = var_mask(i, nvars)
            if tt & m in (0, tt):
                out[i] = tt & m == tt
    return out


def _some_literals(s, rng, nvars):
    """AND of a random subset of the inputs, each with a random sign."""
    acc = TRUE
    for i in rng.sample(range(nvars), rng.randrange(nvars + 1)):
        acc = s.and_(acc, s.var(i) if rng.random() < 0.5 else -s.var(i))
    return acc


def test_forced_constants_match_the_truth_table():
    rng = random.Random(23)
    prepared = dict.fromkeys(SWEEP_STATS, 0)
    seen = {"forced": 0, "free": 0, "outside": 0, "unsat": 0}
    for trial in range(64):
        eng = AigEngine()  # five constraints share one sweep and its solver
        s = eng.store
        for k in range(5):
            nvars = rng.randrange(1, 9)
            f = build_formula(s, random_formula(rng, nvars, 5))
            g = build_formula(s, random_formula(rng, nvars, 5))
            lits = _some_literals(s, rng, nvars)
            node = (f, s.and_(f, lits), s.and_(s.or_(f, g), lits),
                    s.or_(s.and_(s.xor_(f, g), lits), s.and_(f, g)))[k % 4]
            if trial % 2:
                # the sweep merges nodes and learns clauses first
                before = eng.sat_stats()
                eng.satisfiable(s.xor_(f, g))
                eng.valid(s.or_(g, lits))
                for key, n in eng.sat_stats().items():
                    prepared[key] += n - before[key]
            # indices past the inputs, and inputs outside node's cone
            indices = rng.sample(range(nvars + 3), rng.randrange(nvars + 4))
            expected = _expected_forced(s, node, nvars, indices)
            if expected is None:
                seen["unsat"] += 1
                with pytest.raises(UnsatConstraint):
                    forced_constants(s, node, indices)
                continue
            assert forced_constants(s, node, indices) == expected, (trial, k)
            cone = s.support(node)
            seen["forced"] += len(expected)
            seen["free"] += len(cone.intersection(indices)) - len(expected)
            seen["outside"] += len(set(indices) - cone)
    assert all(seen.values()), seen
    assert prepared["sweep_merges"] > 0 and prepared["sat_conflicts"] > 0


def _guarded_miters(eng, width):
    """(miter_0 OR z_0) AND (miter_1 OR z_1), each miter a commutativity
    miter over its own inputs: the guards z_0 = var 100 and z_1 = var
    101 are forced true, and proving each takes conflicts."""
    s = eng.store
    return s.and_(*(s.or_(_commutativity_miter(eng, width, 2 * width * k),
                          s.var(100 + k)) for k in range(2)))


def test_forced_constants_share_one_conflict_budget():
    def conflicts(indices, budget=None):
        eng = AigEngine(sat_conflict_budget=budget)
        constraint = _guarded_miters(eng, 4)
        forced = forced_constants(eng, constraint, indices)
        assert forced == {i: True for i in indices if i >= 100}
        return eng.sat_stats()["sat_conflicts"]

    every = list(range(16)) + [100, 101]  # all inputs and both guards
    one, other, both = conflicts([100]), conflicts([101]), conflicts(every)
    assert 0 < one < both and 0 < other < both
    # all the solves of one call draw on the one budget: it covers their
    # total conflicts, and not one fewer
    assert conflicts(every, both) == both
    with pytest.raises(SatBudgetExceeded):
        conflicts(every, max(one, other))
    with pytest.raises(SatBudgetExceeded):
        conflicts(every, both - 1)


def test_cross_check_with_canonical_engine():
    # equivalence verdicts agree: canonical identity vs xor-is-unsat
    rng = random.Random(99)
    for trial in range(1000):
        nvars = rng.randrange(1, 11)
        e1 = random_formula(rng, nvars, 4)
        e2 = random_formula(rng, nvars, 4)
        bs = BddStore()
        b1, b2 = build_formula(bs, e1), build_formula(bs, e2)
        bdd_equiv = b1 == b2
        as_ = AigStore()
        a1, a2 = build_formula(as_, e1), build_formula(as_, e2)
        miter = as_.xor_(a1, a2)
        if miter == FALSE:
            aig_equiv = True
        elif miter == TRUE:
            aig_equiv = False
        else:
            cnf, out = as_.to_cnf(miter)
            kind, _ = solve_cnf(cnf.num_vars, cnf.clauses,
                                assumptions=[out])
            aig_equiv = kind is UNSAT
        assert bdd_equiv == aig_equiv, (trial, e1, e2)


def test_node_budget():
    s = AigStore(node_budget=10)
    with pytest.raises(NodeBudgetExceeded):
        acc = TRUE
        for i in range(50):
            acc = s.and_(acc, s.var(i))


def _cube(s, rng, nvars):
    """AND of every input, each with a random sign: true on one minterm."""
    acc = TRUE
    for i in range(nvars):
        acc = s.and_(acc, s.var(i) if rng.random() < 0.5 else -s.var(i))
    return acc


def test_sweep_agrees_with_exhaustive_evaluation():
    rng = random.Random(41)
    totals = dict.fromkeys(SWEEP_STATS, 0)
    for trial in range(50):
        eng = AigEngine()  # ten queries share one sweep and its solver
        s = eng.store
        for k in range(10):
            nvars = 10 if k % 2 else rng.randrange(1, 11)
            f = build_formula(s, random_formula(rng, nvars, 5))
            g = build_formula(s, random_formula(rng, nvars, 5))
            cube = _cube(s, rng, nvars)
            node = (f, cube, s.and_(f, cube), s.xor_(f, s.or_(f, cube)),
                    s.xor_(f, g), s.or_(s.xor_(f, g), cube),
                    s.iff_(s.and_(f, g), s.and_(g, f)))[(trial + k) % 7]
            tt = aig_tt(s, node, nvars)
            assert eng.satisfiable(node) == (tt != 0), (trial, k)
            assert eng.valid(node) == (tt == (1 << (1 << nvars)) - 1), \
                (trial, k)
            if tt:
                low = (tt & -tt).bit_length() - 1
                assert s.eval(node, {j: bool(low >> j & 1)
                                     for j in range(nvars)}) is True
        for key, n in eng.sat_stats().items():
            totals[key] += n
    # every path of the sweep ran: proved merges and refuted candidates
    assert totals["sweep_merges"] > 0 and totals["sweep_refuted"] > 0
    assert totals["sweep_candidates"] == (totals["sweep_merges"]
                                          + totals["sweep_refuted"])
    assert totals["sat_calls"] > 0 and totals["sat_conflicts"] > 0


def test_witness_preference():
    assert witness_preference("zeros", [3, 0, 3]) == {0: False, 3: False}
    assert witness_preference("ones", {2, 1}) == {1: True, 2: True}
    rng = random.Random(7)
    draws = [rng.random() < 0.5 for _ in range(4)]
    pref = witness_preference("random", [9, 2, 5, 0, 2], seed=7)
    assert list(pref.items()) == list(zip([0, 2, 5, 9], draws))
    with pytest.raises(ValueError, match="unknown witness policy"):
        witness_preference("bogus", [])


def test_sweep_witness_is_the_exact_extreme():
    rng = random.Random(17)
    swept = dict.fromkeys(SWEEP_STATS, 0)
    for trial in range(60):
        eng = AigEngine()  # eight queries share one sweep and its solver
        s = eng.store
        for k in range(8):
            nvars = rng.randrange(1, 9)
            f = build_formula(s, random_formula(rng, nvars, 5))
            g = build_formula(s, random_formula(rng, nvars, 5))
            cube = _cube(s, rng, nvars)
            node = (f, s.and_(f, cube), s.or_(s.xor_(f, g), cube),
                    s.and_(s.xor_(f, g), s.or_(f, cube)))[k % 4]
            if trial % 2:
                # the solver has answered other queries first
                eng.satisfiable(s.xor_(f, g))
                eng.valid(s.or_(g, cube))
            indices = rng.sample(range(nvars + 3), rng.randrange(0, 4))
            tt = aig_tt(s, node, nvars)
            for policy in ("zeros", "ones", "random"):
                want = witness_preference(
                    policy, s.support(node) | set(indices), trial)
                assert (eng.witness(node, policy, indices, seed=trial)
                        == extreme_witness(tt, nvars, want)), \
                    (trial, k, policy)
        if trial % 2:
            for key, n in eng.sat_stats().items():
                swept[key] += n
    # the earlier queries merged nodes and left learnt clauses behind
    assert swept["sweep_merges"] > 0 and swept["sat_conflicts"] > 0


def _product(s, xs, ys):
    """Low len(xs) bits of xs * ys, shift-and-add, least bit first."""
    acc = [FALSE] * len(xs)
    for j, y in enumerate(ys):
        carry = FALSE
        for i in range(j, len(xs)):
            p = s.and_(xs[i - j], y)
            acc[i], carry = (s.xor_(s.xor_(acc[i], p), carry),
                             s.or_(s.and_(acc[i], p),
                                   s.and_(carry, s.xor_(acc[i], p))))
    return acc


def _commutativity_miter(eng, width, base=0):
    s = eng.store
    xs = [s.var(base + i) for i in range(width)]
    ys = [s.var(base + width + i) for i in range(width)]
    miter = FALSE
    for p, q in zip(_product(s, xs, ys), _product(s, ys, xs)):
        miter = s.or_(miter, s.xor_(p, q))
    return miter


def test_sweep_charges_every_conflict_to_the_budget():
    eng = AigEngine()
    assert not eng.satisfiable(_commutativity_miter(eng, 5))
    stats = eng.sat_stats()
    used = stats["sat_conflicts"]
    assert stats["sweep_merges"] > 0 and stats["sat_calls"] > 2
    assert used > 0
    # the whole query fits a budget of its total conflicts, and not one
    # fewer: the budget covers every solve of the sweep, not each one
    eng = AigEngine(sat_conflict_budget=used)
    assert not eng.satisfiable(_commutativity_miter(eng, 5))
    eng = AigEngine(sat_conflict_budget=used - 1)
    with pytest.raises(SatBudgetExceeded):
        eng.satisfiable(_commutativity_miter(eng, 5))


MITER = Path(__file__).parent / "fixtures" / "fast_logcount_16_miter.cnf"


def _aig_from_tseitin(store, num_vars, clauses):
    """The AIG a `to_cnf` output plus its output unit encodes, rebuilt
    bottom-up: variable v is an AND gate when the clause [v, -a, -b]
    defines it, an input otherwise.  Returns the output handle."""
    gates = {c[0]: (-c[1], -c[2]) for c in clauses if len(c) == 3}
    (out,) = [c[0] for c in clauses if len(c) == 1]
    handle = {}
    for v in range(1, num_vars + 1):
        if v in gates:
            a, b = gates[v]
            handle[v] = store.and_(handle[abs(a)] * (1 if a > 0 else -1),
                                   handle[abs(b)] * (1 if b > 0 else -1))
        else:
            handle[v] = store.var(v)
    return handle[abs(out)] * (1 if out > 0 else -1)


def test_logcount16_miter_fixture_is_unsat_both_ways():
    # the decide-stage miter of fast_logcount_16, written once with
    # Cnf.to_dimacs (output unit included)
    num_vars, clauses = parse_dimacs(MITER.read_text())
    kind, _ = solve_cnf(num_vars, clauses)
    assert kind is UNSAT
    eng = AigEngine()
    root = _aig_from_tseitin(eng.store, num_vars, clauses)
    assert eng.store.num_nodes == num_vars
    assert not eng.satisfiable(root)
    stats = eng.sat_stats()
    assert stats["sweep_merges"] > 0 and stats["sat_conflicts"] > 0
