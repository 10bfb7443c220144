import itertools
import random

import pytest

from bitblast.aig import witness_preference
from bitblast.bdd import FALSE, TRUE, BddStore
from bitblast.errors import (
    MissingAssignment,
    NodeBudgetExceeded,
    UnsatConstraint,
)

from helpers import (
    all_envs,
    bdd_tt,
    build_formula,
    extreme_witness,
    formula_tt,
    random_formula,
)


def test_var_basics():
    s = BddStore()
    b0 = s.var(0)
    assert s.eval(b0, {0: True}) is True
    assert s.eval(b0, {0: False}) is False
    assert s.var(0) == b0  # hash-consed
    assert s.eval(s.var(3), {3: False}) is False


def test_ite_identities():
    s = BddStore()
    x, y = s.var(0), s.var(1)
    assert s.ite(x, TRUE, FALSE) == x
    assert s.and_(x, s.not_(x)) == FALSE
    assert s.or_(s.and_(x, y), s.and_(x, s.not_(y))) == x
    assert s.not_(s.not_(x)) == x
    assert s.xor_(x, x) == FALSE
    assert s.iff_(x, x) == TRUE


def test_eval_requires_assignment():
    s = BddStore()
    with pytest.raises(MissingAssignment):
        s.eval(s.var(2), {0: True})


def test_eval_against_truth_table_oracle():
    rng = random.Random(11)
    s = BddStore()
    for _ in range(60):
        e = random_formula(rng, 8, 5)
        node = build_formula(s, e)
        assert bdd_tt(s, node, 8) == formula_tt(e, 8)
    s.check_invariants()


def test_canonicity_pairs():
    # node identity iff truth-table equality, on seeded random pairs
    rng = random.Random(404)
    s = BddStore()
    for trial in range(500):
        nvars = rng.randrange(1, 13)
        e1 = random_formula(rng, nvars, 6)
        e2 = random_formula(rng, nvars, 6)
        n1, n2 = build_formula(s, e1), build_formula(s, e2)
        same_fn = formula_tt(e1, nvars) == formula_tt(e2, nvars)
        assert (n1 == n2) == same_fn, (trial, e1, e2)
    s.check_invariants()


def test_store_invariants_after_random_operations():
    rng = random.Random(7)
    s = BddStore()
    nodes = [s.var(i) for i in range(6)]
    for _ in range(300):
        op = rng.choice(("and", "or", "xor", "not", "ite"))
        if op == "not":
            nodes.append(s.not_(rng.choice(nodes)))
        elif op == "ite":
            nodes.append(s.ite(rng.choice(nodes), rng.choice(nodes),
                               rng.choice(nodes)))
        else:
            nodes.append(getattr(s, op + "_")(rng.choice(nodes),
                                              rng.choice(nodes)))
    s.check_invariants()


def test_witness_policies():
    s = BddStore()
    b0, b1, b3 = s.var(0), s.var(1), s.var(3)
    assert s.witness(FALSE, "zeros") is None
    w = s.witness(b3, "zeros", indices=range(5))
    assert w == {3: True, 0: False, 1: False, 2: False, 4: False}
    w = s.witness(s.or_(b0, b1), "ones", indices=[0, 1])
    assert w == {0: True, 1: True}


def test_witness_extremal_property():
    # every policy gives the lexicographic extreme, in increasing index
    # order, towards witness_preference over the support and indices
    rng = random.Random(23)
    s = BddStore()
    for trial in range(120):
        nvars = rng.randrange(1, 9)
        node = build_formula(s, random_formula(rng, nvars, 5))
        tt = bdd_tt(s, node, nvars)
        indices = rng.sample(range(nvars + 3), rng.randrange(0, nvars + 1))
        for policy in ("zeros", "ones", "random"):
            want = witness_preference(policy, s.support(node) | set(indices),
                                      trial)
            assert (s.witness(node, policy, indices, seed=trial)
                    == extreme_witness(tt, nvars, want)), (trial, policy)


def test_compose_law_exhaustive():
    rng = random.Random(31)
    s = BddStore()
    for _ in range(40):
        node = build_formula(s, random_formula(rng, 6, 4))
        sigma = {i: build_formula(s, random_formula(rng, 6, 3))
                 for i in range(6)}
        composed = s.compose(node, sigma)
        for env in all_envs(6):
            inner = {i: s.eval(sigma[i], env) for i in range(6)}
            assert s.eval(composed, env) == s.eval(node, inner)


def test_compose_missing_entry():
    s = BddStore()
    with pytest.raises(MissingAssignment):
        s.compose(s.var(4), {0: TRUE})


def test_compose_identity():
    s = BddStore()
    n = s.and_(s.var(0), s.var(1))
    assert s.compose(n, {0: s.var(0), 1: s.var(1)}) == n
    assert s.compose(s.var(0), {0: TRUE}) == TRUE


def _image(s, sigma, idxs):
    out = set()
    for env in all_envs(max(idxs) + 1):
        out.add(tuple(s.eval(sigma[i], env) for i in idxs))
    return out


def test_parametrize_basics():
    s = BddStore()
    sigma = s.parametrize(TRUE, [0, 1, 2])
    assert sigma == {0: s.var(0), 1: s.var(1), 2: s.var(2)}
    sigma = s.parametrize(s.var(0), [0])
    assert sigma == {0: TRUE}
    with pytest.raises(UnsatConstraint):
        s.parametrize(FALSE, [0])
    with pytest.raises(MissingAssignment):
        s.parametrize(s.var(5), [0, 1])


def test_parametrize_or_example():
    s = BddStore()
    sigma = s.parametrize(s.or_(s.var(0), s.var(1)), [0, 1])
    assert _image(s, sigma, [0, 1]) == {(False, True), (True, False),
                                        (True, True)}


def test_parametrize_image_property():
    # the image over all environments equals the satisfying set, exactly
    rng = random.Random(77)
    s = BddStore()
    done = 0
    while done < 200:
        nvars = rng.randrange(1, 11)
        node = build_formula(s, random_formula(rng, nvars, 5))
        if node == FALSE:
            continue
        done += 1
        idxs = list(range(nvars))
        sigma = s.parametrize(node, idxs)
        sat = {tuple(env[i] for i in idxs) for env in all_envs(nvars)
               if s.eval(node, env)}
        assert _image(s, sigma, idxs) == sat, (done, nvars)


def test_node_budget():
    s = BddStore(node_budget=20)
    with pytest.raises(NodeBudgetExceeded):
        for i in range(40):
            s.var(i)


def _build_until_refused(s, rng, nvars, trials):
    """Build seeded random formulas over nvars variables; {truth table:
    set of handles} of those the store built, and how many it refused."""
    by_tt, refused = {}, 0
    for _ in range(trials):
        e = random_formula(rng, nvars, 6)
        try:
            node = build_formula(s, e)
        except NodeBudgetExceeded:
            refused += 1
            continue
        by_tt.setdefault(formula_tt(e, nvars), set()).add(node)
    return by_tt, refused


def _assert_canonical(s, by_tt, nvars):
    # one handle per function, and that handle computes the function, so
    # handles are equal exactly when the formulas are
    for tt, handles in by_tt.items():
        assert len(handles) == 1, (tt, handles)
        assert bdd_tt(s, next(iter(handles)), nvars) == tt
    s.check_invariants()


def test_packed_keys_injective_across_field_boundary():
    # budget 40 gives 6-bit key fields; ids 32..40 set their top bit
    rng = random.Random(2024)
    s = BddStore(node_budget=40)
    by_tt, refused = _build_until_refused(s, rng, 4, 300)
    assert refused > 0 and s.num_nodes == 41
    _assert_canonical(s, by_tt, 4)
    # every operation over every node of the full store: a key packed
    # into too narrow a field meets the key it collides with here
    full = (1 << 16) - 1
    tts = {n: bdd_tt(s, n, 4) for n in range(s.num_nodes)}
    ops = ((s.and_, int.__and__), (s.or_, int.__or__),
           (s.xor_, int.__xor__),
           (s.ite, lambda a, b, c: (a & b) | (~a & full & c)))
    for op, fn in ops:
        arity = 3 if op == s.ite else 2
        for args in itertools.product(tts, repeat=arity):
            try:
                r = op(*args)
            except NodeBudgetExceeded:
                continue
            assert tts[r] == fn(*(tts[a] for a in args)), (op, args)
    s.check_invariants()


def test_packed_keys_wide_fields():
    # a budget past 2**40 gives 41-bit fields and three-digit keys
    rng = random.Random(2025)
    s = BddStore(node_budget=2 ** 40)
    by_tt, refused = _build_until_refused(s, rng, 7, 300)
    assert refused == 0
    _assert_canonical(s, by_tt, 7)


def test_raised_budget_cannot_overflow_key_fields():
    # the field width is fixed at construction: budget 100 -> 7 bits, so
    # node 128 is refused however far the budget is raised
    rng = random.Random(2026)
    s = BddStore(node_budget=100)
    s.node_budget = 10 ** 9
    by_tt, refused = _build_until_refused(s, rng, 7, 300)
    assert refused > 0 and s.num_nodes == 128
    _assert_canonical(s, by_tt, 7)
    with pytest.raises(NodeBudgetExceeded):
        for i in range(200):
            s.var(i)
