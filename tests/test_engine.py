"""The stores are the engines: the protocol both modes expose, and the
rule that internal calls never go through the public operation names."""

import random

import pytest

from bitblast.aig import SWEEP_STATS, AigStore
from bitblast.bdd import BddStore
from bitblast.engine import make_engine

from helpers import build_formula, random_formula

PROTOCOL = ("mode", "true", "false", "const", "var", "not_", "and_", "or_",
            "xor_", "iff_", "ite", "is_true", "is_false", "eval", "support",
            "valid", "satisfiable", "witness", "sat_stats", "num_nodes")

# the operations a tracer wraps on an engine instance
OPS = ("const", "var", "not_", "and_", "or_", "xor_", "iff_", "ite")
QUERIES = ("satisfiable", "valid", "witness")


@pytest.mark.parametrize("mode,cls", [("bdd", BddStore), ("aig", AigStore)])
def test_make_engine_exposes_the_protocol(mode, cls):
    eng = make_engine(mode)
    assert type(eng) is cls and eng.mode == mode
    for name in PROTOCOL:
        assert hasattr(eng, name), name
    assert eng.is_true(eng.true) and eng.is_false(eng.false)
    assert eng.const(True) == eng.true and eng.const(False) == eng.false
    x = eng.var(0)
    assert eng.valid(eng.or_(x, eng.not_(x)))
    assert eng.satisfiable(x) and not eng.satisfiable(eng.and_(x, eng.not_(x)))
    assert eng.witness(x, "zeros", [0, 1]) == {0: True, 1: False}
    assert eng.sat_stats().keys() == set(SWEEP_STATS)
    assert isinstance(eng.num_nodes, int)
    assert eng.store is eng
    # budgets left as None take the store's own defaults
    assert eng.node_budget == cls().node_budget


@pytest.mark.parametrize("cls", [BddStore, AigStore])
def test_witness_rejects_an_unknown_policy(cls):
    s = cls()
    for node in (s.true, s.false, s.var(0)):
        for indices in ((), [0]):
            with pytest.raises(ValueError, match="unknown witness policy"):
                s.witness(node, "bogus", indices)


def test_witnesses_agree_across_stores():
    # the same formulas in both stores give the same witness for every
    # policy and seed, once the indices cover the variables
    rng = random.Random(41)
    bdd, aig = BddStore(), AigStore()
    for trial in range(80):
        nvars = rng.randrange(1, 10)
        e = random_formula(rng, nvars, 6)
        f, g = build_formula(bdd, e), build_formula(aig, e)
        indices = range(nvars + rng.randrange(0, 3))
        for policy in ("zeros", "ones", "random"):
            for seed in range(3):
                assert (bdd.witness(f, policy, indices, seed)
                        == aig.witness(g, policy, indices, seed)), \
                    (trial, policy, seed)


def test_make_engine_budgets_and_unknown_mode():
    assert make_engine("bdd", node_budget=7).node_budget == 7
    eng = make_engine("aig", node_budget=9, sat_conflict_budget=11)
    assert (eng.node_budget, eng.sat_conflict_budget) == (9, 11)
    assert make_engine("aig").sat_conflict_budget == \
        AigStore().sat_conflict_budget
    with pytest.raises(ValueError):
        make_engine("zdd")


def _count_public_ops(eng):
    """Wrap the public operations and queries on the instance, as the
    benchmark's tracer does, each with its own call counter."""
    counts = dict.fromkeys(OPS + QUERIES, 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in counts:
        setattr(eng, name, counted(name, getattr(eng, name)))
    return counts


def _word(eng, base, width):
    return [eng.var(base + 2 * i) for i in range(width)]


def _sum_bits(eng, xs, ys, majority=False):
    """Ripple-carry sum, built through the public operations; the carry
    as a majority of three is the same function in another structure."""
    carry, out = eng.false, []
    for x, y in zip(xs, ys):
        out.append(eng.xor_(eng.xor_(x, y), carry))
        if majority:
            carry = eng.or_(eng.or_(eng.and_(x, y), eng.and_(x, carry)),
                            eng.and_(y, carry))
        else:
            carry = eng.or_(eng.and_(x, y), eng.and_(carry, eng.xor_(x, y)))
    return out, carry


@pytest.mark.parametrize("mode", ["bdd", "aig"])
def test_internal_calls_skip_the_public_names(mode):
    eng = make_engine(mode)
    xs, ys = _word(eng, 0, 5), _word(eng, 1, 5)
    total, carry = _sum_bits(eng, xs, ys)
    counts = _count_public_ops(eng)

    def only(name):
        """Every counter is zero but `name`, which moved by one."""
        moved = {k: n for k, n in counts.items() if n}
        for k in counts:
            counts[k] = 0
        assert moved == ({name: 1} if name else {})

    eng.xor_(total[4], carry)
    only("xor_")
    eng.iff_(total[3], carry)
    only("iff_")
    eng.or_(total[2], carry)
    only("or_")
    eng.not_(total[1])
    only("not_")
    t, f = eng.true, eng.false
    for g, h in ((t, total[4]), (f, total[4]), (total[4], f),
                 (total[4], t), (f, t)):  # the terminal shortcuts
        eng.ite(carry, g, h)
        only("ite")
    eng.ite(xs[0], total[4], total[3])
    only("ite")
    eng.satisfiable(eng.false)
    only("satisfiable")
    # the same sum in another structure: the aig sweep must rebuild
    # and merge it, solving on the way
    twin, twin_carry = _sum_bits(eng, xs, ys, majority=True)
    agree = eng.iff_(carry, twin_carry)
    for a, b in zip(total, twin):
        agree = eng.and_(agree, eng.iff_(a, b))
    for k in counts:
        counts[k] = 0
    assert eng.valid(agree)
    only("valid")
    assert mode == "bdd" or eng.sat_stats()["sweep_merges"] > 0
    assert eng.witness(total[4], "ones", range(10)) is not None
    only("witness")
    hyp = eng.and_(eng.not_(carry), total[0])
    for k in counts:
        counts[k] = 0
    if mode == "bdd":
        sigma = eng.parametrize(hyp, range(10))
        eng.compose(total[4], sigma)
    else:
        eng.substitute(total[4], {0: True, 3: False})
    only(None)
