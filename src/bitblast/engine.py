"""Uniform handle over the two Boolean-expression realizations.

All expressions flowing through one proof belong to one handle.  The
BDD side decides validity by node identity and reads witnesses off a
path; the AIG side decides it by simulation and SAT sweeping on one
incremental solver (aig.SatSweep), and searches witnesses on that same
solver, one solve per policy.  Both sides give the same exact zeros and
ones extremes.  Handles are single-threaded, like the stores they wrap.
"""

from . import aig as _aig
from . import bdd as _bdd

DEFAULT_SAT_CONFLICT_BUDGET = 2_000_000


class BddEngine:
    mode = "bdd"

    def __init__(self, node_budget=_bdd.DEFAULT_NODE_BUDGET):
        self.store = _bdd.BddStore(node_budget)
        self.true = _bdd.TRUE
        self.false = _bdd.FALSE

    def const(self, flag):
        return self.store.const(flag)

    def var(self, index):
        return self.store.var(index)

    def not_(self, x):
        return self.store.not_(x)

    def and_(self, a, b):
        return self.store.and_(a, b)

    def or_(self, a, b):
        return self.store.or_(a, b)

    def xor_(self, a, b):
        return self.store.xor_(a, b)

    def iff_(self, a, b):
        return self.store.iff_(a, b)

    def ite(self, c, t, e):
        return self.store.ite(c, t, e)

    def is_true(self, x):
        return x == _bdd.TRUE

    def is_false(self, x):
        return x == _bdd.FALSE

    def eval(self, x, env):
        return self.store.eval(x, env)

    def support(self, x):
        return self.store.support(x)

    def valid(self, x):
        return x == _bdd.TRUE

    def satisfiable(self, x):
        return x != _bdd.FALSE

    def witness(self, x, policy, indices=(), seed=0):
        return self.store.witness(x, policy, indices, seed)

    def sat_stats(self):
        return dict.fromkeys(_aig.SWEEP_STATS, 0)

    @property
    def num_nodes(self):
        return self.store.num_nodes


class AigEngine:
    mode = "aig"

    def __init__(self, node_budget=_aig.DEFAULT_NODE_BUDGET,
                 sat_conflict_budget=DEFAULT_SAT_CONFLICT_BUDGET):
        self.store = _aig.AigStore(node_budget)
        self.true = _aig.TRUE
        self.false = _aig.FALSE
        self.sat_conflict_budget = sat_conflict_budget
        self.sweep = _aig.SatSweep(self.store)

    def const(self, flag):
        return self.store.const(flag)

    def var(self, index):
        return self.store.var(index)

    def not_(self, x):
        return self.store.not_(x)

    def and_(self, a, b):
        return self.store.and_(a, b)

    def or_(self, a, b):
        return self.store.or_(a, b)

    def xor_(self, a, b):
        return self.store.xor_(a, b)

    def iff_(self, a, b):
        return self.store.iff_(a, b)

    def ite(self, c, t, e):
        return self.store.ite(c, t, e)

    def is_true(self, x):
        return x == _aig.TRUE

    def is_false(self, x):
        return x == _aig.FALSE

    def eval(self, x, env):
        return self.store.eval(x, env)

    def support(self, x):
        return self.store.support(x)

    def valid(self, x):
        return not self.sweep.satisfiable(-x, self.sat_conflict_budget)

    def satisfiable(self, x):
        return self.sweep.satisfiable(x, self.sat_conflict_budget)

    def witness(self, x, policy, indices=(), seed=0):
        return self.sweep.witness(x, policy, indices, seed,
                                  self.sat_conflict_budget)

    def sat_stats(self):
        return self.sweep.stats()

    @property
    def num_nodes(self):
        return self.store.num_nodes


def make_engine(mode, node_budget=None, sat_conflict_budget=None):
    if node_budget is None:
        node_budget = _bdd.DEFAULT_NODE_BUDGET
    if sat_conflict_budget is None:
        sat_conflict_budget = DEFAULT_SAT_CONFLICT_BUDGET
    if mode == "bdd":
        return BddEngine(node_budget)
    if mode == "aig":
        return AigEngine(node_budget, sat_conflict_budget)
    raise ValueError("unknown mode %r" % (mode,))
