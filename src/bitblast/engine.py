"""The proof engine of a mode is its Boolean store.

`bdd.BddStore` and `aig.AigStore` implement the engine protocol
themselves: `mode`, `true`/`false`, `const`, `var`, `not_`, `and_`,
`or_`, `xor_`, `iff_`, `ite`, `is_true`/`is_false`, `eval`, `support`,
`valid`, `satisfiable`, `witness`, `sat_stats` and `num_nodes`.  The
BDD store decides validity by node identity and reads witnesses off a
path; the AIG store decides it by simulation and SAT sweeping on one
incremental solver (aig.SatSweep), and searches witnesses on that same
solver, one solve per policy.  For every policy both give the same
witness: the lexicographic extreme towards aig.witness_preference.
Stores are single-threaded.
"""

from .aig import AigStore
from .bdd import BddStore

# The old engine class names.  perfbench/hooks.py resolves
# bitblast.engine.{BddEngine,AigEngine}.<op>; these go when the hooks
# read counters instead (ROADMAP item 2, step c).
BddEngine = BddStore
AigEngine = AigStore


def make_engine(mode, node_budget=None, sat_conflict_budget=None):
    """A fresh store for `mode`; a budget left as None takes the store's
    default.  `sat_conflict_budget` applies to `aig` mode only."""
    budgets = {} if node_budget is None else {"node_budget": node_budget}
    if mode == "bdd":
        return BddStore(**budgets)
    if mode == "aig":
        if sat_conflict_budget is not None:
            budgets["sat_conflict_budget"] = sat_conflict_budget
        return AigStore(**budgets)
    raise ValueError("unknown mode %r" % (mode,))
