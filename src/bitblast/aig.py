"""Hash-consed and-inverter graphs plus Tseitin CNF generation.

Nodes are signed integer handles: 1 is the constant true, negation is
sign flip, and positive handles above 1 name variable or AND nodes in
the store.  The only rewrites are the local ones: double negation,
and with a constant, and of equal or complementary children.  AIGs are
not canonical; an AigStore decides satisfiability, and with it
equivalence, by simulation and SAT sweeping on its own incremental
solver, and finds exact extreme witnesses and the hypothesis's forced
constants (`forced_constants`) on that solver.  An AigStore is the
proof engine of `aig` mode, so one proof runs every SAT question on
one solver.  `tseitin` is the one Tseitin encoder: the store writes it
into its solver, and `to_cnf` writes the same clauses into a `Cnf`.
"""

import random
from dataclasses import dataclass, field

from .errors import (
    MissingAssignment,
    NodeBudgetExceeded,
    SatBudgetExceeded,
    UnsatConstraint,
)
from .sat import BUDGET, Solver

TRUE = 1
FALSE = -1

DEFAULT_NODE_BUDGET = 50_000_000
DEFAULT_SAT_CONFLICT_BUDGET = 2_000_000

SIM_BITS = 256       # random input patterns simulated per sweep
SIM_SEED = 0x5EE9    # fixed, so every sweep of a query is reproducible

# the integer counters AigStore.sat_stats reports, in report order
SWEEP_STATS = ("sat_calls", "sat_conflicts", "sweep_candidates",
               "sweep_merges", "sweep_refuted")


def witness_preference(policy, indices, seed=0):
    """{index: preferred value} over `indices` in increasing order: all
    false for zeros, all true for ones, one seeded coin flip per index
    for random; ValueError for another policy.  Both stores' `witness`
    give the lexicographic extreme towards it."""
    if policy not in ("zeros", "ones", "random"):
        raise ValueError("unknown witness policy %r" % (policy,))
    rng = random.Random(seed)
    return {i: rng.random() < 0.5 if policy == "random"
            else policy == "ones" for i in sorted(set(indices))}


class AigStore:
    """One AIG universe and the incremental solver that decides its
    queries; single-threaded, never share handles across stores.

    The store is the engine of `aig` mode (see engine.py).  A query is
    first simulated on SIM_BITS seeded random patterns; a pattern that
    makes the root true answers SAT with no search.  Otherwise the
    root's cone is rebuilt bottom-up (SAT sweeping, as in FRAIGs): a
    node whose simulation signature matches an earlier node, or a
    constant, is merged into it only once the solver proves the two
    equivalent under assumptions.  A refuted candidate stays unmerged
    and its model becomes one more simulation pattern, which splits the
    classes it did not fit.  The rebuilt root is then a constant, or one
    last solve under the root assumption decides it.

    `witness` searches satisfying assignments on the same solver, and
    `forced_constants` probes its inputs there.  The solver keeps the
    Tseitin clauses of every node it was asked about, and its learnt
    clauses, from one query to the next; each query may spend
    `sat_conflict_budget` conflicts.  Internal calls never use the
    public operation names, so a wrapper patched over one on an instance
    sees only the calls from outside.
    """

    mode = "aig"
    true = TRUE
    false = FALSE

    def __init__(self, node_budget=DEFAULT_NODE_BUDGET,
                 sat_conflict_budget=DEFAULT_SAT_CONFLICT_BUDGET):
        self._nodes = [None, ("const",)]  # index 0 unused; 1 is TRUE
        self._var_ids = {}
        self._and_unique = {}
        self.node_budget = node_budget
        self.sat_conflict_budget = sat_conflict_budget
        self.solver = Solver()
        self._var = {}  # positive node id -> solver variable
        self._candidates = 0
        self._merges = 0
        self._refuted = 0
        self._left = None  # conflicts the current query may still spend

    @property
    def store(self):
        # perfbench/hooks.py wraps methods through `eng.store`; this goes
        # when the hooks read counters instead (ROADMAP item 2, step c)
        return self

    @property
    def num_nodes(self):
        return len(self._nodes) - 2

    def _alloc(self, desc):
        node = len(self._nodes)
        if node > self.node_budget:
            raise NodeBudgetExceeded("AIG node budget exhausted")
        self._nodes.append(desc)
        return node

    def var(self, index):
        if index < 0:
            raise ValueError("bad variable index %r" % (index,))
        node = self._var_ids.get(index)
        if node is None:
            node = self._alloc(("var", index))
            self._var_ids[index] = node
        return node

    def const(self, flag):
        return TRUE if flag else FALSE

    def not_(self, x):
        return -x

    def _and(self, a, b):
        if a == FALSE or b == FALSE:
            return FALSE
        if a == TRUE:
            return b
        if b == TRUE:
            return a
        if a == b:
            return a
        if a == -b:
            return FALSE
        if (abs(a), a < 0) > (abs(b), b < 0):
            a, b = b, a
        key = (a, b)
        node = self._and_unique.get(key)
        if node is None:
            node = self._alloc(("and", a, b))
            self._and_unique[key] = node
        return node

    and_ = _and

    def or_(self, a, b):
        return -self._and(-a, -b)

    def _xor(self, a, b):
        return -self._and(-self._and(a, -b), -self._and(-a, b))

    xor_ = _xor

    def iff_(self, a, b):
        return -self._xor(a, b)

    def ite(self, c, t, e):
        return -self._and(-self._and(c, t), -self._and(-c, e))

    def is_true(self, x):
        return x == TRUE

    def is_false(self, x):
        return x == FALSE

    def valid(self, x):
        return not self._satisfiable(-x)

    def sat_stats(self):
        """The SWEEP_STATS counters, over the life of this store."""
        return dict(zip(SWEEP_STATS, (
            self.solver.calls, self.solver.conflicts, self._candidates,
            self._merges, self._refuted)))

    def _walk(self, root):
        """Positive node ids reachable from root, children first."""
        order = []
        seen = set()
        stack = [abs(root)]
        while stack:
            n = stack.pop()
            if n < 0:  # emit marker: children already handled
                order.append(-n)
                continue
            if n <= 1 or n in seen:
                continue
            seen.add(n)
            desc = self._nodes[n]
            if desc[0] == "and":
                stack.append(-n)
                stack.append(abs(desc[1]))
                stack.append(abs(desc[2]))
            else:
                order.append(n)
        return order

    def eval(self, x, env):
        """Evaluate under a map var-index -> bool."""
        order = self._walk(x)
        inputs = {}
        for n in order:
            desc = self._nodes[n]
            if desc[0] == "var":
                try:
                    inputs[n] = int(bool(env[desc[1]]))
                except KeyError:
                    raise MissingAssignment(
                        "no assignment for variable %d" % desc[1]) from None
        return bool(_simulate(self._nodes, order, inputs, 1)[abs(x)]) ^ (x < 0)

    def _inputs(self, root):
        """{variable index: variable node} over root's cone."""
        nodes = self._nodes
        return {nodes[n][1]: n for n in self._walk(root)
                if nodes[n][0] == "var"}

    def support(self, x):
        return frozenset(self._inputs(x))

    def substitute(self, x, consts):
        """Rebuild with some variables replaced by boolean constants."""
        memo = {1: TRUE}
        for n in self._walk(x):
            desc = self._nodes[n]
            if desc[0] == "var":
                idx = desc[1]
                if idx in consts:
                    memo[n] = TRUE if consts[idx] else FALSE
                else:
                    memo[n] = n
            else:
                _, a, b = desc
                na = memo[abs(a)] * (-1 if a < 0 else 1)
                nb = memo[abs(b)] * (-1 if b < 0 else 1)
                memo[n] = self._and(na, nb)
        out = memo[abs(x)]
        return -out if x < 0 else out

    def to_cnf(self, root):
        """The clauses `tseitin` gives root's cone, as a Cnf.

        Returns (Cnf, output-literal): root is satisfiable iff the
        clauses plus the output literal as a unit are satisfiable, and
        any model of the clauses, read back through var_map, satisfies
        the corresponding evaluation of every encoded gate.
        """
        cnf = Cnf()
        if root == TRUE or root == FALSE:
            v = cnf.new_var()
            if root == FALSE:
                cnf.clauses.append([-v])
            return cnf, v
        var = {}
        out = tseitin(self._nodes, var, cnf, abs(root))
        cnf.var_map = {self._nodes[n][1]: v for n, v in var.items()
                       if self._nodes[n][0] == "var"}
        return cnf, (-out if root < 0 else out)

    def _lit(self, h):
        """Solver literal code of a signed handle, encoding its cone."""
        n = abs(h)
        v = self._var.get(n)
        if v is None:
            v = tseitin(self._nodes, self._var, self.solver, n)
        return 2 * v + (h < 0)

    def _solve(self, *handles, prefer=()):
        """A model making every handle true, or None when there is none.
        `prefer` is passed to Solver.solve."""
        solver = self.solver
        before = solver.conflicts
        kind, model = solver.solve([self._lit(h) for h in handles],
                                   self._left, prefer)
        if self._left is not None:
            self._left -= solver.conflicts - before
        if kind is BUDGET:
            raise SatBudgetExceeded("SAT conflict budget exhausted")
        return model

    def _refute(self, h, rep):
        """A model on which handle h differs from rep, or None."""
        if rep == FALSE:
            return self._solve(h)
        return self._solve(h, -rep) or self._solve(-h, rep)

    def _satisfiable(self, root):
        """Does some assignment make root true?  All solver conflicts of
        the query count against sat_conflict_budget; SatBudgetExceeded
        once they pass it."""
        if root == TRUE or root == FALSE:
            return root == TRUE
        nodes = self._nodes
        and_ = self._and
        order = self._walk(root)
        rng = random.Random(SIM_SEED)
        width = SIM_BITS
        mask = (1 << width) - 1
        inputs = [n for n in order if nodes[n][0] == "var"]
        sig = _simulate(nodes, order,
                        {n: rng.getrandbits(width) for n in inputs}, mask)
        if sig[abs(root)] != (mask if root < 0 else 0):
            return True
        self._left = self.sat_conflict_budget
        new = {1: TRUE}  # node id -> rebuilt handle of the same function
        classes = {}     # normalized signature -> first node id with it
        for i, n in enumerate(order):
            desc = nodes[n]
            if desc[0] == "var":
                h = n
            else:
                _, a, b = desc
                h = and_(new[a] if a > 0 else -new[-a],
                         new[b] if b > 0 else -new[-b])
            new[n] = h
            if h == TRUE or h == FALSE:
                continue
            while True:
                # normalize so bit 0 is clear: complements share a class
                s = sig[n]
                flip = s & 1
                key = s ^ mask if flip else s
                hn = -h if flip else h
                if key == 0:
                    rep = FALSE
                else:
                    first = classes.setdefault(key, n)
                    if first == n:
                        break
                    rep = -new[first] if sig[first] & 1 else new[first]
                if rep == hn:
                    break
                self._candidates += 1
                model = self._refute(hn, rep)
                if model is None:
                    self._merges += 1
                    new[n] = -rep if flip else rep
                    break
                self._refuted += 1
                # inputs the solver never saw cannot tell h from rep
                bits = _simulate(nodes, order, {
                    m: int(model[self._var[m]]) if m in self._var else 0
                    for m in inputs}, 1)
                if bits[abs(root)] != (root < 0):
                    return True
                for m in order:
                    sig[m] |= bits[m] << width
                width += 1
                mask = (1 << width) - 1
                classes = {}
                for m in order[:i]:
                    s = sig[m]
                    if new[m] not in (TRUE, FALSE):
                        classes.setdefault(s ^ mask if s & 1 else s, m)
        out = new[abs(root)]
        out = -out if root < 0 else out
        if out == TRUE or out == FALSE:
            return out == TRUE
        return self._solve(out) is not None

    satisfiable = _satisfiable

    def witness(self, root, policy, indices=(), seed=0):
        """An assignment making root true, or None when there is none.

        It assigns root's input variables and every index in `indices`,
        and is the lexicographic extreme (variables read in increasing
        index order) towards witness_preference; indices outside root's
        cone keep their preferred value.  One solve under the root
        assumption with the inputs preferred in index order
        (Solver.solve's `prefer`) finds it; all its conflicts count
        against sat_conflict_budget, SatBudgetExceeded once they pass
        it.
        """
        cone = self._inputs(root)
        want = witness_preference(policy, cone.keys() | set(indices), seed)
        self._lit(root)  # encode the cone, giving each input a variable
        prefer = [2 * self._var[cone[i]] + (not b)
                  for i, b in want.items() if i in cone]
        self._left = self.sat_conflict_budget
        model = self._solve(root, prefer=prefer)
        if model is None:
            return None
        return {i: model[self._var[cone[i]]] if i in cone else b
                for i, b in want.items()}


@dataclass
class Cnf:
    """Clause set in signed-literal form plus the AIG-variable mapping."""

    num_vars: int = 0
    clauses: list = field(default_factory=list)
    var_map: dict = field(default_factory=dict)

    def new_var(self):
        self.num_vars += 1
        return self.num_vars

    def add_clause(self, codes):
        """Append a clause of literal codes as signed literals."""
        self.clauses.append([-(c >> 1) if c & 1 else c >> 1 for c in codes])

    def to_dimacs(self):
        lines = ["p cnf %d %d" % (self.num_vars, len(self.clauses))]
        for clause in self.clauses:
            lines.append(" ".join(str(l) for l in clause) + " 0")
        return "\n".join(lines) + "\n"


def forced_constants(store, constraint, indices):
    """{index: polarity} for each index in `indices` that every
    assignment making the constraint true gives the same value; indices
    outside the constraint's cone are never forced.

    It runs on the store's solver: one solve finds a model of the
    constraint, then one solve per cone input assumes the polarity
    opposite to the model's, and where none exists the input is forced.
    All their conflicts count against the store's sat_conflict_budget
    together, SatBudgetExceeded once they pass it; UnsatConstraint when
    the constraint has no model.
    """
    cone = store._inputs(constraint)
    store._left = store.sat_conflict_budget
    model = store._solve(constraint)
    if model is None:
        raise UnsatConstraint("hypothesis constraint is unsatisfiable")
    forced = {}
    for i in indices:
        if i in cone:
            pol = model[store._var[cone[i]]]
            if store._solve(constraint, -cone[i] if pol else cone[i]) is None:
                forced[i] = pol
    return forced


def tseitin(nodes, var, sink, root):
    """Tseitin-encode the cone of node id `root` into `sink`, which
    takes `new_var()` and `add_clause(codes)` over sat.py's literal
    codes.  `var` maps each node id already encoded to its variable and
    gains the new ones, children before parents.  Returns root's
    variable."""
    stack = [root]
    while stack:
        n = stack[-1]
        if n in var:
            stack.pop()
            continue
        desc = nodes[n]
        if desc[0] == "and":
            todo = [abs(c) for c in desc[1:] if abs(c) not in var]
            if todo:
                stack.extend(todo)
                continue
        stack.pop()
        v = sink.new_var()
        var[n] = v
        if desc[0] == "const":
            sink.add_clause([2 * v])
        elif desc[0] == "and":
            la = 2 * var[abs(desc[1])] + (desc[1] < 0)
            lb = 2 * var[abs(desc[2])] + (desc[2] < 0)
            sink.add_clause([2 * v + 1, la])
            sink.add_clause([2 * v + 1, lb])
            sink.add_clause([2 * v, la ^ 1, lb ^ 1])
    return var[root]


def _simulate(nodes, order, inputs, mask):
    """Bit-parallel values of the nodes in `order` (children first).

    `inputs` maps each variable node to its pattern; bit k of every
    value is the node's value under pattern k.
    """
    sig = {1: mask}
    for n in order:
        desc = nodes[n]
        if desc[0] == "var":
            sig[n] = inputs[n]
        else:
            _, a, b = desc
            va = sig[a] if a > 0 else mask ^ sig[-a]
            vb = sig[b] if b > 0 else mask ^ sig[-b]
            sig[n] = va & vb
    return sig
