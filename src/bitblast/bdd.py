"""Reduced ordered BDDs with a hash-consed unique table.

Nodes are small integer handles into per-store arrays; 0 and 1 are the
terminals.  Structural equality is handle equality, so semantic
equivalence of two functions in the same store is `a == b`.  Variable
indices double as the order: smaller indices are closer to the root.
A BddStore is the proof engine of `bdd` mode.  Its operations recurse
once per variable level, so a BDD deeper than Python's recursion limit
raises RecursionError, which the prover reports as a resource limit.

The unique table and the operation caches are keyed by node triples
and pairs packed into one Python int, as in Brace, Rudell & Bryant,
"Efficient Implementation of a BDD Package" (DAC 1990):

    unique table    ((var << W | hi) << W) | lo
    and/or/xor      (f << W) | g
    ite             ((f << W | g) << W) | h

W is the bit length of the node budget the store is built with, so
every node id the store can hand out fits in a W-bit field and every
key names exactly one triple or pair.  For the default budget of 50M
nodes W is 26: a pair key, and a unique key whose variable index is
below 256, fits in two 30-bit CPython digits (32 bytes) and an ite key
in three (36 bytes), where a tuple key takes 56 or 64 bytes.  Measured
on CPython 3.11: the 64-bit popcount proof (47 195 nodes) peaks at 266
bytes per node under tracemalloc, against 335 with tuple keys, and a
9-bit multiplier commutativity proof (195 663 nodes) at 355 bytes of
RSS per node, against 453.  Both figures include the computed caches.
"""

from .aig import SWEEP_STATS, witness_preference
from .errors import (
    MissingAssignment,
    NodeBudgetExceeded,
    UnsatConstraint,
)

FALSE = 0
TRUE = 1
_TERMINAL_VAR = 1 << 60

DEFAULT_NODE_BUDGET = 50_000_000

_AND, _OR, _XOR = 0, 1, 2  # operations of the apply core


class BddStore:
    """One BDD universe: unique table, operation caches, node budget.

    The store is the engine of `bdd` mode (see engine.py).
    and/or/xor/not/iff share one apply core; `ite` keeps its own body,
    since building it from and/or/not would make intermediate nodes.
    Internal calls never use the public operation names, so a wrapper
    patched over one on an instance sees only the calls from outside.

    The key field width W (see the module docstring) is fixed at
    construction from `node_budget`.  Raising `node_budget` later never
    admits a node id of more than W bits: `_mk` refuses it with
    NodeBudgetExceeded, so no two keys can collide.

    A store is single-threaded; nodes from different stores must never
    be mixed.
    """

    mode = "bdd"
    true = TRUE
    false = FALSE

    def __init__(self, node_budget=DEFAULT_NODE_BUDGET):
        self._var = [_TERMINAL_VAR, _TERMINAL_VAR]
        self._hi = [0, 1]
        self._lo = [0, 1]
        self._unique = {}
        self._caches = ({}, {}, {})  # per apply-core operation
        self._ite_cache = {}
        self._w = max(node_budget, TRUE).bit_length()  # key field width
        self.node_budget = node_budget

    @property
    def store(self):
        # perfbench/hooks.py wraps methods through `eng.store`; this goes
        # when the hooks read counters instead (ROADMAP item 2, step c)
        return self

    @property
    def num_nodes(self):
        return len(self._var)

    def _mk(self, v, hi, lo):
        if hi == lo:
            return hi
        w = self._w
        key = ((v << w | hi) << w) | lo
        node = self._unique.get(key)
        if node is None:
            node = len(self._var)
            if node > self.node_budget or node >> w:
                raise NodeBudgetExceeded("BDD node budget exhausted")
            self._var.append(v)
            self._hi.append(hi)
            self._lo.append(lo)
            self._unique[key] = node
        return node

    def _var_node(self, index):
        if index < 0 or index >= _TERMINAL_VAR:
            raise ValueError("bad variable index %r" % (index,))
        return self._mk(index, TRUE, FALSE)

    var = _var_node

    def const(self, flag):
        return TRUE if flag else FALSE

    def _apply(self, op, f, g):
        """op(f, g) for op one of _AND, _OR, _XOR.  Xor with TRUE is
        negation: it is the one terminal case that recurses."""
        if f == g:
            return FALSE if op == _XOR else f
        if f > g:
            f, g = g, f
        if f <= TRUE:  # terminals are the two smallest handles
            if f == FALSE:
                return FALSE if op == _AND else g
            if op != _XOR:
                return g if op == _AND else TRUE
        key = (f << self._w) | g
        cache = self._caches[op]
        r = cache.get(key)
        if r is None:
            var, hi, lo = self._var, self._hi, self._lo
            vf, vg = var[f], var[g]
            v = vf if vf < vg else vg
            f1, f0 = (hi[f], lo[f]) if vf == v else (f, f)
            g1, g0 = (hi[g], lo[g]) if vg == v else (g, g)
            r = self._mk(v, self._apply(op, f1, g1), self._apply(op, f0, g0))
            cache[key] = r
        return r

    def and_(self, f, g):
        return self._apply(_AND, f, g)

    def or_(self, f, g):
        return self._apply(_OR, f, g)

    def xor_(self, f, g):
        return self._apply(_XOR, f, g)

    def not_(self, f):
        return self._apply(_XOR, TRUE, f)

    def iff_(self, f, g):
        return self._apply(_XOR, TRUE, self._apply(_XOR, f, g))

    def _ite(self, f, g, h):
        if f == TRUE:
            return g
        if f == FALSE:
            return h
        if g == h:
            return g
        if g == TRUE and h == FALSE:
            return f
        if g == FALSE and h == TRUE:
            return self._apply(_XOR, TRUE, f)
        if g == TRUE:
            return self._apply(_OR, f, h)
        if g == FALSE:
            return self._apply(_AND, self._apply(_XOR, TRUE, f), h)
        if h == FALSE:
            return self._apply(_AND, f, g)
        if h == TRUE:
            return self._apply(_OR, self._apply(_XOR, TRUE, f), g)
        w = self._w
        key = ((f << w | g) << w) | h
        r = self._ite_cache.get(key)
        if r is None:
            var, hi, lo = self._var, self._hi, self._lo
            v = min(var[f], var[g], var[h])
            f1, f0 = (hi[f], lo[f]) if var[f] == v else (f, f)
            g1, g0 = (hi[g], lo[g]) if var[g] == v else (g, g)
            h1, h0 = (hi[h], lo[h]) if var[h] == v else (h, h)
            r = self._mk(v, self._ite(f1, g1, h1), self._ite(f0, g0, h0))
            self._ite_cache[key] = r
        return r

    ite = _ite

    def is_true(self, f):
        return f == TRUE

    def is_false(self, f):
        return f == FALSE

    # canonicity decides both queries by handle identity
    valid = is_true

    def satisfiable(self, f):
        return f != FALSE

    def sat_stats(self):
        return dict.fromkeys(SWEEP_STATS, 0)

    def eval(self, f, env):
        """Evaluate under a map var-index -> bool; env must cover the
        variables actually consulted."""
        while f > TRUE:
            v = self._var[f]
            try:
                bit = env[v]
            except KeyError:
                raise MissingAssignment("no assignment for variable %d" % v) from None
            f = self._hi[f] if bit else self._lo[f]
        return f == TRUE

    def support(self, f):
        out = set()
        seen = bytearray(len(self._var))
        stack = [f]
        while stack:
            n = stack.pop()
            if n <= TRUE or seen[n]:
                continue
            seen[n] = 1
            out.add(self._var[n])
            stack.append(self._hi[n])
            stack.append(self._lo[n])
        return frozenset(out)

    def witness(self, f, policy, indices=(), seed=0):
        """A satisfying environment over f's variables and `indices`,
        or None iff f is FALSE: the lexicographic extreme (variables
        read in increasing index order) towards aig.witness_preference.
        One walk from the root takes the preferred child unless that
        child is FALSE; every variable off the path keeps its preference.
        """
        env = witness_preference(policy, self.support(f) | set(indices), seed)
        if f == FALSE:
            return None
        while f > TRUE:
            v = self._var[f]
            env[v] = self._hi[f] != FALSE if env[v] else self._lo[f] == FALSE
            f = self._hi[f] if env[v] else self._lo[f]
        return env

    def compose(self, f, sigma):
        """Simultaneous substitution of functions for variables.

        sigma must cover f's support; eval(compose(f, sigma), e) equals
        eval(f, i -> eval(sigma[i], e)).
        """
        memo = {}

        def rec(n):
            if n <= TRUE:
                return n
            r = memo.get(n)
            if r is None:
                v = self._var[n]
                try:
                    s = sigma[v]
                except KeyError:
                    raise MissingAssignment(
                        "no substitution entry for variable %d" % v) from None
                r = self._ite(s, rec(self._hi[n]), rec(self._lo[n]))
                memo[n] = r
            return r

        try:
            return rec(f)
        finally:
            rec = None  # rec's cell refers to rec: free the store with its proof

    def parametrize(self, constraint, indices):
        """A substitution whose image over all environments is exactly
        the satisfying set of `constraint`, projected onto `indices`.

        `indices` must include the constraint's support.  Variables are
        peeled in increasing index order; at each level a forced value
        becomes a constant and a free one stays a variable, with the
        remaining substitution selected by that variable.
        """
        if constraint == FALSE:
            raise UnsatConstraint("cannot parametrize an unsatisfiable constraint")
        idxs = sorted(set(indices))
        missing = self.support(constraint) - set(idxs)
        if missing:
            raise MissingAssignment(
                "parametrize indices lack support variables %s" % sorted(missing))
        memo = {}

        def rec(n, k):
            if k == len(idxs):
                return {}
            key = (n, k)
            hit = memo.get(key)
            if hit is not None:
                return hit
            i = idxs[k]
            if n == TRUE:
                res = {j: self._var_node(j) for j in idxs[k:]}
            else:
                if self._var[n] == i:
                    c1, c0 = self._hi[n], self._lo[n]
                else:
                    c1 = c0 = n
                if c0 == FALSE:
                    res = {i: TRUE}
                    res.update(rec(c1, k + 1))
                elif c1 == FALSE:
                    res = {i: FALSE}
                    res.update(rec(c0, k + 1))
                else:
                    s1 = rec(c1, k + 1)
                    s0 = rec(c0, k + 1)
                    vi = self._var_node(i)
                    res = {i: vi}
                    for j in idxs[k + 1:]:
                        res[j] = self._ite(vi, s1[j], s0[j])
            memo[key] = res
            return res

        try:
            return dict(rec(constraint, 0))
        finally:
            rec = None  # as in compose

    def check_invariants(self):
        """Walk the store asserting ordering and reducedness, and that
        every unique-table key decodes to its node's own triple; test
        hook."""
        for n in range(2, len(self._var)):
            v, hi, lo = self._var[n], self._hi[n], self._lo[n]
            assert hi != lo, "unreduced node %d" % n
            assert v < self._var[hi], "ordering violated at %d (hi)" % n
            assert v < self._var[lo], "ordering violated at %d (lo)" % n
            assert n >> self._w == 0, "node %d overflows the key field" % n
        assert len(self._unique) == len(self._var) - 2, "unique table out of sync"
        w = self._w
        mask = (1 << w) - 1
        for key, n in self._unique.items():
            triple = (key >> 2 * w, key >> w & mask, key & mask)
            assert triple == (self._var[n], self._hi[n], self._lo[n]), \
                "unique key of node %d decodes to %r" % (n, triple)
