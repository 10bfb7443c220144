"""A small complete incremental CDCL SAT solver.

First-UIP clause learning with recursive minimization, two watched
literals, VSIDS, Luby restarts, reduction of the learnt clauses by
literal block distance, and phase saving with every phase false at
first.  An exact extreme model comes from `solve`'s `prefer` list,
which is decided in order before any other decision, so the first
model found is the lexicographic extreme in that order
(aig.AigStore.witness searches counterexamples this way).  Runs are
deterministic for a fixed budget.

Literals are MiniSat codes: variable v (numbered from 1) has the
positive literal 2v and the negative literal 2v + 1, so negation is
`code ^ 1` and the variable is `code >> 1`.  Values and watch lists
are flat lists indexed by literal code.  One `Solver` answers any
number of `solve` calls under assumptions; clauses may be added
between calls, and learnt clauses carry over from call to call.
`parse_dimacs` and `solve_cnf` serve `bitblast --solve-dimacs`.
"""

from heapq import heapify, heappop, heappush

from .errors import FileFormatError

SAT = "sat"
UNSAT = "unsat"
BUDGET = "budget"

_RESTART_BASE = 64
_ACT_RESCALE = 1e100
_LEARNT_MIN = 2000    # learnt clauses kept before the first reduction
_LEARNT_GROWTH = 1.1  # growth of that limit at each reduction


def _luby(i):
    """0-indexed Luby value: 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ..."""
    size, seq = 1, 0
    while size < i + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != i:
        size = (size - 1) // 2
        seq -= 1
        i = i % size
    return 1 << seq


def lit_code(lit):
    """The literal code of a signed DIMACS literal."""
    return 2 * lit if lit > 0 else -2 * lit + 1


class Solver:
    """Incremental CDCL over literal codes; single-threaded."""

    def __init__(self):
        self.nvars = 0
        self.vals = [None, None]  # per literal code: True, False or None
        self.watches = [[], []]   # per literal code: clauses watching it
        self.level = [0]
        self.reason = [None]
        self.activity = [0.0]
        self.phase = [False]
        self.seen = [False]
        self.heaped = [None]  # per variable: activity of its live heap entry
        self.trail = []
        self.lim = []
        self.qhead = 0
        self.heap = []
        self.var_inc = 1.0
        self.ok = True
        self.learnts = []   # (literal block distance, clause), oldest first
        self.max_learnts = _LEARNT_MIN
        self.calls = 0      # solve calls answered, over the solver's life
        self.conflicts = 0  # conflicts analyzed, over the solver's life

    def new_var(self):
        """A fresh variable number."""
        self.nvars += 1
        v = self.nvars
        self.vals += (None, None)
        self.watches += ([], [])
        self.level.append(0)
        self.reason.append(None)
        self.activity.append(0.0)
        self.seen.append(False)
        self.heaped.append(0.0)
        self.phase.append(False)
        heappush(self.heap, (0.0, v))
        return v

    # -- assignment plumbing --------------------------------------------

    def _enqueue(self, code, reason):
        """Assign an unassigned literal true at the current level."""
        self.vals[code] = True
        self.vals[code ^ 1] = False
        v = code >> 1
        self.level[v] = len(self.lim)
        self.reason[v] = reason
        self.trail.append(code)

    def add_clause(self, codes):
        """Add a clause of literal codes at decision level 0.

        Literals already false at level 0 are dropped and clauses
        already true there are skipped, so the two watched literals of
        every stored clause are unassigned when it is added.
        """
        if not self.ok:
            return
        self.backtrack(0)
        vals = self.vals
        seen = set()
        out = []
        for c in codes:
            if c ^ 1 in seen or vals[c] is True:
                return  # tautology, or satisfied at level 0
            if c in seen or vals[c] is False:
                continue
            seen.add(c)
            out.append(c)
        if not out:
            self.ok = False
            return
        if len(out) == 1:
            self._enqueue(out[0], None)
            return
        self.watches[out[0]].append(out)
        self.watches[out[1]].append(out)

    # -- search ----------------------------------------------------------

    def propagate(self):
        """Unit propagation; the conflicting clause, or None."""
        vals = self.vals
        watches = self.watches
        trail = self.trail
        level = self.level
        reason = self.reason
        lvl = len(self.lim)
        qhead = self.qhead
        while qhead < len(trail):
            neg = trail[qhead] ^ 1
            qhead += 1
            ws = watches[neg]
            if not ws:
                continue
            keep = []
            watches[neg] = keep
            rest = iter(ws)
            for clause in rest:
                first = clause[0]
                if first == neg:
                    first = clause[1]
                    clause[0] = first
                    clause[1] = neg
                vf = vals[first]
                if vf is True:
                    keep.append(clause)
                    continue
                for k in range(2, len(clause)):
                    lk = clause[k]
                    if vals[lk] is not False:
                        clause[1] = lk
                        clause[k] = neg
                        watches[lk].append(clause)
                        break
                else:
                    keep.append(clause)
                    if vf is False:
                        keep.extend(rest)
                        self.qhead = qhead
                        return clause
                    vals[first] = True
                    vals[first ^ 1] = False
                    v = first >> 1
                    level[v] = lvl
                    reason[v] = clause
                    trail.append(first)
        self.qhead = qhead
        return None

    def _bump(self, v):
        act = self.activity[v] + self.var_inc
        self.activity[v] = act
        if act > _ACT_RESCALE:
            self._rescale()
        else:
            heappush(self.heap, (-act, v))
            self.heaped[v] = act

    def _rescale(self):
        activity = self.activity
        for u in range(1, self.nvars + 1):
            activity[u] *= 1e-100
        self.var_inc *= 1e-100
        vals = self.vals
        self.heaped = [None] * (self.nvars + 1)
        self.heap = []
        for u in range(1, self.nvars + 1):
            if vals[2 * u] is None:
                self.heap.append((-activity[u], u))
                self.heaped[u] = activity[u]
        heapify(self.heap)

    def analyze(self, confl):
        """First-UIP learnt clause and the level to backjump to."""
        seen = self.seen
        level = self.level
        trail = self.trail
        touched = []
        learnt = [None]
        counter = 0
        p = None
        index = len(trail)
        cur_level = len(self.lim)
        c = confl
        while True:
            for q in (c if p is None else c[1:]):
                v = q >> 1
                if not seen[v] and level[v] > 0:
                    seen[v] = True
                    touched.append(v)
                    self._bump(v)
                    if level[v] >= cur_level:
                        counter += 1
                    else:
                        learnt.append(q)
            while True:
                index -= 1
                p = trail[index]
                if seen[p >> 1]:
                    break
            counter -= 1
            if counter == 0:
                break
            c = self.reason[p >> 1]
        learnt[0] = p ^ 1
        if len(learnt) > 2:
            self._minimize(learnt, touched)
        for v in touched:
            seen[v] = False
        if len(learnt) == 1:
            return learnt, 0
        max_i = 1
        for i in range(2, len(learnt)):
            if level[learnt[i] >> 1] > level[learnt[max_i] >> 1]:
                max_i = i
        learnt[1], learnt[max_i] = learnt[max_i], learnt[1]
        return learnt, level[learnt[1] >> 1]

    def _minimize(self, learnt, touched):
        """Drop the learnt literals that the others imply through reason
        clauses (MiniSat's recursive minimization).  Marks stay in
        `seen` for the caller to clear through `touched`."""
        level = self.level
        reason = self.reason
        seen = self.seen
        levels = 0  # a bit per decision level (mod 32) of the clause
        for q in learnt[1:]:
            levels |= 1 << (level[q >> 1] & 31)
        j = 1
        for q in learnt[1:]:
            if reason[q >> 1] is None or not self._implied(q, levels,
                                                           touched):
                learnt[j] = q
                j += 1
        del learnt[j:]

    def _implied(self, lit, levels, touched):
        level = self.level
        reason = self.reason
        seen = self.seen
        stack = [lit]
        top = len(touched)
        while stack:
            for q in reason[stack.pop() >> 1][1:]:
                v = q >> 1
                if seen[v] or level[v] == 0:
                    continue
                if reason[v] is None or not (1 << (level[v] & 31)) & levels:
                    for u in touched[top:]:
                        seen[u] = False
                    del touched[top:]
                    return False
                seen[v] = True
                touched.append(v)
                stack.append(q)
        return True

    def _reduce(self):
        """Forget the learnt clauses of highest literal block distance,
        half of them, keeping glue clauses (distance 2 or less).  Runs at
        level 0, where no learnt clause is the reason of a literal that
        analysis may visit."""
        ranked = sorted(self.learnts, key=lambda e: e[0])
        half = len(ranked) // 2
        gone = {id(c) for lbd, c in ranked[half:] if lbd > 2}
        self.learnts = [e for e in self.learnts if id(e[1]) not in gone]
        for ws in self.watches:
            ws[:] = [c for c in ws if id(c) not in gone]
        self.max_learnts *= _LEARNT_GROWTH

    def backtrack(self, target):
        if len(self.lim) <= target:
            return
        bound = self.lim[target]
        vals = self.vals
        phase = self.phase
        reason = self.reason
        activity = self.activity
        heap = self.heap
        heaped = self.heaped
        for code in reversed(self.trail[bound:]):
            v = code >> 1
            phase[v] = not code & 1
            vals[code] = vals[code ^ 1] = None
            reason[v] = None
            if heaped[v] != activity[v]:
                heappush(heap, (-activity[v], v))
                heaped[v] = activity[v]
        del self.trail[bound:]
        del self.lim[target:]
        self.qhead = bound

    def _decide(self):
        """Branch on the unassigned variable of highest activity.  Every
        unassigned variable has a live heap entry; entries whose
        activity is out of date are skipped."""
        vals = self.vals
        while True:
            negact, v = heappop(self.heap)
            if -negact == self.activity[v]:
                self.heaped[v] = None
                if vals[2 * v] is None:
                    break
        self.lim.append(len(self.trail))
        self._enqueue(2 * v if self.phase[v] else 2 * v + 1, None)

    def solve(self, assumptions=(), conflict_budget=None, prefer=()):
        """Decide the clauses under the assumed literal codes.

        Returns (SAT, model) with the model a list of bools indexed by
        variable (index 0 unused), (UNSAT, None), or (BUDGET, None)
        once more than conflict_budget conflicts have been analyzed in
        this call.  The solver is back at level 0 afterwards and can be
        extended and asked again; UNSAT under assumptions says nothing
        about the clauses alone.

        `prefer` is a list of literal codes.  After the assumptions and
        before any activity-ordered decision, the first unassigned one
        is decided, in list order and with exactly that polarity.  A
        preferred literal is then false in the model only if the clauses
        and assumptions force it false given the model's values of the
        literals before it, so the model is the lexicographic extreme of
        the assumptions' models in `prefer` order: learnt clauses follow
        from the clauses alone, and every decision below a preferred
        literal is an earlier preferred literal.
        """
        self.calls += 1
        if not self.ok:
            return UNSAT, None
        vals = self.vals
        trail = self.trail
        lim = self.lim
        conflicts = 0
        restarts = 0
        since_restart = 0
        limit = _RESTART_BASE * _luby(restarts)
        pnext = 0  # preferred literals before this index are assigned
        while True:
            confl = self.propagate()
            if confl is not None:
                if not lim:
                    self.ok = False
                    return UNSAT, None
                conflicts += 1
                self.conflicts += 1
                since_restart += 1
                if conflict_budget is not None and conflicts > conflict_budget:
                    self.backtrack(0)
                    return BUDGET, None
                learnt, bt = self.analyze(confl)
                self.backtrack(bt)
                pnext = 0
                if len(learnt) > 1:
                    # distinct levels at the conflict; backtracking leaves
                    # `level` entries in place
                    self.learnts.append(
                        (len({self.level[q >> 1] for q in learnt}), learnt))
                    self.watches[learnt[0]].append(learnt)
                    self.watches[learnt[1]].append(learnt)
                    self._enqueue(learnt[0], learnt)
                else:
                    self._enqueue(learnt[0], None)
                self.var_inc *= 1.0 / 0.95
                continue
            if len(lim) < len(assumptions):
                a = assumptions[len(lim)]
                if vals[a] is False:
                    self.backtrack(0)
                    return UNSAT, None
                lim.append(len(trail))  # one level per assumption
                if vals[a] is None:
                    self._enqueue(a, None)
                continue
            if len(trail) == self.nvars:
                model = [vals[2 * v] for v in range(self.nvars + 1)]
                self.backtrack(0)
                return SAT, model
            if since_restart >= limit:
                restarts += 1
                since_restart = 0
                limit = _RESTART_BASE * _luby(restarts)
                self.backtrack(0)
                pnext = 0
                if len(self.learnts) >= self.max_learnts:
                    self._reduce()
                continue
            while pnext < len(prefer) and vals[prefer[pnext]] is not None:
                pnext += 1
            if pnext < len(prefer):
                lim.append(len(trail))
                self._enqueue(prefer[pnext], None)
                continue
            self._decide()


def solve_cnf(num_vars, clauses, assumptions=(), conflict_budget=None):
    """Complete decision for a clause set under unit assumptions.

    Clauses and assumptions are signed DIMACS literals.  Returns
    (SAT, model) with the model total over 1..num_vars, (UNSAT, None),
    or (BUDGET, None) once conflict_budget conflicts have been analyzed.
    """
    solver = Solver()
    for _ in range(num_vars):
        solver.new_var()
    for clause in clauses:
        solver.add_clause([lit_code(l) for l in clause])
    for a in assumptions:
        solver.add_clause([lit_code(a)])
    kind, model = solver.solve(conflict_budget=conflict_budget)
    if kind is SAT:
        return kind, {v: model[v] for v in range(1, num_vars + 1)}
    return kind, None


def parse_dimacs(text):
    """Read DIMACS text into (num_vars, clauses), one clause per line.

    FileFormatError, naming the line, for a problem line that is not
    `p cnf VARS CLAUSES`, a token that is not an integer, or a literal
    (a 0 before the end of the line among them) of no declared variable.
    """
    num_vars = 0
    clauses = []
    for number, line in enumerate(text.splitlines(), 1):
        parts = line.split()
        if not parts or parts[0].startswith("c"):
            continue
        try:
            if parts[0] == "p":
                counts = [int(tok) for tok in parts[2:]]
                if len(counts) != 2 or min(counts) < 0 or parts[1] != "cnf":
                    raise ValueError("problem line wants 'p cnf VARS CLAUSES'")
                num_vars = counts[0]
                continue
            lits = [int(tok) for tok in parts]
        except ValueError as e:
            raise FileFormatError("line %d: %s" % (number, e)) from None
        if lits[-1] == 0:
            lits.pop()
        for lit in lits:
            if not 0 < abs(lit) <= num_vars:
                raise FileFormatError("line %d: literal %d names no variable "
                                      "in 1..%d" % (number, lit, num_vars))
        if lits:
            clauses.append(lits)
    return num_vars, clauses
