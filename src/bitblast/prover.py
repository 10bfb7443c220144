"""Proof engines for plain and case-split theorems.

The pipeline per theorem: build symbolic objects from the bindings,
interpret the hypothesis, restrict the objects to the hypothesis-
satisfying space (full parametrization for canonical expressions,
forced-constant substitution otherwise), interpret the conclusion,
and decide whether it can ever be nil inside the restricted space.
Counterexamples are re-verified concretely; coverage of the bindings
against the hypothesis runs after the symbolic phase.
"""

from dataclasses import KW_ONLY, dataclass, field, fields
from fractions import Fraction
from itertools import count

from .concrete import eval_concrete
from .engine import make_engine
from .errors import (
    BlastError,
    BudgetExceeded,
    EvalError,
    GApplyBreak,
    IndeterminateError,
    UnsatConstraint,
)
from .aig import forced_constants
from .interp import Interp
from .lang import (
    Call,
    If,
    Quote,
    Var,
    free_vars,
    substitute,
    substitute_constants,
)
# no proof calls solve_cnf; perfbench/hooks.py still resolves this name
# until it reads the proofs' counters instead (ROADMAP item 2, step c)
from .sat import solve_cnf  # noqa: F401
from .symobj import (
    map_symobj_exprs,
    nil_possibility,
    render_symobj,
    shape_contains,
    shape_indices,
    shape_int_intervals,
    shape_to_symobj,
    shape_witness_outside,
    sym_eval,
    truth_expr,
)
from .values import (
    NIL,
    T,
    Symbol,
    is_integer,
    is_number,
    list_elements,
    print_value,
)


@dataclass
class _Spec:
    """What both theorem forms share.  The per-theorem options are
    keyword-only and declared here once."""
    name: str
    hyp: object
    concl: object
    _: KW_ONLY
    mode: str = None
    do_not_expand: frozenset = frozenset()
    counterexample_count: int = 3
    seed: int = None
    coverage_only: bool = False


@dataclass
class TheoremSpec(_Spec):
    g_bindings: dict  # var name -> shape (see symobj.parse_shape)


@dataclass
class ParamTheoremSpec(_Spec):
    param_bindings: list  # [(case assignment: var -> value, g_bindings)]
    param_hyp: object
    cov_bindings: dict


@dataclass
class Counterexample:
    values: dict  # theorem var -> concrete value
    policy: str
    verified: bool


@dataclass
class _Result:
    """What every verdict carries: its failing case, if any, and stats."""
    _: KW_ONLY
    case: str = None
    stats: dict = None


@dataclass
class Proved(_Result):
    kind = "proved"
    warnings: tuple = ()


@dataclass
class Disproved(_Result):
    kind = "disproved"
    counterexamples: list = field(default_factory=list)


@dataclass
class Indeterminate(_Result):
    kind = "indeterminate"
    offender: str = ""
    examples: dict = None


@dataclass
class CoverageFailed(_Result):
    kind = "coverage-failed"
    variable: str = ""
    witness: object = None


@dataclass
class ResourceLimit(_Result):
    kind = "resource-limit"
    stage: str = ""


@dataclass
class CoverageOk(_Result):
    kind = "coverage-ok"


@dataclass
class ProverOptions:
    mode: str = "bdd"
    seed: int = 0
    node_budget: int = None
    sat_conflict_budget: int = None
    coverage_only: bool = False


def validate_bindings(bindings, hyp, concl, name):
    needed = free_vars(hyp) | free_vars(concl)
    missing = needed - set(bindings)
    if missing:
        raise EvalError("theorem %s has no binding for %s"
                        % (name, ", ".join(sorted(missing))))
    seen = {}
    for var, shape in bindings.items():
        for i in shape_indices(shape):
            if i in seen:
                raise EvalError(
                    "theorem %s reuses index %d (in %s and %s)"
                    % (name, i, seen[i], var))
            seen[i] = var


# -- hypothesis-space restriction ---------------------------------------------

def parametrize_bindings(hyp_expr, objs, eng, indices):
    """Restrict the bound objects to the hypothesis-satisfying space.

    Canonical mode composes a full input-space parametrization through
    every expression, after which the tuple image of the objects equals
    the satisfying set exactly.  The structural mode substitutes the
    variables the hypothesis forces to constants.  Returns (objects,
    hypothesis expression transported into the restricted space).
    """
    idxs = sorted(set(indices) | set(eng.support(hyp_expr)))
    if eng.mode == "bdd":
        sigma = eng.parametrize(hyp_expr, idxs)
        sub = lambda e: eng.compose(e, sigma)
    else:
        forced = forced_constants(eng, hyp_expr, idxs)
        sub = lambda e: eng.substitute(e, forced)
    new_objs = {v: map_symobj_exprs(o, sub) for v, o in objs.items()}
    return new_objs, sub(hyp_expr)


# -- coverage -----------------------------------------------------------------

_RECOGNIZED_HEADS = frozenset({
    "unsigned-byte-p", "signed-byte-p", "integerp", "natp", "posp",
    "booleanp", "equal", "member", "<", "not",
})

_EXPAND_DEPTH = 3


def _conjuncts(term, defs, do_not_expand, depth=_EXPAND_DEPTH):
    """Flatten the top-level conjunction, shallowly expanding unknown
    function calls so wrapper predicates become recognizable."""
    if isinstance(term, If) and isinstance(term.els, Quote) \
            and term.els.value is NIL:
        return (_conjuncts(term.test, defs, do_not_expand, depth)
                + _conjuncts(term.then, defs, do_not_expand, depth))
    if (depth > 0 and isinstance(term, Call)
            and term.fn not in _RECOGNIZED_HEADS
            and term.fn not in do_not_expand):
        defn = defs.lookup(term.fn)
        if defn is not None and len(defn[0]) == len(term.args):
            formals, body = defn
            expanded = substitute(body, dict(zip(formals, term.args)))
            return _conjuncts(expanded, defs, do_not_expand, depth - 1)
    return [term]


def _ground_value(term, defs):
    if isinstance(term, Quote):
        return term.value
    if free_vars(term):
        return None
    try:
        return eval_concrete(term, {}, defs, 100_000)
    except Exception:
        return None


class _Requirement:
    """The recognized conjuncts on one theorem variable, and what they
    say: the first finite set of values they allow, and their bounds,
    as given and tightened to integers."""

    def __init__(self, var):
        self.var = var
        self.terms = []
        self.values = None
        self.lo = self.hi = None  # integer bounds
        self.bottom = self.top = None  # rational bounds

    def add_lo(self, c, strict=False):
        n = _floor_int(c) + 1 if strict else _ceil_int(c)
        self.lo = n if self.lo is None else max(self.lo, n)
        self.bottom = c if self.bottom is None else max(self.bottom, c)

    def add_hi(self, c, strict=False):
        n = _ceil_int(c) - 1 if strict else _floor_int(c)
        self.hi = n if self.hi is None else min(self.hi, n)
        self.top = c if self.top is None else min(self.top, c)

    def admits(self, value, defs):
        """Do the recognized conjuncts hold at `value`?  One that fails
        to evaluate keeps the value."""
        for term in self.terms:
            try:
                if eval_concrete(term, {self.var: value}, defs, 100_000) is NIL:
                    return False
            except Exception:
                pass
        return True


def _ceil_int(x):
    return x if is_integer(x) else -((-x).__floor__())


def _floor_int(x):
    return x if is_integer(x) else x.__floor__()


def _absorb(req, term, defs):
    """Fold one conjunct into the requirement and say whether it was
    recognized.  Unrecognized conjuncts are dropped, which only enlarges
    the set the bindings must cover."""
    if not isinstance(term, Call):
        return False
    fn, args = term.fn, term.args
    is_var = lambda a: isinstance(a, Var) and a.name == req.var
    if len(args) == 1 and is_var(args[0]):
        if fn in ("natp", "posp"):
            req.add_lo(0 if fn == "natp" else 1)
        return fn in ("integerp", "natp", "posp", "booleanp")
    if fn in ("unsigned-byte-p", "signed-byte-p") and len(args) == 2 \
            and is_var(args[1]):
        k = _ground_value(args[0], defs)
        if not is_integer(k) or k < (0 if fn == "unsigned-byte-p" else 1):
            return False
        lo = 0 if fn == "unsigned-byte-p" else -(1 << (k - 1))
        req.add_lo(lo)
        req.add_hi(lo + (1 << k) - 1)
        return True
    if fn in ("equal", "member") and len(args) == 2 \
            and (is_var(args[0]) or fn == "equal" and is_var(args[1])):
        c = _ground_value(args[1] if is_var(args[0]) else args[0], defs)
        if c is None:
            return False
        items, tail = ([c], NIL) if fn == "equal" else list_elements(c)
        if tail is not NIL:
            return False
        if req.values is None:
            req.values = items
        return True
    negated = (fn == "not" and len(args) == 1 and isinstance(args[0], Call)
               and args[0].fn == "<")
    if negated:
        args = args[0].args
    if (fn == "<" or negated) and len(args) == 2 \
            and (is_var(args[0]) or is_var(args[1])):
        c = _ground_value(args[1] if is_var(args[0]) else args[0], defs)
        if not is_number(c):
            return False
        # x < c bounds x above, c < x below; negation flips the side and
        # makes the bound inclusive
        add = req.add_hi if is_var(args[0]) != negated else req.add_lo
        add(c, strict=not negated)
        return True
    return False


def _int_range_witness(shape, lo, hi):
    """The least integer from lo up that the shape misses.  With no lower
    bound it is one below the shape's integers (and at most hi), and
    with no bounds at all one above them.  A value past hi is left for
    the conjuncts' evaluation to reject."""
    if lo is None and hi is None:
        return shape_witness_outside(shape)
    intervals = sorted(shape_int_intervals(shape))
    if lo is None:
        return min(intervals[0][0] - 1 if intervals else 0, hi)
    for a, b in intervals:
        if a > lo:
            break
        lo = max(lo, b + 1)
    return lo


def _ratio_witness(shape, bottom, top):
    """A non-integer rational strictly between the bounds (unbounded
    ends allowed) that the shape misses; when the bounds meet or cross,
    the lower one, for evaluation to judge.  The shape holds finitely
    many values, so the search ends."""
    if bottom is not None and top is not None and bottom >= top:
        return bottom
    if bottom is None:
        bottom = (top if top is not None else 1) - 1
    if top is None:
        top = bottom + 1
    for d in count(2):
        q = bottom + Fraction(top - bottom, d)
        if q.denominator != 1 and not shape_contains(shape, q):
            return q


def _other_symbol(shape):
    """A symbol other than t and nil that the shape misses."""
    for n in count():
        sym = Symbol("other-symbol-%d" % n)
        if not shape_contains(shape, sym):
            return sym


def _requirement_witness(req, shape, defs):
    """A value the recognized conjuncts admit but the shape misses, or
    None.  Without a finite set the candidates stand for every value:
    the recognized conjuncts treat each integer, non-integer rational
    or other non-number like the candidate of its kind."""
    if req.values is not None:
        candidates = req.values
    else:
        candidates = (_int_range_witness(shape, req.lo, req.hi),
                      _ratio_witness(shape, req.bottom, req.top),
                      T, NIL, _other_symbol(shape))
    for v in candidates:
        if not shape_contains(shape, v) and req.admits(v, defs):
            return v
    return None


def check_coverage(hyp, bindings, defs, do_not_expand=frozenset()):
    """Do the bound shapes cover every value the hypothesis admits?

    Returns None when covered, else (variable, witness value).
    """
    conjuncts = _conjuncts(hyp, defs, frozenset(do_not_expand))
    reqs = {v: _Requirement(v) for v in bindings}
    for c in conjuncts:
        fv = free_vars(c)
        req = reqs.get(next(iter(fv))) if len(fv) == 1 else None
        if req is not None and _absorb(req, c, defs):
            req.terms.append(c)
    for v, shape in bindings.items():
        w = _requirement_witness(reqs[v], shape, defs)
        if w is not None:
            return (v, w)
    return None


# -- counterexamples ----------------------------------------------------------

def generate_counterexamples(bad, objs, indices, n, seed, eng, hyp, concl,
                             defs):
    """Distinct falsifying assignments: first the all-zeros-preferring
    and all-ones-preferring witnesses, then seeded random ones, each
    mapped through the restricted objects and re-verified concretely."""
    attempts = [("zeros", 0), ("ones", 0), ("random", seed)]
    attempts += [("random", seed + k) for k in range(1, 3 * max(n, 1) + 1)]
    out = []
    seen = set()
    for policy, s in attempts:
        if len(out) >= n:
            break
        env = eng.witness(bad, policy, indices, seed=s)
        if env is None:
            break
        values = {v: sym_eval(o, env, eng, defs=defs)
                  for v, o in objs.items()}
        key = tuple(sorted((v, print_value(val)) for v, val in values.items()))
        if key in seen:
            continue
        seen.add(key)
        verified = _verify_counterexample(values, hyp, concl, defs)
        out.append(Counterexample(values=values, policy=policy,
                                  verified=verified))
    return out


def _verify_counterexample(values, hyp, concl, defs):
    try:
        if eval_concrete(hyp, dict(values), defs) is NIL:
            return False
        return eval_concrete(concl, dict(values), defs) is NIL
    except Exception:
        return False


# -- main pipelines -----------------------------------------------------------

def prove_gl_thm(spec, defs, cfg, opts=None):
    """Prove one theorem; returns a ProofResult."""
    opts = opts or ProverOptions()
    mode = spec.mode or opts.mode
    seed = spec.seed if spec.seed is not None else opts.seed
    validate_bindings(spec.g_bindings, spec.hyp, spec.concl, spec.name)
    if opts.coverage_only or spec.coverage_only:
        failed = check_coverage(spec.hyp, spec.g_bindings, defs,
                                spec.do_not_expand)
        if failed is not None:
            return CoverageFailed(variable=failed[0], witness=failed[1])
        return CoverageOk()
    eng = make_engine(mode, node_budget=opts.node_budget,
                      sat_conflict_budget=opts.sat_conflict_budget)
    interp = Interp(defs, cfg, eng)
    indices = [i for shape in spec.g_bindings.values()
               for i in shape_indices(shape)]
    objs = {}
    stage = "bindings"
    hyp_expr = None
    try:
        objs = {v: shape_to_symobj(s, eng)
                for v, s in spec.g_bindings.items()}
        stage = "hyp"
        h = interp.run(spec.hyp, objs)
        hyp_expr = truth_expr(h, eng)
        stage = "vacuity"
        if not eng.satisfiable(hyp_expr):
            raise UnsatConstraint("no input satisfies the hypothesis")
        stage = "parametrize"
        pobjs, hyp_p = parametrize_bindings(hyp_expr, objs, eng, indices)
        stage = "concl"
        c = interp.run(spec.concl, pobjs)
        bad = eng.and_(nil_possibility(c, eng), hyp_p)
        stage = "decide"
        if eng.satisfiable(bad):
            stage = "counterexamples"
            cexs = generate_counterexamples(
                bad, pobjs, indices, spec.counterexample_count, seed, eng,
                spec.hyp, spec.concl, defs)
            if any(cx.verified for cx in cexs):
                result = Disproved(counterexamples=cexs)
            else:
                result = Indeterminate(
                    offender="no candidate counterexample verified "
                             "concretely",
                    examples=cexs[0].values if cexs else None)
        else:
            stage = "coverage"
            failed = check_coverage(spec.hyp, spec.g_bindings, defs,
                                    spec.do_not_expand)
            result = Proved() if failed is None else \
                CoverageFailed(variable=failed[0], witness=failed[1])
    except GApplyBreak as e:
        result = Indeterminate(
            offender="(%s %s)" % (e.fn, " ".join(render_symobj(a, eng)
                                                 for a in e.args)),
            examples=_example_values(objs, hyp_expr, indices, eng, defs))
    except IndeterminateError as e:
        result = Indeterminate(
            offender=render_symobj(e.offender, eng),
            examples=_example_values(objs, hyp_expr, indices, eng, defs))
    except (BudgetExceeded, RecursionError) as e:
        # the BDD operations and the interpreter recurse once per level
        budget = e.budget if isinstance(e, BudgetExceeded) else "recursion"
        result = ResourceLimit(stage="%s:%s" % (budget, stage))
    except UnsatConstraint:
        result = Proved(warnings=("vacuous hypothesis: no input satisfies it",))
    result.stats = {
        "steps": interp.steps,
        "merges": interp.merges,
        "nodes": eng.num_nodes,
        "dispatch": interp.dispatch,
        **eng.sat_stats(),
    }
    return result


def _example_values(objs, hyp_expr, indices, eng, defs):
    """Best-effort sample assignment for indeterminate diagnostics; None
    when a budget, an escape or an evaluation error stops it."""
    try:
        if hyp_expr is not None:
            env = eng.witness(hyp_expr, "zeros", indices)
        else:
            env = {i: False for i in indices}
        if env is None:
            return None
        return {v: sym_eval(o, env, eng, defs=defs) for v, o in objs.items()}
    except (BlastError, RecursionError):
        return None


def _add_stats(a, b):
    """Sum two obligations' stats: each integer counter and each dispatch
    kind.  `a` is None before the first obligation; in a coverage-only
    run, which keeps no stats, both are."""
    if a is None:
        return b
    out = {k: a[k] + b[k] for k in a if k != "dispatch"}
    out["dispatch"] = {k: a["dispatch"].get(k, 0) + b["dispatch"].get(k, 0)
                       for k in {**a["dispatch"], **b["dispatch"]}}
    return out


def _and_terms(a, b):
    return If(a, b, Quote(NIL))


def _or_terms(terms):
    if not terms:
        return Quote(NIL)
    out = terms[-1]
    for t in reversed(terms[:-1]):
        out = If(t, t, out)
    return out


def _case_label(assignment):
    return "(" + " ".join("(%s %s)" % (v, print_value(val))
                          for v, val in sorted(assignment.items())) + ")"


def _obligation(spec, name, hyp, concl, g_bindings):
    """A plain theorem that carries `spec`'s options."""
    return TheoremSpec(name, hyp, concl, g_bindings,
                       **{f.name: getattr(spec, f.name)
                          for f in fields(_Spec) if f.kw_only})


def prove_gl_param_thm(spec, defs, cfg, opts=None):
    """Case-split proof: each case is proved as its own theorem with the
    case hypothesis conjoined, then a completeness obligation shows the
    cases exhaust the hypothesis.  The result's stats sum those of every
    obligation run."""
    opts = opts or ProverOptions()
    stats = None
    for assignment, bindings in spec.param_bindings:
        label = _case_label(assignment)
        sub_hyp = _and_terms(spec.hyp,
                             substitute_constants(spec.param_hyp, assignment))
        case_spec = _obligation(spec, "%s %s" % (spec.name, label), sub_hyp,
                                spec.concl, bindings)
        result = prove_gl_thm(case_spec, defs, cfg, opts)
        stats = result.stats = _add_stats(stats, result.stats)
        if result.kind not in ("proved", "coverage-ok"):
            result.case = label
            return result
    disjuncts = [substitute_constants(spec.param_hyp, assignment)
                 for assignment, _ in spec.param_bindings]
    comp_spec = _obligation(spec, "%s (completeness)" % spec.name, spec.hyp,
                            _or_terms(disjuncts), spec.cov_bindings)
    result = prove_gl_thm(comp_spec, defs, cfg, opts)
    result.stats = _add_stats(stats, result.stats)
    if result.kind not in ("proved", "coverage-ok"):
        result.case = "completeness"
    return result
