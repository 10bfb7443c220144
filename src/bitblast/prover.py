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

from .concrete import eval_concrete
from .engine import make_engine
from .errors import (
    EvalError,
    GApplyBreak,
    IndeterminateError,
    NodeBudgetExceeded,
    SatBudgetExceeded,
    StepLimitExceeded,
    UnsatConstraint,
)
from .aig import forced_constants
from .interp import Interp, InterpState
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
# until it reads the proofs' counters instead (ROADMAP item 6)
from .sat import solve_cnf  # noqa: F401
from .symobj import (
    map_symobj_exprs,
    nil_possibility,
    render_symobj,
    shape_coverage_descriptor,
    shape_indices,
    shape_to_symobj,
    sym_eval,
    truth_expr,
    descriptor_contains,
    descriptor_int_intervals,
    descriptor_witness_outside,
)
from .values import NIL, T, is_integer, is_number, print_value, values_equal


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
    g_bindings: dict  # var name -> ShapeSpec


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
class Proved:
    kind = "proved"
    warnings: tuple = ()
    case: str = None
    stats: dict = None


@dataclass
class Disproved:
    kind = "disproved"
    counterexamples: list = field(default_factory=list)
    case: str = None
    stats: dict = None


@dataclass
class Indeterminate:
    kind = "indeterminate"
    offender: str = ""
    examples: dict = None
    case: str = None
    stats: dict = None


@dataclass
class CoverageFailed:
    kind = "coverage-failed"
    variable: str = ""
    witness: object = None
    case: str = None
    stats: dict = None


@dataclass
class ResourceLimit:
    kind = "resource-limit"
    stage: str = ""
    case: str = None
    stats: dict = None


@dataclass
class CoverageOk:
    kind = "coverage-ok"
    case: str = None
    stats: dict = None


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
    """Accumulated recognized constraints on one theorem variable."""

    def __init__(self):
        self.has_int = False
        self.lo = None
        self.hi = None
        self.boolish = False
        self.sets = []

    def add_lo(self, v):
        self.lo = v if self.lo is None else max(self.lo, v)

    def add_hi(self, v):
        self.hi = v if self.hi is None else min(self.hi, v)


def _ceil_int(x):
    return x if is_integer(x) else -((-x).__floor__())


def _floor_int(x):
    return x if is_integer(x) else x.__floor__()


def _absorb(req, term, var, defs):
    """Fold one recognized conjunct into the requirement; unrecognized
    conjuncts are dropped, which only enlarges the set the bindings
    must cover."""
    if isinstance(term, Call):
        fn, args = term.fn, term.args
        if fn == "integerp" and len(args) == 1:
            req.has_int = True
            return
        if fn in ("natp", "posp") and len(args) == 1:
            req.has_int = True
            req.add_lo(0 if fn == "natp" else 1)
            return
        if fn == "booleanp" and len(args) == 1:
            req.boolish = True
            return
        if fn in ("unsigned-byte-p", "signed-byte-p") and len(args) == 2:
            k = _ground_value(args[0], defs)
            if is_integer(k) and k >= (0 if fn == "unsigned-byte-p" else 1):
                req.has_int = True
                if fn == "unsigned-byte-p":
                    req.add_lo(0)
                    req.add_hi((1 << k) - 1)
                else:
                    req.add_lo(-(1 << (k - 1)))
                    req.add_hi((1 << (k - 1)) - 1)
            return
        if fn == "equal" and len(args) == 2:
            for a, b in ((args[0], args[1]), (args[1], args[0])):
                if isinstance(a, Var) and a.name == var:
                    c = _ground_value(b, defs)
                    if c is not None:
                        req.sets.append([c])
                    return
            return
        if fn == "member" and len(args) == 2 and isinstance(args[0], Var):
            lst = _ground_value(args[1], defs)
            if lst is not None:
                from .values import list_elements
                items, tail = list_elements(lst)
                if tail is NIL:
                    req.sets.append(items)
            return
        if fn == "<" and len(args) == 2:
            if isinstance(args[0], Var) and args[0].name == var:
                c = _ground_value(args[1], defs)
                if is_number(c):
                    req.add_hi(_ceil_int(c) - 1)
            elif isinstance(args[1], Var) and args[1].name == var:
                c = _ground_value(args[0], defs)
                if is_number(c):
                    req.add_lo(_floor_int(c) + 1)
            return
        if fn == "not" and len(args) == 1 and isinstance(args[0], Call) \
                and args[0].fn == "<" and len(args[0].args) == 2:
            a, b = args[0].args
            if isinstance(a, Var) and a.name == var:
                c = _ground_value(b, defs)
                if is_number(c):
                    req.add_lo(_ceil_int(c))
            elif isinstance(b, Var) and b.name == var:
                c = _ground_value(a, defs)
                if is_number(c):
                    req.add_hi(_floor_int(c))
            return


def _merged_intervals(descriptor):
    spans = sorted(descriptor_int_intervals(descriptor))
    merged = []
    for lo, hi in spans:
        if merged and lo <= merged[-1][1] + 1:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return merged


def _int_range_witness(descriptor, lo, hi):
    """Smallest integer in [lo, hi] (unbounded ends allowed) that the
    descriptor misses, or None when the whole range is covered."""
    merged = _merged_intervals(descriptor)
    if lo is None:
        # the required range reaches below any finite coverage
        w = merged[0][0] - 1 if merged else 0
        return w if hi is None else min(w, hi)
    pos = lo
    for a, b in merged:
        if b < pos:
            continue
        if a > pos:
            return pos
        pos = b + 1
        if hi is not None and pos > hi:
            return None
    if hi is None or pos <= hi:
        return pos
    return None


def _requirement_witness(req, descriptor):
    """A value the hypothesis admits but the descriptor misses, or None."""
    if req.sets:
        values = req.sets[0]
        for other in req.sets[1:]:
            values = [v for v in values
                      if any(values_equal(v, u) for u in other)]
        if req.boolish:
            values = [v for v in values if v is T or v is NIL]
        if req.has_int or req.lo is not None or req.hi is not None:
            values = [v for v in values if is_integer(v)
                      and (req.lo is None or v >= req.lo)
                      and (req.hi is None or v <= req.hi)]
        for v in values:
            if not descriptor_contains(descriptor, v):
                return v
        return None
    if req.boolish:
        if req.has_int:
            return None  # no value is both boolean and integer
        for v in (T, NIL):
            if not descriptor_contains(descriptor, v):
                return v
        return None
    if req.has_int:
        if req.lo is not None and req.hi is not None and req.lo > req.hi:
            return None
        return _int_range_witness(descriptor, req.lo, req.hi)
    return descriptor_witness_outside(descriptor)


def check_coverage(hyp, bindings, defs, do_not_expand=frozenset()):
    """Do the bound shapes cover every value the hypothesis admits?

    Returns None when covered, else (variable, witness value).
    """
    conjuncts = _conjuncts(hyp, defs, frozenset(do_not_expand))
    reqs = {v: _Requirement() for v in bindings}
    for c in conjuncts:
        fv = free_vars(c)
        if len(fv) != 1:
            continue
        v = next(iter(fv))
        if v in reqs:
            _absorb(reqs[v], c, v, defs)
    for v, shape in bindings.items():
        descriptor = shape_coverage_descriptor(shape)
        w = _requirement_witness(reqs[v], descriptor)
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
    state = InterpState(cfg.step_limit)
    interp = Interp(defs, cfg, eng, state)
    indices = []
    for shape in spec.g_bindings.values():
        indices.extend(shape_indices(shape))
    objs = {v: shape_to_symobj(s, eng) for v, s in spec.g_bindings.items()}
    stage = "hyp"
    hyp_expr = None
    try:
        h = interp.run(spec.hyp, objs)
        hyp_expr = truth_expr(h, eng)
        stage = "vacuity"
        if not eng.satisfiable(hyp_expr):
            return _finish(Proved(warnings=(
                "vacuous hypothesis: no input satisfies it",)), state, eng)
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
            verified = [cx for cx in cexs if cx.verified]
            if not verified:
                return _finish(Indeterminate(
                    offender="no candidate counterexample verified "
                             "concretely",
                    examples=cexs[0].values if cexs else None), state, eng)
            return _finish(Disproved(counterexamples=cexs), state, eng)
        stage = "coverage"
        failed = check_coverage(spec.hyp, spec.g_bindings, defs,
                                spec.do_not_expand)
        if failed is not None:
            return _finish(CoverageFailed(variable=failed[0],
                                          witness=failed[1]), state, eng)
        return _finish(Proved(), state, eng)
    except GApplyBreak as e:
        offender = "(%s %s)" % (e.fn, " ".join(render_symobj(a, eng)
                                               for a in e.args))
        return _finish(Indeterminate(
            offender=offender,
            examples=_example_values(objs, hyp_expr, indices, eng, defs)),
            state, eng)
    except IndeterminateError as e:
        return _finish(Indeterminate(
            offender=render_symobj(e.offender, eng),
            examples=_example_values(objs, hyp_expr, indices, eng, defs)),
            state, eng)
    except StepLimitExceeded:
        return _finish(ResourceLimit(stage="steps:" + stage), state, eng)
    except NodeBudgetExceeded:
        return _finish(ResourceLimit(stage="nodes:" + stage), state, eng)
    except SatBudgetExceeded:
        return _finish(ResourceLimit(stage="sat:" + stage), state, eng)
    except RecursionError:
        # the BDD operations and the interpreter recurse once per level
        return _finish(ResourceLimit(stage="recursion:" + stage), state, eng)
    except UnsatConstraint:
        return _finish(Proved(warnings=(
            "vacuous hypothesis: no input satisfies it",)), state, eng)


def _example_values(objs, hyp_expr, indices, eng, defs):
    """Best-effort sample assignment for indeterminate diagnostics."""
    try:
        if hyp_expr is not None:
            env = eng.witness(hyp_expr, "zeros", indices)
        else:
            env = {i: False for i in indices}
        if env is None:
            return None
        return {v: sym_eval(o, env, eng, defs=defs) for v, o in objs.items()}
    except Exception:
        return None


def _finish(result, state, eng):
    result.stats = {
        "steps": state.steps,
        "merges": state.merges,
        "nodes": eng.num_nodes,
        "dispatch": dict(state.dispatch),
        **eng.sat_stats(),
    }
    return result


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
