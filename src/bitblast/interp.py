"""The symbolic interpreter: eager argument evaluation with a four-way
dispatch per call.

1. all arguments concrete and the function is a primitive (or has been
   allowed for concrete execution): run it directly;
2. the function has a symbolic counterpart: use it;
3. the function has a registered preferred definition: interpret the
   replacement body;
4. otherwise expand the stored definition.

`if` with a non-constant test interprets both branches and merges the
results.  One `Interp` serves one proof run.  It counts interpreter
entries plus merges against `cfg.step_limit`, so runaway symbolic
recursion surfaces as a resource limit rather than a hang, and keeps
the run's merge and dispatch counts for its stats.
"""

import json
import random
import sys
from dataclasses import dataclass, field, replace

from .concrete import (
    DEFAULT_STEP_LIMIT,
    PRIMITIVES,
    apply_primitive,
    eval_concrete,
)
from .counterparts import SymbolicContext, apply_counterpart, has_counterpart
from .errors import (
    EvalError,
    GApplyBreak,
    IndeterminateError,
    StepLimitExceeded,
)
from .lang import Call, If, Let, Quote, Var, free_vars, render_term
from .symobj import Concrete, GIte, merge_ite, render_symobj, truth_expr
from .values import NIL, T, Cons, Symbol, print_value, values_equal

TRACE_OFF = "off"
TRACE_CALLS = "calls"
TRACE_VALUES = "values"
TRACE_JSON = "json"


@dataclass
class InterpConfig:
    preferred_defs: dict = field(default_factory=dict)
    concrete_exec_fns: frozenset = frozenset()
    step_limit: int = DEFAULT_STEP_LIMIT
    trace: str = TRACE_OFF
    break_on_g_apply: bool = False


def set_debug_hooks(cfg, trace=None, break_on_g_apply=None):
    """Functional update of the tracing / escape-break hooks."""
    changes = {}
    if trace is not None:
        if trace not in (TRACE_OFF, TRACE_CALLS, TRACE_VALUES, TRACE_JSON):
            raise ValueError("unknown trace mode %r" % (trace,))
        changes["trace"] = trace
    if break_on_g_apply is not None:
        changes["break_on_g_apply"] = bool(break_on_g_apply)
    return replace(cfg, preferred_defs=dict(cfg.preferred_defs), **changes)


def allow_concrete_exec(cfg, names):
    return replace(cfg, preferred_defs=dict(cfg.preferred_defs),
                   concrete_exec_fns=cfg.concrete_exec_fns | frozenset(names))


class Interp:
    """One proof run: its steps against `cfg.step_limit`, its merge and
    dispatch counts, and its trace sink (standard error by default)."""

    def __init__(self, defs, cfg, eng, trace_out=None):
        self.defs = defs
        self.cfg = cfg
        self.eng = eng
        self.steps = 0
        self.merges = 0
        self.dispatch = {"concrete": 0, "counterpart": 0,
                         "preferred": 0, "expand": 0}
        self.trace_out = trace_out if trace_out is not None else sys.stderr
        self.ctx = SymbolicContext(
            eng, on_g_apply=self._on_g_apply if cfg.break_on_g_apply else None)

    def _tick(self):
        self.steps += 1
        if self.steps > self.cfg.step_limit:
            raise StepLimitExceeded(
                "interpreter step limit (%d) exhausted" % self.cfg.step_limit)

    def _on_g_apply(self, fn, args):
        print("escape: (%s %s)" % (fn, " ".join(render_symobj(a, self.eng)
                                                 for a in args)),
              file=self.trace_out)
        raise GApplyBreak(fn, args)

    def run(self, term, bindings):
        missing = free_vars(term) - set(bindings)
        if missing:
            raise EvalError("no binding for %s" % ", ".join(sorted(missing)))
        return self._interp(term, dict(bindings))

    def _trace(self, term, env):
        concrete = {k: print_value(v.value) for k, v in sorted(env.items())
                    if isinstance(v, Concrete)}
        if self.cfg.trace == TRACE_JSON:
            line = json.dumps({"fn": term.fn, "term": render_term(term),
                               "bindings": concrete})
        else:
            line = "sym> " + render_term(term)
            if self.cfg.trace == TRACE_VALUES and concrete:
                line += "   [" + ", ".join("%s = %s" % kv
                                           for kv in concrete.items()) + "]"
        print(line, file=self.trace_out)

    def _interp(self, term, env):
        self._tick()
        if isinstance(term, Quote):
            return Concrete(term.value)
        if isinstance(term, Var):
            try:
                return env[term.name]
            except KeyError:
                raise EvalError("unbound variable %s" % term.name) from None
        if isinstance(term, If):
            test = self._interp(term.test, env)
            try:
                tt = truth_expr(test, self.eng)
            except IndeterminateError:
                return GIte(test, self._interp(term.then, env),
                            self._interp(term.els, env))
            if self.eng.is_true(tt):
                return self._interp(term.then, env)
            if self.eng.is_false(tt):
                return self._interp(term.els, env)
            then = self._interp(term.then, env)
            els = self._interp(term.els, env)
            self.merges += 1
            self._tick()
            return merge_ite(self.eng, tt, then, els)
        if isinstance(term, Let):
            if term.sequential:
                scope = dict(env)
                for name, sub in term.bindings:
                    scope[name] = self._interp(sub, scope)
            else:
                scope = dict(env)
                for name, sub in term.bindings:
                    scope[name] = self._interp(sub, env)
            return self._interp(term.body, scope)
        if isinstance(term, Call):
            if self.cfg.trace != TRACE_OFF:
                self._trace(term, env)
            args = [self._interp(a, env) for a in term.args]
            return self.apply(term.fn, args)
        raise EvalError("cannot interpret %r" % (term,))

    def apply(self, fn, objs):
        cfg = self.cfg
        if all(isinstance(o, Concrete) for o in objs):
            if fn in PRIMITIVES:
                self.dispatch["concrete"] += 1
                return Concrete(apply_primitive(fn, [o.value for o in objs]))
            if fn in cfg.concrete_exec_fns and fn in self.defs:
                self.dispatch["concrete"] += 1
                formals, body = self.defs.lookup(fn)
                if len(formals) != len(objs):
                    raise EvalError("arity mismatch for %s" % fn)
                value = eval_concrete(body,
                                      dict(zip(formals, (o.value for o in objs))),
                                      self.defs)
                return Concrete(value)
        if has_counterpart(fn):
            self.dispatch["counterpart"] += 1
            return apply_counterpart(self.ctx, fn, objs)
        if fn in cfg.preferred_defs:
            self.dispatch["preferred"] += 1
            formals, replacement = cfg.preferred_defs[fn]
            if len(formals) != len(objs):
                raise EvalError("arity mismatch for %s" % fn)
            return self._interp(replacement, dict(zip(formals, objs)))
        defn = self.defs.lookup(fn)
        if defn is None:
            raise EvalError("unknown function %s" % fn)
        formals, body = defn
        if len(formals) != len(objs):
            raise EvalError("arity mismatch for %s: wanted %d, got %d"
                            % (fn, len(formals), len(objs)))
        self.dispatch["expand"] += 1
        return self._interp(body, dict(zip(formals, objs)))


# -- preferred definitions ----------------------------------------------------

_SAMPLE_COUNT = 1000
_SAMPLE_STEP_LIMIT = 200_000


def _random_value(rng, depth=2):
    roll = rng.random()
    if roll < 0.55 or depth == 0:
        return rng.randint(-(1 << 15), (1 << 15) - 1)
    if roll < 0.70:
        return rng.randint(0, 255)
    if roll < 0.80:
        return T if rng.random() < 0.5 else NIL
    if roll < 0.86:
        return Symbol(rng.choice(("a", "b", "c")))
    return Cons(_random_value(rng, depth - 1), _random_value(rng, depth - 1))


def register_preferred_def(cfg, fn_name, replacement, defs):
    """Extend the preferred-definition table.

    The replacement must mention only the original formals, and is
    vetted by randomized concrete equivalence testing against the
    stored definition before being accepted.
    """
    defn = defs.lookup(fn_name)
    if defn is None:
        raise EvalError("cannot register a preferred definition for "
                        "undefined function %s" % fn_name)
    formals, body = defn
    extra = free_vars(replacement) - set(formals)
    if extra:
        raise EvalError("replacement for %s mentions %s outside its formals"
                        % (fn_name, ", ".join(sorted(extra))))
    rng = random.Random(0)  # fixed, so vetting is reproducible
    for trial in range(_SAMPLE_COUNT):
        env = {f: _random_value(rng) for f in formals}
        try:
            a = eval_concrete(body, env, defs, _SAMPLE_STEP_LIMIT)
        except StepLimitExceeded:
            continue
        except EvalError:
            a = ("error",)
        try:
            b = eval_concrete(replacement, env, defs, _SAMPLE_STEP_LIMIT)
        except StepLimitExceeded:
            continue
        except EvalError:
            b = ("error",)
        same = (a == b) if isinstance(a, tuple) or isinstance(b, tuple) \
            else values_equal(a, b)
        if not same:
            raise EvalError(
                "replacement for %s disagrees with its definition on sample "
                "%d: %s" % (fn_name, trial,
                            ", ".join("%s = %s" % (k, print_value(v))
                                      for k, v in sorted(env.items()))))
    table = dict(cfg.preferred_defs)
    table[fn_name] = (formals, replacement)
    return replace(cfg, preferred_defs=table)
