"""Span tracing of the prover's layers, applied from outside the package.

`Tracer.install()` wraps public functions and methods of the bitblast
modules and records one span (id, name, start, end, parent span id,
proof id) per call; `uninstall()` puts the originals back.  Because the
package binds names with `from .x import y`, a function is patched in
every module that binds it.  `check_sites()` resolves every hooked name
against the installed package and raises HookError naming the first
one that does not resolve, so that a rename can never leave a layer
metric silently at zero.

A layer's time is the total of its outermost calls: a call made while
another call of the same span name is open adds to self time only.
Self time is a span's duration minus the time its child spans cover.
"""

import importlib
import pkgutil
import sys
import time
from collections import defaultdict

# span name -> every module attribute that must bind the hooked function.
# The first site is the definition; all sites must hold the same object.
FUNCTION_SITES = {
    "toplevel.parse": ("bitblast.toplevel.parse_events",
                       "bitblast.cli.parse_events"),
    "interp.preferred_def": ("bitblast.interp.register_preferred_def",
                             "bitblast.cli.register_preferred_def"),
    "counterparts.apply": ("bitblast.counterparts.apply_counterpart",
                           "bitblast.interp.apply_counterpart"),
    "concrete.eval": ("bitblast.concrete.eval_concrete",
                      "bitblast.prover.eval_concrete",
                      "bitblast.interp.eval_concrete"),
    "sat.solve": ("bitblast.sat.solve_cnf", "bitblast.prover.solve_cnf"),
    "prover.proof": ("bitblast.prover.prove_gl_thm",
                     "bitblast.cli.prove_gl_thm"),
    "prover.make_engine": ("bitblast.engine.make_engine",
                           "bitblast.prover.make_engine"),
    "aig.forced_constants": ("bitblast.aig.forced_constants",
                             "bitblast.prover.forced_constants"),
    "prover.parametrize": ("bitblast.prover.parametrize_bindings",),
    "prover.counterexamples": ("bitblast.prover.generate_counterexamples",),
    "prover.coverage": ("bitblast.prover.check_coverage",),
}

# Boolean operations made into the engine handle
ENGINE_OPS = ("const", "var", "not_", "and_", "or_", "xor_", "iff_", "ite")
ENGINE_QUERIES = ("satisfiable", "valid")
# store methods wrapped per instance: mode -> {method: span name}
STORE_METHODS = {
    "bdd": {"parametrize": "bdd.parametrize", "compose": "bdd.compose",
            "witness": "bdd.witness"},
    "aig": {"to_cnf": "aig.to_cnf", "substitute": "aig.substitute"},
}

METHOD_SITES = (
    ("bitblast.interp.Interp.run",)
    + tuple("bitblast.engine.%s.%s" % (cls, op)
            for cls in ("BddEngine", "AigEngine")
            for op in ENGINE_OPS + ENGINE_QUERIES + ("witness",))
    + tuple("bitblast.bdd.BddStore." + m for m in STORE_METHODS["bdd"])
    + tuple("bitblast.aig.AigStore." + m for m in STORE_METHODS["aig"])
)

# engine handle mode -> span name of its Boolean operations
_OP_SPAN = {"bdd": "bdd.apply", "aig": "aig.build"}

# span name -> metric reporting its total time
_TIME_METRICS = {
    "toplevel.parse": "toplevel.parse_s",
    "interp.hyp": "interp.hyp_s",
    "interp.concl": "interp.concl_s",
    "interp.preferred_def": "interp.preferred_def_s",
    "counterparts.apply": "counterparts.apply_s",
    "bdd.apply": "bdd.apply_s",
    "bdd.parametrize": "bdd.parametrize_s",
    "bdd.compose": "bdd.compose_s",
    "bdd.witness": "bdd.witness_s",
    "aig.build": "aig.build_s",
    "aig.to_cnf": "aig.to_cnf_s",
    "aig.substitute": "aig.substitute_s",
    "aig.forced_constants": "aig.forced_constants_s",
    "sat.solve": "sat.solve_s",
    "prover.sat_query": "prover.sat_query_s",
    "prover.parametrize": "prover.parametrize_s",
    "prover.counterexamples": "prover.counterexamples_s",
    "prover.coverage": "prover.coverage_s",
    "prover.proof": "prover.proof_s",
    "concrete.eval": "concrete.eval_s",
}

# every metric `Tracer.metrics()` reports, in report order
METRICS = (
    "toplevel.parse_s",
    "interp.hyp_s", "interp.concl_s", "interp.self_s", "interp.steps",
    "interp.merges", "interp.dispatch.concrete",
    "interp.dispatch.counterpart", "interp.dispatch.preferred",
    "interp.dispatch.expand", "interp.preferred_def_s",
    "counterparts.apply_s", "counterparts.self_s", "counterparts.calls",
    "engine.ops",
    "bdd.apply_s", "bdd.nodes", "bdd.parametrize_s", "bdd.compose_s",
    "bdd.witness_s",
    "aig.build_s", "aig.nodes", "aig.to_cnf_s", "aig.cnf_clauses",
    "aig.substitute_s", "aig.forced_constants_s",
    "sat.solve_s", "sat.calls", "sat.result.sat", "sat.result.unsat",
    "sat.result.budget", "sat.input_vars", "sat.input_clauses",
    "prover.sat_query_s", "prover.parametrize_s", "prover.counterexamples_s",
    "prover.coverage_s", "prover.proof_s", "prover.proofs",
    "concrete.eval_s", "concrete.eval_calls",
)


class HookError(RuntimeError):
    """A hooked name does not resolve against the installed package."""


def _resolve(dotted):
    parts = dotted.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        modname = ".".join(parts[:cut])
        try:
            obj = importlib.import_module(modname)
        except ImportError:
            continue
        for attr in parts[cut:]:
            try:
                obj = getattr(obj, attr)
            except AttributeError:
                raise HookError("hooked name %s does not resolve" % dotted) \
                    from None
        if not callable(obj):
            raise HookError("hooked name %s is not callable" % dotted)
        return obj
    raise HookError("hooked name %s does not resolve" % dotted)


def _package_modules():
    """Every bitblast module, imported, so no binding is missed."""
    import bitblast

    for info in pkgutil.iter_modules(bitblast.__path__, "bitblast."):
        importlib.import_module(info.name)
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "bitblast"
                                  or name.startswith("bitblast."))]


def check_sites():
    """Resolve every hooked name; {span name: original function}."""
    originals = {}
    for span, sites in FUNCTION_SITES.items():
        fn = _resolve(sites[0])
        for site in sites[1:]:
            if _resolve(site) is not fn:
                raise HookError("hooked name %s is not bound to %s"
                                % (site, sites[0]))
        originals[span] = fn
    for site in METHOD_SITES:
        _resolve(site)
    return originals


class Tracer:
    """Records spans and counters for one traced pass."""

    def __init__(self):
        self.spans = []    # (id, name, start, end, parent id, proof id)
        self._open = []    # [span id, seconds covered by child spans]
        self._next_id = 1
        self._depth = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.counters = defaultdict(int)
        self._leaf = defaultdict(lambda: [0.0, 0])
        self.proof = 0
        self._in_proof = False
        self._interp_runs = 0
        self._mode = None
        self._patched = []  # (owner, attribute, original)

    # -- spans ----------------------------------------------------------------

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span called `name`."""
        sid = self._next_id
        self._next_id += 1
        parent = self._open[-1] if self._open else None
        frame = [sid, 0.0]
        self._open.append(frame)
        depth = self._depth
        depth[name] += 1
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._open.pop()
            depth[name] -= 1
            took = end - start
            if parent is not None:
                parent[1] += took
            if depth[name] == 0:
                self.total[name] += took
                self.calls[name] += 1
            self.self_time[name] += took - frame[1]
            self.spans.append((sid, name, start, end,
                               parent[0] if parent else None,
                               self.proof if self._in_proof else None))

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced

    def wrap_leaf(self, name, fn):
        """A leaner `wrap` for the very frequent calls that open no traced
        call themselves, such as the engine's Boolean operations."""
        clock = time.perf_counter
        open_frames = self._open
        spans = self.spans
        stat = self._leaf[name]  # [seconds, calls]

        def traced(*args):
            start = clock()
            try:
                return fn(*args)
            finally:
                end = clock()
                took = end - start
                stat[0] += took
                stat[1] += 1
                sid = self._next_id
                self._next_id = sid + 1
                parent = None
                if open_frames:
                    frame = open_frames[-1]
                    frame[1] += took
                    parent = frame[0]
                spans.append((sid, name, start, end, parent,
                              self.proof if self._in_proof else None))
        return traced

    # -- hooks ----------------------------------------------------------------

    def _hook_for(self, span, fn):
        if span == "prover.proof":
            return self._proof_hook(fn)
        if span == "prover.make_engine":
            return self._engine_hook(fn)
        if span == "sat.solve":
            return self._solve_hook(fn)
        return self.wrap(span, fn)

    def _proof_hook(self, fn):
        def prove_gl_thm(*args, **kwargs):
            self.proof += 1
            self._in_proof = True
            self._interp_runs = 0
            self._mode = None
            try:
                result = self.call("prover.proof", fn, *args, **kwargs)
            finally:
                self._in_proof = False
            stats = getattr(result, "stats", None) or {}
            c = self.counters
            c["interp.steps"] += stats.get("steps", 0)
            c["interp.merges"] += stats.get("merges", 0)
            for kind, n in stats.get("dispatch", {}).items():
                c["interp.dispatch." + kind] += n
            if self._mode is not None:
                c[self._mode + ".nodes"] += stats.get("nodes", 0)
            return result
        return prove_gl_thm

    def _engine_hook(self, fn):
        def make_engine(*args, **kwargs):
            eng = fn(*args, **kwargs)
            self._mode = eng.mode
            op_span = _OP_SPAN[eng.mode]
            for op in ENGINE_OPS:
                setattr(eng, op, self.wrap_leaf(op_span, getattr(eng, op)))
            for q in ENGINE_QUERIES:
                setattr(eng, q, self.wrap("prover.sat_query", getattr(eng, q)))
            for method, span in STORE_METHODS[eng.mode].items():
                setattr(eng.store, method,
                        self.wrap(span, getattr(eng.store, method)))
            if eng.mode == "aig":
                to_cnf = eng.store.to_cnf

                def counted_to_cnf(root):
                    cnf, out = to_cnf(root)
                    self.counters["aig.cnf_clauses"] += len(cnf.clauses)
                    return cnf, out
                eng.store.to_cnf = counted_to_cnf
            return eng
        return make_engine

    def _solve_hook(self, fn):
        def solve_cnf(num_vars, clauses, *args, **kwargs):
            kind, model = self.call("sat.solve", fn, num_vars, clauses,
                                    *args, **kwargs)
            c = self.counters
            c["sat.result." + kind] += 1
            c["sat.input_vars"] += num_vars
            c["sat.input_clauses"] += len(clauses)
            return kind, model
        return solve_cnf

    def _interp_run_hook(self, fn):
        def run(interp, term, bindings):
            self._interp_runs += 1
            name = "interp.hyp" if self._interp_runs == 1 else "interp.concl"
            return self.call(name, fn, interp, term, bindings)
        return run

    def _patch(self, owner, attr, new):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        """Patch every binding of every hooked function, and Interp.run."""
        originals = check_sites()
        by_id = {id(fn): self._hook_for(span, fn)
                 for span, fn in originals.items()}
        try:
            for module in _package_modules():
                for attr, value in list(vars(module).items()):
                    hook = by_id.get(id(value))
                    if hook is not None:
                        self._patch(module, attr, hook)
            from bitblast.interp import Interp
            self._patch(Interp, "run", self._interp_run_hook(Interp.run))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- results --------------------------------------------------------------

    def metrics(self):
        """Per-layer metrics of everything traced so far."""
        for name, (seconds, calls) in self._leaf.items():
            self.total[name] = self.self_time[name] = seconds
            self.calls[name] = calls
        out = {metric: self.total[span] for span, metric in
               _TIME_METRICS.items()}
        out.update(self.counters)
        out["interp.self_s"] = (self.self_time["interp.hyp"]
                                + self.self_time["interp.concl"])
        out["counterparts.self_s"] = self.self_time["counterparts.apply"]
        out["counterparts.calls"] = self.calls["counterparts.apply"]
        out["engine.ops"] = self.calls["bdd.apply"] + self.calls["aig.build"]
        out["sat.calls"] = self.calls["sat.solve"]
        out["prover.proofs"] = self.calls["prover.proof"]
        out["concrete.eval_calls"] = self.calls["concrete.eval"]
        return {m: out.get(m, 0) for m in METRICS}

    def write_spans(self, path):
        """Write the recorded spans as tab-separated lines."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("id\tname\tstart\tend\tparent\tproof\n")
            for sid, name, start, end, parent, proof in self.spans:
                handle.write("%d\t%s\t%.9f\t%.9f\t%s\t%s\n" % (
                    sid, name, start, end, "" if parent is None else parent,
                    "" if proof is None else proof))
