"""Command-line front end: load a theorem file, run its events in
order, report the results.

Exit codes: 0 everything proved, 1 any disproof, 2 any indeterminate /
coverage failure / resource limit / event error (without a disproof),
3 usage or parse errors.
"""

import argparse
import json
import sys
import time
from dataclasses import dataclass, field

from .aig import DEFAULT_SAT_CONFLICT_BUDGET, parse_dimacs
from .errors import EvalError, FileFormatError, ReadError
from .interp import InterpConfig, allow_concrete_exec, register_preferred_def
from .lang import base_env
from .prover import (
    ParamTheoremSpec,
    ProverOptions,
    prove_gl_param_thm,
    prove_gl_thm,
)
from .sat import SAT, UNSAT, solve_cnf
from .toplevel import DefunEvent, DirectiveEvent, parse_events
from .values import is_integer, print_value

_FAILURE_KINDS = {"disproved", "indeterminate", "coverage-failed",
                  "resource-limit", "error"}


@dataclass
class EventReport:
    name: str
    kind: str
    result: dict
    wall_time: float = 0.0
    stats: dict = field(default_factory=dict)  # the proof result's stats


@dataclass
class RunReport:
    path: str
    events: list = field(default_factory=list)
    exit_status: int = 0


def _value_json(v):
    out = {"text": print_value(v)}
    if is_integer(v):
        out["decimal"] = v
        out["hex"] = ("-#x%x" % -v) if v < 0 else ("#x%x" % v)
    return out


def _result_json(result):
    out = {"status": result.kind}
    if result.case:
        out["case"] = result.case
    if result.kind == "proved" and result.warnings:
        out["warnings"] = list(result.warnings)
    if result.kind == "disproved":
        out["counterexamples"] = [
            {"policy": cx.policy, "verified": cx.verified,
             "values": {k: _value_json(v) for k, v in cx.values.items()}}
            for cx in result.counterexamples]
    if result.kind == "indeterminate":
        out["offender"] = result.offender
        if result.examples:
            out["examples"] = {k: _value_json(v)
                               for k, v in result.examples.items()}
    if result.kind == "coverage-failed":
        out["variable"] = result.variable
        out["witness"] = _value_json(result.witness)
    if result.kind == "resource-limit":
        out["stage"] = result.stage
    return out


def run_file(path, mode="bdd", seed=0, trace="off", break_on_g_apply=False,
             max_steps=None, node_budget=None, sat_conflicts=None,
             counterexamples=None, keep_going=False, coverage_only=False):
    """Process every event in the file, threading definitions, the
    interpreter configuration, and the current proof mode.  Diagnostics
    (traces, escape breaks) go to the error stream."""
    if counterexamples is not None and counterexamples < 1:
        raise ValueError("counterexample count must be positive, not %r"
                         % (counterexamples,))
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    try:
        events = parse_events(text)
    except RecursionError:
        # the reader and the term parser recurse once or twice per level
        raise FileFormatError("forms nested too deeply to read") from None
    report = RunReport(path=path)
    defs = base_env()
    cfg = InterpConfig(trace=trace, break_on_g_apply=break_on_g_apply)
    if max_steps is not None:
        cfg.step_limit = max_steps
    current_mode = mode
    saw = set()
    for ev in events:
        start = time.perf_counter()
        if isinstance(ev, DefunEvent):
            defs.define(ev.name, ev.formals, ev.body)
            entry = EventReport(name=ev.name, kind="defun",
                                result={"status": "defined"})
        elif isinstance(ev, DirectiveEvent):
            entry, cfg, current_mode = _run_directive(ev, defs, cfg,
                                                      current_mode)
            if entry.result["status"] == "error":
                saw.add("error")
        else:
            spec = ev.spec
            opts = ProverOptions(
                mode=current_mode, seed=seed, node_budget=node_budget,
                sat_conflict_budget=sat_conflicts,
                coverage_only=coverage_only)
            if counterexamples is not None:
                spec.counterexample_count = counterexamples
            prove = prove_gl_param_thm if isinstance(spec, ParamTheoremSpec) \
                else prove_gl_thm
            try:
                result = prove(spec, defs, cfg, opts)
                rjson = _result_json(result)
                stats = result.stats or {}
            except EvalError as e:
                rjson = {"status": "error", "message": str(e)}
                stats = {}
            entry = EventReport(name=spec.name, kind="theorem",
                                result=rjson, stats=stats)
            saw.add(rjson["status"])
        entry.wall_time = time.perf_counter() - start
        report.events.append(entry)
        if entry.result["status"] in _FAILURE_KINDS and not keep_going:
            break
    if "disproved" in saw:
        report.exit_status = 1
    elif saw & _FAILURE_KINDS:
        report.exit_status = 2
    else:
        report.exit_status = 0
    return report


def _run_directive(ev, defs, cfg, mode):
    """Run one directive: (its report, the config and mode after it)."""
    result = {"status": "ok"}
    if ev.kind == "preferred-def":
        fn, replacement = ev.payload
        name = "set-preferred-def %s" % fn
        try:
            cfg = register_preferred_def(cfg, fn, replacement, defs)
        except EvalError as e:
            result = {"status": "error", "message": str(e)}
    elif ev.kind == "concrete-exec":
        name = "allow-concrete-exec %s" % " ".join(sorted(ev.payload))
        cfg = allow_concrete_exec(cfg, ev.payload)
    elif ev.kind in ("bdd-mode", "aig-mode"):
        name = "gl-" + ev.kind
        mode = ev.kind[:3]
    else:
        raise ValueError("unknown directive %r" % (ev.kind,))
    return EventReport(name=name, kind="directive", result=result), cfg, mode


# -- rendering ----------------------------------------------------------------

def render_report_text(report):
    lines = []
    for ev in report.events:
        status = ev.result["status"]
        if ev.kind == "defun":
            lines.append("DEFUN     %s" % ev.name)
            continue
        if ev.kind == "directive":
            tag = "OK" if status == "ok" else "ERROR"
            lines.append("DIRECTIVE %s: %s" % (ev.name, tag))
            if status == "error":
                lines.append("  %s" % ev.result.get("message", ""))
            continue
        label = status.upper().replace("-", " ")
        lines.append("%-9s %s (%.2fs, %d steps, %d nodes)"
                     % (label, ev.name, ev.wall_time, ev.stats.get("steps", 0),
                        ev.stats.get("nodes", 0)))
        if ev.result.get("case"):
            lines.append("  failing case: %s" % ev.result["case"])
        for w in ev.result.get("warnings", ()):
            lines.append("  warning: %s" % w)
        if status == "disproved":
            for cx in ev.result["counterexamples"]:
                vals = ", ".join(
                    "%s = %s" % (k, _fmt_json_value(v))
                    for k, v in sorted(cx["values"].items()))
                flag = "verified" if cx["verified"] else "UNVERIFIED"
                lines.append("  [%s] %s   (%s)" % (cx["policy"], vals, flag))
        elif status == "indeterminate":
            lines.append("  offender: %s" % ev.result["offender"])
            for k, v in sorted(ev.result.get("examples", {}).items()):
                lines.append("  example: %s = %s" % (k, _fmt_json_value(v)))
        elif status == "coverage-failed":
            lines.append("  variable %s not covered; witness %s"
                         % (ev.result["variable"],
                            _fmt_json_value(ev.result["witness"])))
        elif status == "resource-limit":
            lines.append("  stage: %s" % ev.result["stage"])
        elif status == "error":
            lines.append("  %s" % ev.result.get("message", ""))
    lines.append("exit status %d" % report.exit_status)
    return "\n".join(lines) + "\n"


def _fmt_json_value(vj):
    if "hex" in vj:
        return "%s (%s)" % (vj["text"], vj["hex"])
    return vj["text"]


def render_report_json(report):
    doc = {
        "file": report.path,
        "exit_status": report.exit_status,
        "events": [
            {"name": ev.name, "kind": ev.kind, "result": ev.result,
             "wall_time": ev.wall_time, "steps": ev.stats.get("steps", 0),
             "nodes": ev.stats.get("nodes", 0), "stats": ev.stats}
            for ev in report.events
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


# -- entry point --------------------------------------------------------------

def build_arg_parser():
    p = argparse.ArgumentParser(
        prog="bitblast",
        description="Prove finite theorems about a small Lisp-like language "
                    "by bit-blasting.")
    p.add_argument("file", nargs="?", help="theorem file to process")
    p.add_argument("--mode", choices=["bdd", "aig"], default="bdd",
                   help="Boolean expression realization (default bdd)")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for random counterexample policies")
    p.add_argument("--trace", nargs="?", const="calls",
                   choices=["calls", "values", "json"], default="off",
                   help="trace the symbolic interpreter")
    p.add_argument("--break-on-g-apply", action="store_true",
                   help="abort with a diagnostic at the first escape node")
    p.add_argument("--max-steps", type=int, default=None,
                   help="interpreter step budget per theorem")
    p.add_argument("--node-budget", type=int, default=None,
                   help="Boolean-expression node budget per theorem")
    p.add_argument("--sat-conflicts", type=int,
                   default=DEFAULT_SAT_CONFLICT_BUDGET,
                   help="SAT conflict budget per query (aig mode)")
    p.add_argument("--counterexamples", type=int, default=None,
                   help="how many counterexamples to search for")
    p.add_argument("--json", action="store_true", help="machine-readable report")
    p.add_argument("--keep-going", action="store_true",
                   help="continue past the first failing event")
    p.add_argument("--coverage-only", action="store_true",
                   help="check binding coverage only; prove nothing")
    p.add_argument("--solve-dimacs", metavar="PATH", default=None,
                   help="dev tool: run the SAT solver on a DIMACS file")
    return p


def _solve_dimacs(path, budget, out):
    with open(path, "r", encoding="utf-8") as handle:
        num_vars, clauses = parse_dimacs(handle.read())
    kind, model = solve_cnf(num_vars, clauses, conflict_budget=budget)
    if kind is SAT:
        print("s SATISFIABLE", file=out)
        lits = [v if model[v] else -v for v in sorted(model)]
        print("v " + " ".join(str(l) for l in lits) + " 0", file=out)
        return 0
    if kind is UNSAT:
        print("s UNSATISFIABLE", file=out)
        return 0
    print("s UNKNOWN", file=out)
    return 2


def main(argv=None, out=sys.stdout, err=sys.stderr):
    sys.setrecursionlimit(100_000)
    args = build_arg_parser().parse_args(argv)
    if args.solve_dimacs:
        return _solve_dimacs(args.solve_dimacs, args.sat_conflicts, out)
    if not args.file:
        print("error: a theorem file is required", file=err)
        return 3
    if args.counterexamples is not None and args.counterexamples < 1:
        print("error: --counterexamples wants a positive count", file=err)
        return 3
    try:
        report = run_file(
            args.file, mode=args.mode, seed=args.seed, trace=args.trace,
            break_on_g_apply=args.break_on_g_apply, max_steps=args.max_steps,
            node_budget=args.node_budget, sat_conflicts=args.sat_conflicts,
            counterexamples=args.counterexamples, keep_going=args.keep_going,
            coverage_only=args.coverage_only)
    except (ReadError, FileFormatError) as e:
        print("parse error: %s" % e, file=err)
        return 3
    except OSError as e:
        print("error: %s" % e, file=err)
        return 3
    if args.json:
        out.write(render_report_json(report))
    else:
        out.write(render_report_text(report))
    return report.exit_status


if __name__ == "__main__":
    sys.exit(main())
