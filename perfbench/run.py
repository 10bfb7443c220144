"""Prover benchmark: time to verdict on whole theorem files.

Run from the root of a checkout:

    python3 perfbench/run.py --workload popcount-bdd --seed 1 \
        --seconds 40 --trace 0

Each pass runs every file of the workload once through the public front
end (`bitblast.cli.run_file`) in a fresh single-threaded child process,
which is killed if it runs past PASS_CAP_S; obligations it leaves
undecided count as failed.  Passes start while one more should end
within --seconds.  Every verdict is checked against a known answer,
and every counterexample is re-verified by concrete evaluation.

--trace 0 reports the end-to-end metrics, measured with tracing off.
--trace 1 interleaves untraced and traced passes and reports the
per-layer metrics of the traced ones (see hooks.py), the tracing
overhead, and fails the run if tracing changed any verdict.
--workload all runs every workload in turn.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, ".out")
WORKER = os.path.join(HERE, "worker.py")

PASS_CAP_S = 60.0   # a pass still running after this long is killed
RUN_LIMIT_S = 165.0  # no pass of a run is left running past this

# (name, unit) of the end-to-end metrics, all measured with tracing off
END_TO_END = (("wall_s", "s"), ("verdict_max_s", "s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"))

_MAX_PROBLEMS_SHOWN = 20


class SetupError(Exception):
    """The benchmark cannot run in this directory."""


def _load_package():
    if not os.path.isfile(os.path.join(SRC, "bitblast", "cli.py")):
        raise SetupError("no bitblast package under %s" % SRC)
    sys.path.insert(0, SRC)
    sys.path.insert(0, ROOT)
    from perfbench import hooks

    try:
        hooks.check_sites()
    except hooks.HookError as e:
        raise SetupError(str(e)) from None


def _revision():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count()


class Pass:
    """What one child process reported."""

    def __init__(self, traced, lines, killed, elapsed, returncode, stderr):
        self.traced = traced
        self.killed = killed
        self.elapsed = elapsed
        self.returncode = returncode
        self.stderr = stderr
        self.files = {}
        self.totals = None
        for line in lines:
            try:
                doc = json.loads(line)
            except ValueError:
                continue
            if doc.get("done"):
                self.totals = doc
            elif "path" in doc:
                self.files[(doc["path"], doc["mode"])] = doc["events"]

    @property
    def complete(self):
        return self.totals is not None and self.returncode == 0

    @property
    def wall_s(self):
        return self.totals["wall_s"] if self.complete else self.elapsed


def _run_pass(work, traced, deadline, spans_path=None):
    spec = json.dumps({"src": SRC, "jobs": work.jobs, "seed": work.seed,
                       "trace": traced, "spans": spans_path})
    cap = max(1.0, min(PASS_CAP_S, deadline - time.monotonic()))
    start = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, WORKER, spec], cwd=ROOT,
                              capture_output=True, timeout=cap)
        out, err, killed, code = proc.stdout, proc.stderr, False, \
            proc.returncode
    except subprocess.TimeoutExpired as e:
        out, err, killed, code = e.stdout or b"", e.stderr or b"", True, None
    elapsed = time.monotonic() - start
    return Pass(traced, out.decode("utf-8", "replace").splitlines(), killed,
                elapsed, code, err.decode("utf-8", "replace"))


def _check_pass(p, work, checker, reference, problems):
    """Failed obligations of one pass; appends messages to problems."""
    failed = 0
    for path, mode in work.jobs:
        expected = work.answers[path]
        events = p.files.get((path, mode))
        where = "%s [%s]" % (os.path.relpath(path, ROOT), mode)
        if events is None:
            failed += len(expected)
            last = (p.stderr.strip().splitlines() or [""])[-1]
            why = "killed at the cap" if p.killed else \
                "pass exited with %s: %s" % (p.returncode, last)
            problems.append("%s: undecided, %s" % (where, why))
            continue
        bad = set()
        for name, msg in checker.check_file(path, events):
            bad.add(name)
            problems.append("%s %s: %s" % (where, name, msg))
        decided = {ev["name"]: ev["result"] for ev in events
                   if ev["kind"] == "theorem"}
        for name in expected:
            if name not in decided:
                bad.add(name)
                problems.append("%s %s: no verdict" % (where, name))
                continue
            ref = reference.setdefault((path, mode, name), decided[name])
            if p.traced and decided[name] != ref:
                bad.add(name)
                problems.append("%s %s: traced verdict %s differs from "
                                "untraced %s" % (where, name,
                                                 json.dumps(decided[name]),
                                                 json.dumps(ref)))
        failed += len(bad & set(expected))
    return failed


def _median(values):
    return statistics.median(values) if values else 0.0


def run_workload(name, seed, seconds, trace):
    """Measure one workload; (correct, attempted, failed, metrics, info)."""
    from perfbench import workloads
    from perfbench.check import Checker
    from perfbench.hooks import METRICS

    os.makedirs(OUT_DIR, exist_ok=True)
    gen_dir = tempfile.mkdtemp(prefix="gen-", dir=OUT_DIR)
    try:
        work = workloads.build(name, seed, ROOT, gen_dir)
        checker = Checker(work.answers)
        start = time.monotonic()
        deadline = start + RUN_LIMIT_S
        spans_path = os.path.join(OUT_DIR, "spans-%s.tsv" % name)
        passes = []
        # Start another pass only if it should end within --seconds, so a
        # run lasts --seconds.  Traced passes go untraced, traced, traced,
        # untraced, ... so that both kinds see the same drift in speed.
        while len(passes) < (2 if trace else 1) or (
                time.monotonic() - start + _median(
                    [p.elapsed for p in passes]) < seconds
                and time.monotonic() < deadline):
            traced = trace and len(passes) % 4 in (1, 2)
            first_traced = traced and not any(p.traced for p in passes)
            passes.append(_run_pass(work, traced, deadline,
                                    spans_path if first_traced else None))
    finally:
        shutil.rmtree(gen_dir, ignore_errors=True)

    problems = []
    reference = {}
    failed = 0
    # untraced passes first, so the reference verdicts come from one
    for p in sorted(passes, key=lambda p: p.traced):
        failed += _check_pass(p, work, checker, reference, problems)
    attempted = work.obligations() * len(passes)

    plain = [p for p in passes if not p.traced]
    done = [p for p in plain if p.complete]
    metrics = {}
    if not trace:
        values = {
            "wall_s": [p.wall_s for p in plain],
            "verdict_max_s": [p.totals["verdict_max_s"] if p.complete
                              else p.elapsed for p in plain],
            "setup_s": [p.totals["setup_s"] for p in done],
            "peak_rss_mb": [p.totals["peak_rss_mb"] for p in done],
        }
        for metric, unit in END_TO_END:
            metrics[metric] = (_median(values[metric]), unit)
    else:
        traced = [p for p in passes if p.traced]
        layers = [p.totals["layers"] for p in traced if p.complete]
        for metric in METRICS:
            values = [lay[metric] for lay in layers]
            if metric.endswith("_s"):
                metrics[metric] = (_median(values), "s")
            else:
                metrics[metric] = (
                    statistics.median_low(values) if values else 0, "count")
        traced_wall = _median([p.wall_s for p in traced])
        metrics["trace.wall_s"] = (traced_wall, "s")
        metrics["trace.overhead_s"] = (
            traced_wall - _median([p.wall_s for p in plain]), "s")
    info = {"passes": len(passes), "untraced": len(plain),
            "traced": len(passes) - len(plain),
            "killed": sum(p.killed for p in passes), "problems": problems}
    correct = failed == 0 and not problems
    return correct, attempted, failed, metrics, info


def _print_section(name, seed, trace, result):
    correct, attempted, failed, metrics, info = result
    print("== %s (seed %d, %s): %d passes, %d untraced, %d traced, "
          "%d killed at the cap"
          % (name, seed, "traced" if trace else "untraced", info["passes"],
             info["untraced"], info["traced"], info["killed"]))
    for msg in info["problems"][:_MAX_PROBLEMS_SHOWN]:
        print("FAIL " + msg)
    if len(info["problems"]) > _MAX_PROBLEMS_SHOWN:
        print("FAIL ... %d more" % (len(info["problems"])
                                    - _MAX_PROBLEMS_SHOWN))
    for metric, (value, unit) in metrics.items():
        print("%-28s %14.6f %s" % (metric, value, unit))
    print("%-28s %14.6f share (%d of %d obligations)"
          % ("failed_share", failed / attempted if attempted else 0.0,
             failed, attempted))
    sys.stdout.flush()


def build_arg_parser():
    from perfbench.workloads import WORKLOADS

    p = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description="Time to verdict of the bitblast prover on whole "
                    "theorem files.")
    p.add_argument("--workload", required=True,
                   choices=list(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=1,
                   help="drives the generated theorems and the prover seed")
    p.add_argument("--seconds", type=float, default=40.0,
                   help="how long a run lasts")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0,
                   help="1: report per-layer metrics from traced passes")
    return p


def main(argv=None):
    sys.path.insert(0, ROOT)
    args = build_arg_parser().parse_args(argv)
    try:
        _load_package()
    except SetupError as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 2
    from perfbench.workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    print("# perfbench revision=%s python=%s nproc=%d seed=%d seconds=%g "
          "trace=%d" % (_revision(), sys.version.split()[0], _nproc(),
                        args.seed, args.seconds, args.trace))
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds,
                                  bool(args.trace))
        except (OSError, AssertionError) as e:
            print("perfbench: cannot build workload %s: %s" % (name, e),
                  file=sys.stderr)
            return 2
        _print_section(name, args.seed, bool(args.trace), result)
        ok, att, fail, mets, _ = result
        correct = correct and ok
        attempted += att
        failed += fail
        prefix = name + "." if len(names) > 1 else ""
        for metric, (value, unit) in mets.items():
            metrics[prefix + metric] = {"value": value, "unit": unit}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
