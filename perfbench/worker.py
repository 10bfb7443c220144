"""One benchmark pass, in a fresh single-threaded process.

Started by run.py with one argument, a JSON object:
{"src": package source directory, "jobs": [[theorem file, mode], ...],
 "seed": prover seed, "trace": bool, "spans": file for the spans or null}.

It times the import of bitblast plus reading and parsing every file
(set-up), then runs each file once through `bitblast.cli.run_file`.  It
prints one JSON line per finished file, so that a pass killed at the
cap still reports what it decided, and a last line with the totals.
"""

import json
import os
import resource
import sys
import time


def _emit(doc):
    sys.stdout.write(json.dumps(doc) + "\n")
    sys.stdout.flush()


def _peak_rss_mb():
    # VmHWM belongs to this process image; ru_maxrss would also count the
    # parent's memory, copied at fork before the exec.
    try:
        with open("/proc/self/status", "r", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv):
    spec = json.loads(argv[1])
    start = time.perf_counter()
    sys.path.insert(0, spec["src"])
    from bitblast.cli import run_file
    from bitblast.toplevel import parse_events

    for path in dict.fromkeys(path for path, _ in spec["jobs"]):
        with open(path, "r", encoding="utf-8") as handle:
            parse_events(handle.read())
    setup_s = time.perf_counter() - start

    sys.setrecursionlimit(100_000)  # as the bitblast command sets it
    tracer = None
    if spec["trace"]:
        sys.path.insert(0, os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))))
        from perfbench.hooks import Tracer

        tracer = Tracer()
        tracer.install()
    wall_s = 0.0
    verdict_max_s = 0.0
    for path, mode in spec["jobs"]:
        t0 = time.perf_counter()
        report = run_file(path, mode=mode, seed=spec["seed"], keep_going=True)
        wall_s += time.perf_counter() - t0
        events = []
        for ev in report.events:
            if ev.kind == "theorem":
                verdict_max_s = max(verdict_max_s, ev.wall_time)
            events.append({"name": ev.name, "kind": ev.kind,
                           "result": ev.result, "wall_time": ev.wall_time})
        _emit({"path": path, "mode": mode, "events": events})
    layers = None
    if tracer is not None:
        tracer.uninstall()
        layers = tracer.metrics()
        if spec["spans"]:
            tracer.write_spans(spec["spans"])
    _emit({"done": True, "setup_s": setup_s, "wall_s": wall_s,
           "verdict_max_s": verdict_max_s,
           "peak_rss_mb": _peak_rss_mb(),
           "layers": layers})
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
