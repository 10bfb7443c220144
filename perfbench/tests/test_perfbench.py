"""Tests of the benchmark's own machinery: hook resolution, tracing that
leaves verdicts alone, the generated theorems, the verdict checker and
the pass cap."""

import copy
import os
import sys
import time

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, ROOT)

import bitblast.prover  # noqa: E402
import bitblast.sat  # noqa: E402
from bitblast.cli import run_file  # noqa: E402

from perfbench import hooks, run, workloads  # noqa: E402
from perfbench.check import Checker  # noqa: E402

CORPUS = os.path.join(ROOT, "tests", "corpus")


def _corpus(stem):
    return os.path.join(CORPUS, stem + ".lisp")


def _results(path, mode):
    report = run_file(path, mode=mode, seed=7, keep_going=True)
    return [(ev.name, ev.kind, ev.result) for ev in report.events]


def test_every_hooked_name_resolves():
    originals = hooks.check_sites()
    assert set(originals) == set(hooks.FUNCTION_SITES)
    assert originals["sat.solve"] is bitblast.sat.solve_cnf


def test_missing_hooked_name_fails_with_its_name(monkeypatch):
    monkeypatch.delattr(bitblast.prover, "solve_cnf")
    with pytest.raises(hooks.HookError, match=r"bitblast\.prover\.solve_cnf"):
        hooks.check_sites()


def test_rebound_hooked_name_fails_with_its_name(monkeypatch):
    monkeypatch.setattr(bitblast.prover, "eval_concrete", lambda *a: None)
    with pytest.raises(hooks.HookError,
                       match=r"bitblast\.prover\.eval_concrete"):
        hooks.check_sites()


def test_missing_method_fails_with_its_name(monkeypatch):
    from bitblast.aig import AigStore

    monkeypatch.delattr(AigStore, "substitute")
    with pytest.raises(hooks.HookError,
                       match=r"bitblast\.aig\.AigStore\.substitute"):
        hooks.check_sites()


@pytest.mark.parametrize("stem,mode", [
    ("fast_logcount_32_buggy", "bdd"),
    ("bit_identities", "aig"),
    ("evenp_preferred", "aig"),
])
def test_tracing_keeps_verdicts(stem, mode):
    plain = _results(_corpus(stem), mode)
    with hooks.Tracer() as tracer:
        traced = _results(_corpus(stem), mode)
    assert traced == plain
    layers = tracer.metrics()
    assert set(layers) == set(hooks.METRICS)
    assert layers["prover.proofs"] >= 1
    assert layers["engine.ops"] > 0
    assert layers["interp.steps"] > 0
    assert layers["toplevel.parse_s"] > 0
    assert all(parent is None or parent < sid
               for sid, _, _, _, parent, _ in tracer.spans)
    if mode == "bdd":
        assert layers["bdd.nodes"] > 0 and layers["sat.calls"] == 0
    else:
        assert layers["aig.nodes"] > 0 and layers["bdd.nodes"] == 0
        assert layers["sat.calls"] == (layers["sat.result.sat"]
                                       + layers["sat.result.unsat"])


def test_uninstall_restores_every_binding():
    before = hooks.check_sites()
    from bitblast.interp import Interp

    run_method = Interp.run
    with hooks.Tracer():
        assert bitblast.prover.solve_cnf is not before["sat.solve"]
    assert hooks.check_sites() == before
    assert Interp.run is run_method


def test_generated_theorems_are_seeded_and_answered():
    first = workloads.word_theorems(3)
    assert first == workloads.word_theorems(3)
    assert first != workloads.word_theorems(4)
    statuses = [status for _, _, status in first]
    assert statuses.count("proved") == statuses.count("disproved") \
        == len(workloads._TEMPLATES)


def test_generated_theorems_get_their_known_answers(tmp_path):
    written = workloads.write_word_theorems(5, str(tmp_path))
    checker = Checker(dict(written))
    for path, _ in written:
        for mode in ("bdd", "aig"):
            report = run_file(path, mode=mode, seed=5, keep_going=True)
            events = [{"name": ev.name, "kind": ev.kind, "result": ev.result}
                      for ev in report.events]
            assert checker.check_file(path, events) == []


def test_checker_reports_wrong_verdicts_and_counterexamples():
    path = _corpus("fast_logcount_32_buggy")
    checker = Checker({path: workloads.CORPUS_ANSWERS[
        "fast_logcount_32_buggy"]})
    report = run_file(path, mode="bdd", seed=1, keep_going=True)
    events = [{"name": ev.name, "kind": ev.kind, "result": ev.result}
              for ev in report.events]
    assert checker.check_file(path, events) == []

    forged = copy.deepcopy(events)
    cx = forged[-1]["result"]["counterexamples"][0]
    cx["values"]["x"] = {"text": "1", "decimal": 1, "hex": "#x1"}
    problems = checker.check_file(path, forged)
    assert len(problems) == 1 and "verified=True" in problems[0][1]

    wrong = copy.deepcopy(events)
    wrong[-1]["result"] = {"status": "proved"}
    assert "expected" in checker.check_file(path, wrong)[0][1]


def test_pass_past_its_cap_is_killed_and_counted_failed():
    # the 64-bit aig proof takes minutes, far past the one-second cap
    path = _corpus("fast_logcount_64")
    work = workloads.Workload(
        name="slow", seed=1, jobs=[(path, "aig")],
        answers={path: workloads.CORPUS_ANSWERS["fast_logcount_64"]})
    started = time.monotonic()
    p = run._run_pass(work, False, deadline=time.monotonic() + 0.5)
    assert p.killed and not p.complete
    assert time.monotonic() - started < 10
    problems = []
    failed = run._check_pass(p, work, Checker(work.answers), {}, problems)
    assert failed == work.obligations()
    assert problems
