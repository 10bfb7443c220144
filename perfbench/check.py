"""Checks one pass's verdicts against the known answers.

Every reported counterexample is re-verified by concrete evaluation
(`eval_concrete`), independently of the BDD and AIG engines, and must
agree with the `verified` flag the prover gave it.
"""

import json

from bitblast.concrete import eval_concrete
from bitblast.errors import BlastError
from bitblast.lang import base_env
from bitblast.reader import read_one_value
from bitblast.toplevel import DefunEvent, TheoremEvent, parse_events
from bitblast.values import NIL


class Checker:
    """Known answers plus the terms needed to re-verify counterexamples."""

    def __init__(self, answers):
        self.answers = answers          # path -> {theorem: (status, case)}
        self._terms = {}                # path -> {theorem: (hyp, concl, defs)}
        self._verified = {}             # memo of re-verification outcomes
        for path in answers:
            with open(path, "r", encoding="utf-8") as handle:
                events = parse_events(handle.read())
            defs = base_env()
            terms = {}
            for ev in events:
                if isinstance(ev, DefunEvent):
                    defs.define(ev.name, ev.formals, ev.body)
                elif isinstance(ev, TheoremEvent):
                    terms[ev.spec.name] = (ev.spec.hyp, ev.spec.concl,
                                           defs.copy())
            self._terms[path] = terms

    def check_file(self, path, events):
        """Problems in one file's reported events: [(theorem, message)].

        Theorems the events do not decide are not reported here; the
        caller counts them as undecided.
        """
        expected = self.answers[path]
        problems = []
        for ev in events:
            result = ev["result"]
            if ev["kind"] == "directive":
                if result["status"] != "ok":
                    problems.append((ev["name"], "directive failed: %s"
                                     % result.get("message", "")))
                continue
            if ev["kind"] != "theorem":
                continue
            name = ev["name"]
            if name not in expected:
                problems.append((name, "theorem without a known answer"))
                continue
            got = (result["status"], result.get("case"))
            if got != expected[name]:
                problems.append((name, "verdict %s, expected %s"
                                 % (got, expected[name])))
                continue
            if result["status"] == "disproved":
                problems.extend((name, msg) for msg in
                                self._recheck(path, name, result))
        return problems

    def _recheck(self, path, name, result):
        cexs = result.get("counterexamples") or []
        if not any(cx["verified"] for cx in cexs):
            yield "disproved without a verified counterexample"
        for cx in cexs:
            key = (path, name, json.dumps(cx["values"], sort_keys=True))
            holds = self._verified.get(key)
            if holds is None:
                holds = self._falsifies(path, name, cx["values"])
                self._verified[key] = holds
            if holds != cx["verified"]:
                yield ("counterexample %s (%s) marked verified=%s but "
                       "concrete evaluation says %s"
                       % (json.dumps(cx["values"], sort_keys=True),
                          cx["policy"], cx["verified"], holds))

    def _falsifies(self, path, name, values):
        hyp, concl, defs = self._terms[path][name]
        env = {var: v["decimal"] if "decimal" in v
               else read_one_value(v["text"])
               for var, v in values.items()}
        try:
            return (eval_concrete(hyp, dict(env), defs) is not NIL
                    and eval_concrete(concl, dict(env), defs) is NIL)
        except BlastError:
            return False
