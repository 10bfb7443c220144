import io
import json
import re

import pytest

from bitblast.aig import SWEEP_STATS
from bitblast.cli import main, render_report_json, render_report_text, run_file


def run_cli(args):
    out, err = io.StringIO(), io.StringIO()
    rc = main(args, out=out, err=err)
    return rc, out.getvalue(), err.getvalue()


def test_logcount_file_proves(corpus):
    rc, out, _ = run_cli([str(corpus / "fast_logcount_32.lisp")])
    assert rc == 0
    assert "PROVED" in out and "fast-logcount-32-correct" in out


def test_buggy_file_disproves_with_three_counterexamples(corpus):
    rc, out, _ = run_cli([str(corpus / "fast_logcount_32_buggy.lisp"),
                          "--seed", "12"])
    assert rc == 1
    assert "DISPROVED" in out
    assert out.count("[zeros]") == 1 and out.count("[ones]") == 1
    assert out.count("[random]") >= 1
    assert "#x80000000" in out and "#xffffffff" in out
    assert "UNVERIFIED" not in out


def test_coverage_failure_exit_2(corpus):
    rc, out, _ = run_cli([str(corpus / "fast_logcount_32_cov32.lisp")])
    assert rc == 2
    assert "COVERAGE FAILED" in out
    assert "2147483648" in out and "#x80000000" in out


def test_indeterminate_exit_2(corpus):
    rc, out, _ = run_cli([str(corpus / "integer_half.lisp")])
    assert rc == 2
    assert "INDETERMINATE" in out and "binary-*" in out


def test_empty_file(tmp_path):
    f = tmp_path / "empty.lisp"
    f.write_text("")
    rc, out, _ = run_cli([str(f)])
    assert rc == 0
    assert "exit status 0" in out


def test_parse_error_exit_3(tmp_path):
    f = tmp_path / "bad.lisp"
    f.write_text("(defun broken (x)")
    rc, _, err = run_cli([str(f)])
    assert rc == 3
    assert "parse error" in err
    f.write_text("(unknown-top-form 1)")
    rc, _, err = run_cli([str(f)])
    assert rc == 3
    rc, _, err = run_cli(["/nonexistent/file.lisp"])
    assert rc == 3
    rc, _, err = run_cli([])
    assert rc == 3


@pytest.mark.parametrize("count", ["0", "-2"])
def test_counterexample_count_below_one_is_a_usage_error(corpus, count):
    # a disproof with no counterexample to show would read INDETERMINATE
    path = str(corpus / "fast_logcount_32_buggy.lisp")
    rc, out, err = run_cli([path, "--counterexamples", count])
    assert rc == 3 and out == ""
    assert "--counterexamples wants a positive count" in err
    with pytest.raises(ValueError, match="counterexample count"):
        run_file(path, counterexamples=int(count))
    rc, out, _ = run_cli([path, "--counterexamples", "1"])
    assert rc == 1 and "DISPROVED" in out


def test_deep_nesting_is_a_parse_error(tmp_path):
    f = tmp_path / "deep.lisp"
    f.write_text("(" * 60_000)
    try:
        rc, out, err = run_cli([str(f)])
    except RecursionError:  # its traceback is too deep to render quickly
        rc, out, err = "RecursionError", "", ""
    assert rc == 3 and out == ""
    assert err.startswith("parse error:") and "Traceback" not in err


def _bindings_file(tmp_path, bindings):
    f = tmp_path / "b.lisp"
    f.write_text("(def-gl-thm b :hyp t :concl (equal x x)\n"
                 "  :g-bindings `%s)\n" % bindings)
    return str(f)


@pytest.mark.parametrize("bindings, message", [
    # a spliced shape prints in the syntax it parses from
    ("((x (:g-number ,(g-int 0 1 2))))",
     "malformed index list: (:g-number (:g-number (0 1)))"),
    ("((x (:g-boolean . ,(g-int 0 1 2))))",
     "boolean shape wants one index: (:g-boolean . (:g-number (0 1)))"),
    ("((4 ,(g-int 0 1 3)))",
     "binding entries look like (var value), not (4 (:g-number (0 1 2)))"),
    ("((x (:g-number (1/2))))", "shape indices must be naturals: 1/2"),
    ("((x ,(g-int 0 1 #x55555555)))", "wider than 65536 bits"),
])
def test_bad_binding_is_a_parse_error(tmp_path, bindings, message):
    rc, out, err = run_cli([_bindings_file(tmp_path, bindings)])
    assert rc == 3 and out == ""
    assert err.startswith("parse error:") and message in err


@pytest.mark.parametrize("bindings, message", [
    ("((x (:g-number ,(g-int 0 1 2))))", "malformed index list: "),
    ("((x (:g-number (0 0))))", "duplicate index in number shape"),
    ("((x ,(g-int 0 0 5)))", "index step must be nonzero"),
])
def test_shape_error_names_its_line(tmp_path, bindings, message):
    rc, out, err = run_cli([_bindings_file(tmp_path, bindings)])
    assert rc == 3 and out == ""
    assert err.startswith("parse error: 1: " + message)


def test_shape_as_a_case_value_is_a_parse_error(tmp_path):
    f = tmp_path / "p.lisp"
    f.write_text("(def-gl-param-thm p :hyp t :concl (equal x x)\n"
                 "  :param-bindings\n"
                 "  `((((c ,(g-int 0 1 2))) ((x ,(g-int 2 1 3)))))\n"
                 "  :param-hyp t :cov-bindings `((x ,(g-int 2 1 3))))\n")
    rc, out, err = run_cli([str(f)])
    assert rc == 3 and out == ""
    assert "case variables take values, not shapes: (:g-number (0 1))" in err


@pytest.mark.parametrize("text, message", [
    ("(defun f (x) x)\n"
     "(def-gl-thm t1 :hyp (if x) :concl t :g-bindings ((x (:g-boolean 0))))\n",
     "2: if wants three arguments: (if x)"),
    ("(defun f (x) x)\n\n(defun g (x) (if x))\n",
     "3: if wants three arguments: (if x)"),
    ("\n(def-gl-thm t1 :concl (let ((a x) (a x)) a)\n"
     "  :g-bindings ((x (:g-boolean 0))))\n",
     "2: duplicate let binding: (let ((a x) (a x)) a)"),
    ("(defun f (x) x)\n(set-preferred-def f (if x))\n",
     "2: if wants three arguments: (if x)"),
])
def test_bad_term_names_its_line(tmp_path, text, message):
    # a malformed term deep in a form reports the form's line
    f = tmp_path / "t.lisp"
    f.write_text(text)
    rc, out, err = run_cli([str(f)])
    assert rc == 3 and out == ""
    assert err == "parse error: %s\n" % message


@pytest.mark.parametrize("mode", ["bdd", "aig"])
def test_binding_past_the_node_budget_is_a_resource_limit(tmp_path, mode):
    path = _bindings_file(tmp_path, "((x ,(g-int 0 1 2000)))")
    rc, out, _ = run_cli([path, "--mode", mode, "--node-budget", "1000"])
    assert rc == 2
    assert "RESOURCE LIMIT" in out and "nodes:bindings" in out


def test_keep_going(tmp_path, corpus):
    src = (corpus / "integer_half.lisp").read_text()
    src += "\n(def-gl-thm trailing :hyp (unsigned-byte-p 2 y)" \
           " :concl (equal y y) :g-bindings `((y ,(g-int 0 1 3))))\n"
    f = tmp_path / "two.lisp"
    f.write_text(src)
    rc, out, _ = run_cli([str(f)])
    assert rc == 2
    assert "trailing" not in out  # stopped at first failure
    rc, out, _ = run_cli([str(f), "--keep-going"])
    assert rc == 2
    assert "trailing" in out and "PROVED" in out


def test_json_report_round_trips(corpus):
    rc, out, _ = run_cli([str(corpus / "fast_logcount_32_buggy.lisp"),
                          "--json"])
    assert rc == 1
    doc = json.loads(out)
    assert doc["exit_status"] == 1
    thm = [e for e in doc["events"] if e["kind"] == "theorem"][0]
    assert thm["result"]["status"] == "disproved"
    cxs = thm["result"]["counterexamples"]
    assert cxs[0]["policy"] == "zeros"
    assert cxs[0]["values"]["x"]["decimal"] == 0x80000000
    assert cxs[0]["values"]["x"]["hex"] == "#x80000000"
    assert all(cx["verified"] for cx in cxs)
    assert thm["wall_time"] >= 0 and thm["steps"] > 0 and thm["nodes"] > 0


def test_directive_reports_its_time(corpus):
    # set-preferred-def vets its replacement on sampled inputs; that
    # time belongs to the directive, not to the theorem after it
    report = run_file(str(corpus / "evenp_preferred.lisp"))
    directive, theorem = report.events
    assert directive.kind == "directive"
    assert directive.name == "set-preferred-def evenp"
    assert directive.wall_time > 0 and theorem.wall_time > 0
    doc = json.loads(render_report_json(report))
    assert doc["events"][0]["wall_time"] == directive.wall_time


def test_mode_flag_and_directives(tmp_path):
    f = tmp_path / "mode.lisp"
    f.write_text("""
(gl-aig-mode)
(def-gl-thm tiny :hyp (unsigned-byte-p 3 x)
  :concl (equal (logand x x) x)
  :g-bindings `((x ,(g-int 0 1 4))))
(gl-bdd-mode)
(def-gl-thm tiny2 :hyp (unsigned-byte-p 3 x)
  :concl (equal (logior x 0) x)
  :g-bindings `((x ,(g-int 0 1 4))))
""")
    rc, out, _ = run_cli([str(f)])
    assert rc == 0
    assert out.count("PROVED") == 2
    rc, out, _ = run_cli([str(f), "--mode", "aig"])
    assert rc == 0


def test_coverage_only_flag(corpus):
    rc, out, _ = run_cli([str(corpus / "fast_logcount_32.lisp"),
                          "--coverage-only"])
    assert rc == 0
    assert "COVERAGE OK" in out and "PROVED" not in out
    rc, out, _ = run_cli([str(corpus / "fast_logcount_32_cov32.lisp"),
                          "--coverage-only"])
    assert rc == 2
    assert "COVERAGE FAILED" in out


def test_trace_flag(tmp_path, capsys):
    f = tmp_path / "t.lisp"
    f.write_text("""
(def-gl-thm traced :hyp (unsigned-byte-p 3 x)
  :concl (equal (logcount x) (logcount x))
  :g-bindings `((x ,(g-int 0 1 4))))
""")
    rc, out, _ = run_cli([str(f), "--trace"])
    assert rc == 0
    captured = capsys.readouterr()
    assert "sym>" in captured.err and "logcount" in captured.err


def test_max_steps_flag(corpus):
    rc, out, _ = run_cli([str(corpus / "fast_logcount_32.lisp"),
                          "--max-steps", "10"])
    assert rc == 2
    assert "RESOURCE LIMIT" in out


def test_bad_preferred_def_is_an_event_error(tmp_path):
    f = tmp_path / "bad_pref.lisp"
    f.write_text("""
(defun double (x) (* 2 x))
(set-preferred-def double (+ x 1))
""")
    rc, out, _ = run_cli([str(f)])
    assert rc == 2
    assert "ERROR" in out


@pytest.mark.parametrize("mode", ["bdd", "aig"])
@pytest.mark.parametrize("concl, fn", [
    ("(equal (ash 1 (expt 2 70)) 0)", "ash"),
    ("(< 0 (expt 2 (expt 2 40)))", "expt"),
])
def test_concrete_result_past_max_width_is_an_error(tmp_path, concl, fn,
                                                     mode):
    # refused before Python builds the number, not after running out of
    # memory or raising OverflowError
    f = tmp_path / "wide.lisp"
    f.write_text("(def-gl-thm wide :hyp t :concl %s :g-bindings nil)\n"
                 % concl)
    rc, out, _ = run_cli([str(f), "--mode", mode])
    assert rc == 2
    assert "ERROR" in out
    assert "%s result wider than 65536 bits" % fn in out


def test_solve_dimacs_flag(tmp_path):
    f = tmp_path / "sat.cnf"
    f.write_text("p cnf 2 2\n1 2 0\n-1 0\n")
    rc, out, _ = run_cli(["--solve-dimacs", str(f)])
    assert rc == 0
    assert "s SATISFIABLE" in out and "v " in out
    f.write_text("p cnf 1 2\n1 0\n-1 0\n")
    rc, out, _ = run_cli(["--solve-dimacs", str(f)])
    assert rc == 0
    assert "s UNSATISFIABLE" in out


def test_solve_dimacs_ignores_the_seed(tmp_path):
    # the solver has no seed, so --seed changes nothing
    f = tmp_path / "sat.cnf"
    f.write_text("p cnf 3 3\n1 2 3 0\n-1 -2 0\n-3 2 0\n")
    outs = {run_cli(["--solve-dimacs", str(f)] + seed)[1]
            for seed in ([], ["--seed", "9"], ["--seed", "123"])}
    assert outs == {"s SATISFIABLE\nv -1 2 3 0\n"}


@pytest.mark.parametrize("text,message", [
    ("p cnf 2 1\n1 foo 0\n", "parse error: line 2: .*'foo'"),
    ("p cnf\n1 0\n", "parse error: line 1: problem line wants"),
    ("p cnf 1 1\n5 0\n", "parse error: line 2: literal 5 names no "
                           "variable in 1..1"),
], ids=["bad-token", "short-problem-line", "literal-past-count"])
def test_solve_dimacs_malformed_input_is_a_parse_error(tmp_path, text,
                                                       message):
    f = tmp_path / "bad.cnf"
    f.write_text(text)
    rc, out, err = run_cli(["--solve-dimacs", str(f)])
    assert rc == 3 and out == ""
    assert re.match(message, err) and "Traceback" not in err


def test_solve_dimacs_missing_file_is_an_error(tmp_path):
    rc, out, err = run_cli(["--solve-dimacs", str(tmp_path / "none.cnf")])
    assert rc == 3 and out == ""
    assert err.startswith("error: ") and "none.cnf" in err


def test_run_file_api(corpus):
    report = run_file(str(corpus / "alu_mode.lisp"))
    assert report.exit_status == 0
    kinds = [e.kind for e in report.events]
    assert kinds == ["defun", "theorem", "theorem"]
    assert render_report_text(report)
    json.loads(render_report_json(report))


def test_json_stats_carry_sat_counters(corpus):
    path = str(corpus / "fast_logcount_16.lisp")
    rc, out, _ = run_cli([path, "--json", "--mode", "aig"])
    assert rc == 0
    thm = [e for e in json.loads(out)["events"] if e["kind"] == "theorem"][0]
    stats = thm["stats"]
    assert thm["result"]["status"] == "proved"
    assert stats["steps"] == thm["steps"] and stats["nodes"] == thm["nodes"]
    assert stats["sat_conflicts"] > 0 and stats["sweep_merges"] > 0
    assert stats["sat_calls"] > 0
    assert stats["sweep_candidates"] == (stats["sweep_merges"]
                                         + stats["sweep_refuted"])
    rc, out, _ = run_cli([path, "--json", "--mode", "bdd"])
    thm = [e for e in json.loads(out)["events"] if e["kind"] == "theorem"][0]
    assert all(thm["stats"][k] == 0 for k in SWEEP_STATS)


def test_stats_count_forced_constant_solves(corpus):
    # both hypotheses pass the vacuity check by simulation and both
    # conclusions are decided without a solve, so every counted call is
    # the forced-constant analysis, run on the proof's solver
    report = run_file(str(corpus / "alu_mode.lisp"), mode="aig")
    thms = [e for e in report.events if e.kind == "theorem"]
    assert [t.result["status"] for t in thms] == ["proved", "proved"]
    assert all(t.stats["sat_calls"] > 0 for t in thms)
    assert all(t.stats["sweep_candidates"] == 0 for t in thms)


def test_json_stats_count_counterexample_solves(corpus):
    # simulation alone disproves the buggy popcount; each counterexample
    # policy then makes one solve on the proof's solver
    rc, out, _ = run_cli([str(corpus / "fast_logcount_32_buggy.lisp"),
                          "--json", "--mode", "aig"])
    assert rc == 1
    thm = [e for e in json.loads(out)["events"] if e["kind"] == "theorem"][0]
    policies = [cx["policy"] for cx in thm["result"]["counterexamples"]]
    assert policies == ["zeros", "ones", "random"]
    assert thm["stats"]["sat_calls"] >= 3


@pytest.mark.parametrize("name, max_conflicts", [
    ("fast_logcount_16.lisp", 1000),
    ("fast_logcount_32.lisp", 5000),
])
def test_aig_popcount_conflicts_stay_low(corpus, name, max_conflicts):
    # logcount's adder tree shares partial sums with the SWAR circuit, so
    # the sweep merges them; a one-bit-at-a-time chain takes about ten
    # times the conflicts (1 367 at 16 bits, 36 453 at 32 bits)
    report = run_file(str(corpus / name), mode="aig")
    (thm,) = [e for e in report.events if e.kind == "theorem"]
    assert thm.result["status"] == "proved"
    assert thm.stats["sat_conflicts"] <= max_conflicts
