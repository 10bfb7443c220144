import pytest

from bitblast import lang
from bitblast.cli import run_file
from bitblast.errors import FileFormatError
from bitblast.lang import Var, base_env
from bitblast.prover import ParamTheoremSpec, TheoremSpec
from bitblast.symobj import Concrete, GBoolean, GNumber
from bitblast.toplevel import (
    DefunEvent,
    DirectiveEvent,
    TheoremEvent,
    parse_events,
    parse_file,
)


def test_defun_event_and_final_env():
    defs, theorems, directives = parse_file("(defun id (x) x)")
    assert "id" in defs
    assert theorems == [] and directives == []


def test_events_in_file_order():
    events = parse_events("""
    (defun f (x) x)
    (gl-aig-mode)
    (def-gl-thm t1 :hyp (unsigned-byte-p 2 x) :concl (equal (f x) x)
      :g-bindings `((x ,(g-int 0 1 3))))
    (allow-concrete-exec f)
    """)
    kinds = [type(e).__name__ for e in events]
    assert kinds == ["DefunEvent", "DirectiveEvent", "TheoremEvent",
                     "DirectiveEvent"]
    assert events[1].kind == "aig-mode"
    assert events[3].payload == frozenset({"f"})


def test_binding_forms():
    events = parse_events("""
    (def-gl-thm shapes
      :hyp (and (booleanp flag) (member mode '(exact fast))
                (signed-byte-p 5 a) (equal opcode 20))
      :concl (if flag (equal a a) (equal mode mode))
      :g-bindings '((flag (:g-boolean . 0))
                    (a    (:g-number (1 3 5 7 9)))
                    (mode (:g-ite (:g-boolean . 11) exact . fast))
                    (opcode #b0010100)))
    """)
    spec = events[0].spec
    assert isinstance(spec.g_bindings["flag"], GBoolean)
    assert spec.g_bindings["a"].bits == (1, 3, 5, 7, 9)
    assert isinstance(spec.g_bindings["opcode"], Concrete)
    assert spec.g_bindings["opcode"].value == 20


def test_quasiquoted_g_int_binding():
    events = parse_events("""
    (def-gl-thm qq :hyp (unsigned-byte-p 32 x) :concl (equal x x)
      :g-bindings `((x ,(g-int 0 1 33))))
    """)
    shape = events[0].spec.g_bindings["x"]
    assert isinstance(shape, GNumber) and len(shape.bits) == 33


def test_theorem_options():
    events = parse_events("""
    (def-gl-thm opts :hyp (unsigned-byte-p 2 x) :concl (equal x x)
      :g-bindings `((x ,(g-int 0 1 3)))
      :rule-classes nil
      :mode aig
      :seed 7
      :counterexamples 5
      :do-not-expand '(foo bar)
      :test-side-goals t)
    """)
    spec = events[0].spec
    assert spec.mode == "aig"
    assert spec.seed == 7
    assert spec.counterexample_count == 5
    assert spec.do_not_expand == frozenset({"foo", "bar"})
    assert spec.coverage_only is True


def test_param_theorem_form():
    events = parse_events("""
    (def-gl-param-thm p
      :hyp (unsigned-byte-p 4 x)
      :concl (equal x x)
      :param-bindings `((((b 0)) ((x ,(g-int 0 1 5))))
                        (((b 1)) ((x ,(g-int 4 -1 5)))))
      :param-hyp (equal b (ash x -3))
      :cov-bindings `((x ,(g-int 0 1 5))))
    """)
    spec = events[0].spec
    assert isinstance(spec, ParamTheoremSpec)
    assert len(spec.param_bindings) == 2
    assert spec.param_bindings[0][0] == {"b": 0}
    assert spec.param_bindings[1][1]["x"].bits == (4, 3, 2, 1, 0)


def test_rejections():
    with pytest.raises(FileFormatError):
        parse_events("(frobnicate 1 2)")  # unknown top-level form
    with pytest.raises(FileFormatError):
        parse_events("(defun f (x) x) (defun f (y) y)")  # duplicate
    with pytest.raises(FileFormatError):
        parse_events("(defun g (x x) x)")  # repeated formal
    with pytest.raises(FileFormatError):
        parse_events("(defun h (x) y)")  # free body variable
    with pytest.raises(FileFormatError):
        parse_events("(def-gl-thm t1 :concl (equal x x))")  # no bindings
    with pytest.raises(FileFormatError):  # unbound theorem variable
        parse_events("""
        (def-gl-thm t2 :hyp (equal y 1) :concl (equal x x)
          :g-bindings `((x ,(g-int 0 1 3))))
        """)
    with pytest.raises(FileFormatError):  # unknown keyword
        parse_events("""
        (def-gl-thm t3 :concl (equal 1 1) :g-bindings nil :frob 3)
        """)
    with pytest.raises(FileFormatError):  # case variable sets differ
        parse_events("""
        (def-gl-param-thm p2 :hyp (unsigned-byte-p 2 x) :concl (equal x x)
          :param-bindings `((((a 0)) ((x ,(g-int 0 1 3))))
                            (((b 0)) ((x ,(g-int 0 1 3)))))
          :param-hyp t
          :cov-bindings `((x ,(g-int 0 1 3))))
        """)


_PARAM_THM = """
(def-gl-param-thm p3 :hyp (unsigned-byte-p 2 x) :concl (equal x x)
  :param-bindings `((%s ((x ,(g-int 0 1 3))))
                    (((c 1)) ((x ,(g-int 0 1 3)))))
  :param-hyp t
  :cov-bindings `((x ,(g-int 0 1 3))))
"""


def test_param_bindings_case_rejects_a_duplicate_variable():
    src = """
    (def-gl-param-thm p4 :hyp (unsigned-byte-p 2 x) :concl (equal x x)
      :param-bindings `((((c 0)) ((x ,(g-int 0 1 3)) (x ,(g-int 4 1 3)))))
      :param-hyp t
      :cov-bindings `((x ,(g-int 0 1 3))))
    """
    with pytest.raises(FileFormatError, match="duplicate binding for x"):
        parse_events(src)


def test_param_bindings_case_rejects_a_duplicate_case_variable():
    assert len(parse_events(_PARAM_THM % "((c 0))")) == 1
    with pytest.raises(FileFormatError, match="duplicate binding for c"):
        parse_events(_PARAM_THM % "((c 0) (c 1))")


def test_g_and_cov_bindings_reject_a_duplicate_variable():
    with pytest.raises(FileFormatError, match="duplicate binding for x"):
        parse_events("(def-gl-thm t4 :concl (equal x x) :g-bindings "
                     "`((x ,(g-int 0 1 3)) (x ,(g-int 4 1 3))))")
    with pytest.raises(FileFormatError, match="duplicate binding for x"):
        parse_events(_PARAM_THM.replace(
            ":cov-bindings `((x", ":cov-bindings `((x ,(g-int 4 1 3)) (x")
            % "((c 0))")


def test_set_preferred_def_directive():
    events = parse_events("""
    (defun half-even-p (x) (integerp (* x 1/2)))
    (set-preferred-def half-even-p
      (and (integerp x) (not (logbitp 0 x))))
    """)
    directive = events[1]
    assert directive.kind == "preferred-def"
    assert directive.payload[0] == "half-even-p"


def test_parse_file_splits_event_kinds(corpus):
    text = (corpus / "evenp_preferred.lisp").read_text()
    defs, theorems, directives = parse_file(text)
    assert len(theorems) == 1 and isinstance(theorems[0], TheoremSpec)
    assert len(directives) == 1 and directives[0].kind == "preferred-def"


def test_parse_file_logcount_corpus(corpus):
    defs, theorems, directives = parse_file(
        (corpus / "fast_logcount_32.lisp").read_text())
    assert "32*" in defs and "fast-logcount-32" in defs
    assert len(theorems) == 1
    assert theorems[0].name == "fast-logcount-32-correct"
    assert directives == []


# -- the prelude ----------------------------------------------------------------

def test_base_env_copies_are_independent():
    first, second = base_env(), base_env()
    first.define("foo", ["x"], Var("x"))
    assert "foo" in first
    assert "foo" not in second and "foo" not in base_env()
    defs, _, _ = parse_file("(defun bar (x) x)")
    assert "bar" in defs and "bar" not in base_env()
    assert all("atom" in env for env in (first, second, defs))


@pytest.mark.parametrize("name", ["atom", "member", "unsigned-byte-p",
                                  "evenp"])
def test_user_file_cannot_redefine_prelude_names(name):
    before = base_env().lookup(name)
    with pytest.raises(FileFormatError):
        parse_events("(defun %s (x) x)" % name)
    assert base_env().lookup(name) == before


def test_prelude_is_parsed_once_per_process(monkeypatch, corpus):
    calls = []
    real = lang.read_values
    monkeypatch.setattr(lang, "read_values",
                        lambda text: calls.append(text) or real(text))
    lang._prelude.cache_clear()  # cold, as in a fresh process
    for _ in range(2):
        for mode in ("bdd", "aig"):
            report = run_file(str(corpus / "alu_mode.lisp"), mode=mode)
            assert report.exit_status == 0
    assert len(base_env().names()) == 18
    assert calls == [lang._PRELUDE_SRC]
