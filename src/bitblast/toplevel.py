"""Theorem-file format: `defun` definitions, `def-gl-thm` /
`def-gl-param-thm` forms, and the four directives
(`set-preferred-def`, `allow-concrete-exec`, `gl-bdd-mode`,
`gl-aig-mode`), processed in file order.

Bindings accept the quasiquote idiom ``((x ,(g-int 0 1 33)))`` as well
as plain quoted shape forms.
"""

from dataclasses import dataclass

from .errors import FileFormatError
from .lang import base_env, free_vars, parse_defun, parse_term
from .prover import ParamTheoremSpec, TheoremSpec
from .reader import read_values_with_pos
from .symobj import SymObj, g_int, parse_shape, print_form
from .values import (
    NIL,
    QUASIQUOTE,
    QUOTE,
    T,
    UNQUOTE,
    Cons,
    Symbol,
    is_integer,
    list_elements,
    print_value,
)


@dataclass
class DefunEvent:
    name: str
    formals: list
    body: object
    line: int


@dataclass
class DirectiveEvent:
    kind: str  # preferred-def | concrete-exec | bdd-mode | aig-mode
    payload: object
    line: int


@dataclass
class TheoremEvent:
    spec: object  # TheoremSpec | ParamTheoremSpec
    line: int


# -- binding resolution -------------------------------------------------------

_GINT = Symbol("g-int")


def _eval_binding_builder(v):
    """Evaluate an unquoted expression inside a bindings form."""
    if isinstance(v, Cons) and v.car is _GINT:
        args, tail = list_elements(v.cdr)
        if tail is not NIL or len(args) != 3 or not all(is_integer(a) for a in args):
            raise FileFormatError("g-int wants three integer arguments: %s"
                                  % print_value(v))
        return g_int(args[0], args[1], args[2])
    if isinstance(v, Cons) or (isinstance(v, Symbol) and v is not NIL
                               and v is not T):
        raise FileFormatError("cannot evaluate binding expression %s"
                              % print_value(v))
    return v


def _resolve_bindings_value(v, in_quasi=False):
    """Strip quote/quasiquote sugar and resolve unquoted builder calls,
    leaving a tree of values (with g-int shapes spliced in)."""
    if isinstance(v, Cons):
        if v.car is QUASIQUOTE and isinstance(v.cdr, Cons) and v.cdr.cdr is NIL:
            return _resolve_bindings_value(v.cdr.car, True)
        if v.car is QUOTE and isinstance(v.cdr, Cons) and v.cdr.cdr is NIL:
            return _resolve_bindings_value(v.cdr.car, in_quasi)
        if v.car is UNQUOTE and isinstance(v.cdr, Cons) and v.cdr.cdr is NIL:
            if not in_quasi:
                raise FileFormatError("comma outside backquote in bindings")
            return _eval_binding_builder(v.cdr.car)
        return Cons(_resolve_bindings_value(v.car, in_quasi),
                    _resolve_bindings_value(v.cdr, in_quasi))
    return v


def _binding_dict(v, parse_value=parse_shape):
    """A resolved list ((var x) ...) -> ordered dict var name ->
    parse_value(x), binding each variable once."""
    entries, tail = list_elements(v)
    if tail is not NIL:
        raise FileFormatError("malformed bindings: %s" % print_form(v))
    out = {}
    for entry in entries:
        pair, ptail = list_elements(entry)
        if ptail is not NIL or len(pair) != 2 or not isinstance(pair[0], Symbol):
            raise FileFormatError("binding entries look like (var value), not %s"
                                  % print_form(entry))
        name = pair[0].name
        if name in out:
            raise FileFormatError("duplicate binding for %s" % name)
        out[name] = parse_value(pair[1])
    return out


def parse_bindings(v):
    """((var shape) ...) -> ordered dict var name -> shape (a symbolic
    object with variable indices at its leaves)."""
    return _binding_dict(_resolve_bindings_value(v))


def _case_value(value):
    """A case variable's value, which must not hold a spliced shape."""
    stack = [value]
    while stack:
        v = stack.pop()
        if isinstance(v, Cons):
            stack += (v.car, v.cdr)
        elif isinstance(v, SymObj):
            raise FileFormatError("case variables take values, not shapes: %s"
                                  % print_form(value))
    return value


def parse_param_bindings(v):
    """(((case assignment) (bindings)) ...) -> [(var -> value, bindings)]."""
    entries, tail = list_elements(_resolve_bindings_value(v))
    if tail is not NIL or not entries:
        raise FileFormatError("malformed :param-bindings")
    out = []
    for entry in entries:
        parts, ptail = list_elements(entry)
        if ptail is not NIL or len(parts) != 2:
            raise FileFormatError(
                ":param-bindings entries look like ((assignment) (bindings))")
        assignment = _binding_dict(parts[0], _case_value)
        if out and set(assignment) != set(out[0][0]):
            raise FileFormatError(
                "every case must bind the same case variables")
        out.append((assignment, _binding_dict(parts[1])))
    return out


# -- keyword plumbing ---------------------------------------------------------

def _keyword_args(items):
    if len(items) % 2 != 0:
        raise FileFormatError("keyword arguments come in pairs")
    out = {}
    for i in range(0, len(items), 2):
        kw = items[i]
        if not isinstance(kw, Symbol) or not kw.name.startswith(":"):
            raise FileFormatError("expected a keyword, got %s"
                                  % print_value(kw))
        if kw.name in out:
            raise FileFormatError("duplicate keyword %s" % kw.name)
        out[kw.name] = items[i + 1]
    return out


def _parse_symbol_list(v, what):
    if isinstance(v, Cons) and v.car is QUOTE and isinstance(v.cdr, Cons):
        v = v.cdr.car
    items, tail = list_elements(v)
    if tail is not NIL or not all(isinstance(s, Symbol) for s in items):
        raise FileFormatError("%s wants a list of function names" % what)
    return frozenset(s.name for s in items)


def _common_options(kwargs):
    opts = {}
    if ":mode" in kwargs:
        mode = kwargs.pop(":mode")
        if not isinstance(mode, Symbol) or mode.name not in ("bdd", "aig"):
            raise FileFormatError(":mode is bdd or aig")
        opts["mode"] = mode.name
    if ":do-not-expand" in kwargs:
        opts["do_not_expand"] = _parse_symbol_list(
            kwargs.pop(":do-not-expand"), ":do-not-expand")
    if ":counterexamples" in kwargs:
        n = kwargs.pop(":counterexamples")
        if not is_integer(n) or n < 1:
            raise FileFormatError(":counterexamples wants a positive count")
        opts["counterexample_count"] = n
    if ":seed" in kwargs:
        n = kwargs.pop(":seed")
        if not is_integer(n):
            raise FileFormatError(":seed wants an integer")
        opts["seed"] = n
    if ":test-side-goals" in kwargs:
        opts["coverage_only"] = kwargs.pop(":test-side-goals") is not NIL
    kwargs.pop(":rule-classes", None)  # accepted and ignored
    return opts


def _parse_theorem(form, items, own):
    """The keyword fields of a theorem form: its name, `:hyp`, `:concl`,
    the common options, and each (keyword, field, parser) in `own`, all
    of which are required."""
    if not items or not isinstance(items[0], Symbol):
        raise FileFormatError("%s wants a name" % form)
    name = items[0].name
    kwargs = _keyword_args(items[1:])
    for required in (":concl",) + tuple(kw for kw, _, _ in own):
        if required not in kwargs:
            raise FileFormatError("%s %s needs %s" % (form, name, required))
    fields = {"name": name, "hyp": parse_term(kwargs.pop(":hyp", T)),
              "concl": parse_term(kwargs.pop(":concl"))}
    for kw, field, parse in own:
        fields[field] = parse(kwargs.pop(kw))
    fields.update(_common_options(kwargs))
    if kwargs:
        raise FileFormatError("unknown keywords %s in %s %s"
                              % (", ".join(sorted(kwargs)), form, name))
    return fields


def _require_bound(needed, bindings, what):
    missing = needed - set(bindings)
    if missing:
        raise FileFormatError("%s has no binding for %s"
                              % (what, ", ".join(sorted(missing))))


def _parse_def_gl_thm(items):
    spec = TheoremSpec(**_parse_theorem(
        "def-gl-thm", items,
        [(":g-bindings", "g_bindings", parse_bindings)]))
    _require_bound(free_vars(spec.hyp) | free_vars(spec.concl),
                   spec.g_bindings, "def-gl-thm %s" % spec.name)
    return spec


def _parse_def_gl_param_thm(items):
    spec = ParamTheoremSpec(**_parse_theorem(
        "def-gl-param-thm", items,
        [(":param-bindings", "param_bindings", parse_param_bindings),
         (":param-hyp", "param_hyp", parse_term),
         (":cov-bindings", "cov_bindings", parse_bindings)]))
    what = "def-gl-param-thm %s" % spec.name
    needed = free_vars(spec.hyp) | free_vars(spec.concl)
    for assignment, bindings in spec.param_bindings:
        _require_bound(needed, bindings,
                       "%s: case %s" % (what, sorted(assignment)))
    _require_bound(needed, spec.cov_bindings, what + ": :cov-bindings")
    stray = (free_vars(spec.param_hyp) - set(spec.param_bindings[0][0])
             - needed - set(spec.cov_bindings))
    if stray:
        raise FileFormatError("%s: :param-hyp mentions %s"
                              % (what, ", ".join(sorted(stray))))
    return spec


# -- events -------------------------------------------------------------------

def parse_events(text):
    """All top-level events in file order; validates definitions and
    theorem well-formedness as it goes.  A form's FileFormatError (a
    ShapeError among them) is raised again with the form's line."""
    events = []
    defs = base_env()
    for form, line, _col in read_values_with_pos(text):
        try:
            events.append(_parse_event(form, line, defs))
        except FileFormatError as e:
            raise FileFormatError("%d: %s" % (line, e)) from None
    return events


def _parse_event(form, line, defs):
    """The event of one top-level form; a `defun` also goes into `defs`,
    so a duplicate definition surfaces now."""
    if not isinstance(form, Cons) or not isinstance(form.car, Symbol):
        raise FileFormatError("unknown top-level form: %s" % print_value(form))
    head = form.car.name
    items, tail = list_elements(form.cdr)
    if tail is not NIL:
        raise FileFormatError("malformed %s form" % head)
    if head == "defun":
        name, formals, body = parse_defun(items)
        defs.define(name, formals, body)
        return DefunEvent(name, formals, body, line)
    if head == "def-gl-thm":
        return TheoremEvent(_parse_def_gl_thm(items), line)
    if head == "def-gl-param-thm":
        return TheoremEvent(_parse_def_gl_param_thm(items), line)
    if head == "set-preferred-def":
        if len(items) != 2 or not isinstance(items[0], Symbol):
            raise FileFormatError(
                "set-preferred-def wants a name and a replacement term")
        return DirectiveEvent(
            "preferred-def", (items[0].name, parse_term(items[1])), line)
    if head == "allow-concrete-exec":
        if not all(isinstance(s, Symbol) for s in items):
            raise FileFormatError("allow-concrete-exec wants function names")
        return DirectiveEvent("concrete-exec",
                              frozenset(s.name for s in items), line)
    if head == "gl-bdd-mode":
        return DirectiveEvent("bdd-mode", None, line)
    if head == "gl-aig-mode":
        return DirectiveEvent("aig-mode", None, line)
    raise FileFormatError("unknown top-level form %s" % head)


def parse_file(text):
    """(definitions, theorem specs, directives), in file order."""
    events = parse_events(text)
    defs = base_env()
    theorems = []
    directives = []
    for ev in events:
        if isinstance(ev, DefunEvent):
            defs.define(ev.name, ev.formals, ev.body)
        elif isinstance(ev, TheoremEvent):
            theorems.append(ev.spec)
        else:
            directives.append(ev)
    return defs, theorems, directives
