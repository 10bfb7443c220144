"""Term substitution: the one routine behind case-split hypotheses
(constants) and coverage's wrapper expansion (terms)."""

import pytest

from bitblast.lang import render_term, substitute, substitute_constants

from helpers import term


def _sub(src, mapping):
    return render_term(substitute(
        term(src), {k: term(v) for k, v in mapping.items()}))


def test_substitute_replaces_free_occurrences():
    assert _sub("(if (< x y) (f x) z)", {"x": "(g a)", "z": "'7"}) \
        == "(if (< (g a) y) (f (g a)) 7)"


def test_parallel_let_shadows_in_the_body_only():
    # every binding of `let` sees the outer x and y; the body sees the
    # bound ones
    assert _sub("(let ((x (+ x 1)) (y x)) (+ x y z))",
                {"x": "(f a)", "y": "b", "z": "c"}) \
        == "(let ((x (+ (f a) 1)) (y (f a))) (+ x y c))"


def test_sequential_let_shadows_from_the_next_binding_on():
    # in `let*`, y is the outer y until its own binding, then the bound one
    assert _sub("(let* ((x (+ x 1)) (a y) (y x) (b y)) (+ x y a b))",
                {"x": "(f a)", "y": "q"}) \
        == "(let* ((x (+ (f a) 1)) (a q) (y x) (b y)) (+ x y a b))"
    # nested: an inner binding shadows an outer substitution again
    assert _sub("(let* ((u x)) (let ((x u)) (+ x u)))", {"x": "k"}) \
        == "(let* ((u k)) (let ((x u)) (+ x u)))"


def test_substitute_constants_quotes_through_the_same_routine():
    t = term("(let* ((x (+ x 1)) (y x)) (if p (+ x y) y))")
    assert render_term(substitute_constants(t, {"x": 5, "y": 6, "p": 7})) \
        == "(let* ((x (+ 5 1)) (y x)) (if 7 (+ x y) y))"
    with pytest.raises(TypeError):
        substitute("not a term", {})
