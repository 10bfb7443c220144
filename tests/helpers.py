"""Shared test machinery: seeded random formulas, bitmask truth
tables (one big integer holds a function's value on every environment),
and environment enumeration."""

import itertools
from functools import lru_cache

from bitblast.reader import read_values
from bitblast.lang import base_env, parse_defun, parse_term
from bitblast.values import list_elements

OPS = ("var", "not", "and", "or", "xor", "ite", "const")


def random_formula(rng, nvars, depth):
    """A random expression tree as nested tuples."""
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.9:
            return ("var", rng.randrange(nvars))
        return ("const", rng.random() < 0.5)
    op = rng.choice(("not", "and", "or", "xor", "ite"))
    if op == "not":
        return (op, random_formula(rng, nvars, depth - 1))
    if op == "ite":
        return (op, random_formula(rng, nvars, depth - 1),
                random_formula(rng, nvars, depth - 1),
                random_formula(rng, nvars, depth - 1))
    return (op, random_formula(rng, nvars, depth - 1),
            random_formula(rng, nvars, depth - 1))


def build_formula(store, e):
    """Instantiate a formula tree in any engine/store with var/not_/and_/
    or_/xor_/ite/const methods."""
    op = e[0]
    if op == "var":
        return store.var(e[1])
    if op == "const":
        return store.const(e[1])
    if op == "not":
        return store.not_(build_formula(store, e[1]))
    if op == "ite":
        return store.ite(build_formula(store, e[1]),
                         build_formula(store, e[2]),
                         build_formula(store, e[3]))
    return getattr(store, op + "_")(build_formula(store, e[1]),
                                    build_formula(store, e[2]))


def formula_tt(e, nvars):
    """Truth table of a formula tree as a 2^nvars-bit integer; bit k is
    the value under the environment where var j = bit j of k."""
    full = (1 << (1 << nvars)) - 1
    op = e[0]
    if op == "var":
        return var_mask(e[1], nvars)
    if op == "const":
        return full if e[1] else 0
    if op == "not":
        return full ^ formula_tt(e[1], nvars)
    if op == "and":
        return formula_tt(e[1], nvars) & formula_tt(e[2], nvars)
    if op == "or":
        return formula_tt(e[1], nvars) | formula_tt(e[2], nvars)
    if op == "xor":
        return formula_tt(e[1], nvars) ^ formula_tt(e[2], nvars)
    c = formula_tt(e[1], nvars)
    return (c & formula_tt(e[2], nvars)) | (~c & full & formula_tt(e[3], nvars))


@lru_cache(maxsize=None)
def var_mask(j, nvars):
    """Truth table of variable j over 2^nvars environments."""
    period = 1 << (j + 1)
    block = ((1 << (1 << j)) - 1) << (1 << j)
    out = 0
    for start in range(0, 1 << nvars, period):
        out |= block << start
    return out & ((1 << (1 << nvars)) - 1)


def bdd_tt(store, node, nvars):
    """Truth table of a BDD node as a bitmask."""
    full = (1 << (1 << nvars)) - 1
    memo = {0: 0, 1: full}

    def rec(n):
        r = memo.get(n)
        if r is None:
            m = var_mask(store._var[n], nvars)
            r = (rec(store._hi[n]) & m) | (rec(store._lo[n]) & ~m & full)
            memo[n] = r
        return r

    return rec(node)


def aig_tt(store, node, nvars):
    full = (1 << (1 << nvars)) - 1
    memo = {1: full}

    def rec(n):
        if n < 0:
            return full ^ rec(-n)
        r = memo.get(n)
        if r is None:
            desc = store._nodes[n]
            if desc[0] == "var":
                r = var_mask(desc[1], nvars)
            else:
                r = rec(desc[1]) & rec(desc[2])
            memo[n] = r
        return r

    return rec(node)


def all_envs(nvars):
    for bits in itertools.product([False, True], repeat=nvars):
        yield dict(enumerate(bits))


def env_of_index(k, nvars):
    return {j: bool((k >> j) & 1) for j in range(nvars)}


def extreme_witness(tt, nvars, want):
    """The witness both stores must give for a function with truth
    table tt over variables 0..nvars-1, read off the table: of the rows
    tt admits, the one nearest `want` ({index: preferred value}, over
    the function's support at least), compared index by index in
    increasing order; indices from nvars up keep their preferred value.
    None when tt is 0."""
    rows = [env_of_index(k, nvars) for k in range(1 << nvars) if tt >> k & 1]
    if not rows:
        return None
    best = min(rows, key=lambda row: [row[i] != b for i, b in want.items()
                                      if i < nvars])
    return {i: best[i] if i < nvars else b for i, b in want.items()}


def clauses_tt(clauses, nvars):
    """Truth table bitmask of a CNF over vars 1..nvars."""
    full = (1 << (1 << nvars)) - 1
    out = full
    for clause in clauses:
        acc = 0
        for lit in clause:
            m = var_mask(abs(lit) - 1, nvars)
            acc |= m if lit > 0 else (full ^ m)
        out &= acc
    return out


def random_cnf(rng, max_vars=12, max_clauses=40, max_width=4):
    nv = rng.randrange(1, max_vars + 1)
    nc = rng.randrange(1, max_clauses + 1)
    clauses = []
    for _ in range(nc):
        width = rng.randrange(1, max_width + 1)
        clause = [rng.choice((1, -1)) * rng.randrange(1, nv + 1)
                  for _ in range(width)]
        clauses.append(clause)
    return nv, clauses


def env_from_defs(src):
    """Definition environment from defun source text."""
    env = base_env()
    for form in read_values(src):
        items, _ = list_elements(form)
        name, formals, body = parse_defun(items[1:])
        env.define(name, formals, body)
    return env


def term(src):
    return parse_term(read_values(src)[0])


FAST_LOGCOUNT_32_SRC = """
(defun 32* (x y) (logand (* x y) (1- (expt 2 32))))
(defun fast-logcount-32 (v)
  (let* ((v (- v (logand (ash v -1) #x55555555)))
         (v (+ (logand v #x33333333) (logand (ash v -2) #x33333333))))
    (ash (32* (logand (+ v (ash v -4)) #xF0F0F0F) #x1010101) -24)))
"""


# -- counterpart oracle suite -------------------------------------------------

def counterpart_oracle_suite(make_engine):
    """Exhaustively compare every symbolic counterpart against the
    concrete primitives at 4-bit width: symbolic x symbolic, symbolic x
    concrete, boolean / cons / rational / escape operands.  Returns
    (cases checked, list of discrepancy descriptions)."""
    from fractions import Fraction

    from bitblast.concrete import apply_fn
    from bitblast.counterparts import SymbolicContext, apply_counterpart
    from bitblast.lang import base_env
    from bitblast.symobj import (
        Concrete, ConsObj, GApply, GBoolean, GNumber, sym_eval,
    )
    from bitblast.values import T, NIL, values_equal

    defs = base_env()
    checked = 0
    bad = []

    def fresh():
        eng = make_engine()
        ctx = SymbolicContext(eng)
        x = GNumber(tuple(eng.var(i) for i in range(4)))
        y = GNumber(tuple(eng.var(i) for i in range(4, 8)))
        return eng, ctx, x, y

    def check(name, args, nvars, extra_env=()):
        nonlocal checked
        eng, ctx, x, y = fresh()
        built = [a(eng, x, y) if callable(a) else a for a in args]
        result = apply_counterpart(ctx, name, list(built))
        for k in range(1 << nvars):
            env = env_of_index(k, nvars)
            env.update(extra_env)
            got = sym_eval(result, env, eng, defs=defs)
            concrete_args = [sym_eval(a, env, eng, defs=defs) for a in built]
            want = apply_fn(name, concrete_args, defs)
            checked += 1
            if not values_equal(got, want):
                bad.append((name, concrete_args, got, want))
                return

    X = lambda eng, x, y: x
    Y = lambda eng, x, y: y
    BOOL = lambda eng, x, y: GBoolean(eng.var(8))
    CONS = ConsObj(Concrete(1), Concrete(2))
    RAT = Concrete(Fraction(1, 2))
    ESC = lambda eng, x, y: GApply("lognot", (x,))

    binary = ["+", "-", "*", "<", "equal", "logand", "logior", "logxor",
              "cons", "floor", "mod", "always-equal"]
    for name in binary:
        check(name, [X, Y], 8)
        for c in range(-8, 8):
            check(name, [X, Concrete(c)], 4)
            check(name, [Concrete(c), X], 4)
        check(name, [BOOL, X], 9)
        check(name, [X, BOOL], 9)
        check(name, [CONS, X], 4)
        check(name, [X, Concrete(T)], 4)
        check(name, [X, Concrete(NIL)], 4)
        check(name, [RAT, X], 4)
        check(name, [ESC, X], 4)

    unary = ["-", "not", "consp", "integerp", "rationalp", "acl2-numberp",
             "booleanp", "car", "cdr", "lognot", "logcount"]
    for name in unary:
        check(name, [X], 4)
        check(name, [BOOL], 9)
        check(name, [CONS], 0)
        check(name, [RAT], 0)
        check(name, [ESC], 4)
        for c in range(-8, 8):
            check(name, [Concrete(c)], 0)

    for cnt in range(-6, 7):
        check("ash", [X, Concrete(cnt)], 4)
        check("logbitp", [Concrete(max(cnt, 0)), X], 4)
    check("logbitp", [Concrete(100), X], 4)
    # symbolic shift amounts and bit indices (3-bit, within the split bound)
    CNT = lambda eng, x, y: GNumber(tuple(eng.var(i) for i in (8, 9, 10)))
    check("ash", [X, CNT], 11)
    check("logbitp", [CNT, X], 11)
    check("ash", [BOOL, X], 9)

    for e in range(0, 4):
        check("expt", [X, Concrete(e)], 4)

    check("if-degenerate-free", [BOOL, X, Y], 9)
    check("if-degenerate-free", [X, X, Y], 8)
    check("if-degenerate-free", [Concrete(NIL), X, Y], 8)

    return checked, bad
