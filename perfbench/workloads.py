"""The benchmark's workloads, their known answers, and the seeded
generator for the small word theorems of `small-mixed`.

A workload is a list of jobs, each one theorem file run once through
`bitblast.cli.run_file` in one engine mode.  Every theorem the jobs
contain has a known answer: its status, plus the failing case label for
case-split theorems (None when there is none).
"""

import os
import random
from dataclasses import dataclass, field

CORPUS_DIR = os.path.join("tests", "corpus")

# Known answers for the corpus files, the same in both modes:
# file stem -> {theorem name: (status, failing case label)}.
CORPUS_ANSWERS = {
    "fast_logcount_16": {"fast-logcount-16-correct": ("proved", None)},
    "fast_logcount_32": {"fast-logcount-32-correct": ("proved", None)},
    "fast_logcount_32_buggy": {
        "fast-logcount-32-buggy-correct": ("disproved", None)},
    "fast_logcount_32_cov32": {
        "fast-logcount-32-under-covered": ("coverage-failed", None)},
    "fast_logcount_64": {"fast-logcount-64-correct": ("proved", None)},
    "fast_logcount_param": {"fast-logcount-32-correct-alt": ("proved", None)},
    "alu_mode": {"alu-slice-exact-commutes": ("proved", None),
                 "alu-slice-opcode-constant": ("proved", None)},
    "always_equal": {
        "always-equal-on-equal-words": ("proved", None),
        "always-equal-catches-difference": ("indeterminate", None)},
    "bit_identities": {"xor-as-masked-or": ("proved", None),
                       "de-morgan": ("proved", None),
                       "shift-doubles": ("proved", None),
                       "sum-via-xor-and-carry": ("proved", None),
                       "masked-count-bound": ("proved", None)},
    "evenp_no_preferred": {
        "evenp-is-logbitp-unaided": ("indeterminate", None)},
    "evenp_preferred": {"evenp-is-logbitp": ("proved", None)},
    "integer_half": {"integer-half": ("indeterminate", None)},
    "list_filter": {"keep-positive-sum-bound": ("proved", None)},
}

# Almost all time in BDD apply, reached from the adders and multiplier;
# covers proved, disproved, coverage-failed and a 5-case split.
POPCOUNT_BDD = ["fast_logcount_32", "fast_logcount_32_buggy",
                "fast_logcount_32_cov32", "fast_logcount_64",
                "fast_logcount_param"]
# No BDD; one UNSAT proof and one SAT disproof.  Wider aig proofs take
# minutes each and wait for a faster solver.
POPCOUNT_AIG = ["fast_logcount_16", "fast_logcount_32_buggy"]
# Many short obligations, so per-proof fixed cost shows.
SMALL_CORPUS = ["alu_mode", "always_equal", "bit_identities",
                "evenp_no_preferred", "evenp_preferred", "integer_half",
                "list_filter"]

WORKLOADS = ("popcount-bdd", "popcount-aig", "small-mixed")


@dataclass
class Workload:
    name: str
    seed: int
    jobs: list = field(default_factory=list)     # [(path, mode)]
    answers: dict = field(default_factory=dict)  # path -> {thm: answer}

    def obligations(self):
        """Theorem obligations one pass attempts."""
        return sum(len(self.answers[path]) for path, _ in self.jobs)


def build(name, seed, root, gen_dir):
    """The workload `name` for `seed`; generated files go to gen_dir."""
    work = Workload(name=name, seed=seed)

    def corpus(stems, modes):
        for stem in stems:
            path = os.path.join(root, CORPUS_DIR, stem + ".lisp")
            if not os.path.isfile(path):
                raise FileNotFoundError("corpus file missing: %s" % path)
            work.answers[path] = CORPUS_ANSWERS[stem]
            work.jobs.extend((path, mode) for mode in modes)

    if name == "popcount-bdd":
        corpus(POPCOUNT_BDD, ["bdd"])
    elif name == "popcount-aig":
        corpus(POPCOUNT_AIG, ["aig"])
    elif name == "small-mixed":
        corpus(SMALL_CORPUS, ["bdd", "aig"])
        for path, answer in write_word_theorems(seed, gen_dir):
            work.answers[path] = answer
            work.jobs.extend((path, mode) for mode in ("bdd", "aig"))
    else:
        raise ValueError("unknown workload %r (choose from %s)"
                         % (name, ", ".join(WORKLOADS)))
    return work


# -- generated word theorems --------------------------------------------------
#
# Each template is an identity lhs = rhs over unsigned words x and y that
# holds for every input.  Terms are nested tuples (operator, args...);
# the placeholders K, M, S and NS (which is -S) take seeded constants.
# One pass proves every template once as drawn and once with a single
# point mutation of its right-hand side, so the amount of work hardly
# depends on the seed.

_TEMPLATES = [
    ("xor-masked-or", ("logxor", "x", "y"),
     ("logior", ("logand", "x", ("lognot", "y")),
      ("logand", ("lognot", "x"), "y"))),
    ("sum-carry", ("+", "x", "y"),
     ("+", ("logxor", "x", "y"), ("*", 2, ("logand", "x", "y")))),
    ("de-morgan", ("lognot", ("logior", "x", "y")),
     ("logand", ("lognot", "x"), ("lognot", "y"))),
    ("mask-distributes", ("logand", ("logxor", "x", "K"), "M"),
     ("logxor", ("logand", "x", "M"), ("logand", "K", "M"))),
    ("sub-complement", ("-", "x", "y"),
     ("+", ("+", "x", ("lognot", "y")), 1)),
    ("shift-inverts-scale", ("ash", ("*", "x", ("expt", 2, "S")), "NS"),
     "x"),
    ("parity-of-sum", ("logand", ("+", "x", "y"), 1),
     ("logxor", ("logand", "x", 1), ("logand", "y", 1))),
    ("absorption", ("logior", "x", ("logand", "x", "y")),
     ("logand", "x", ("logior", "x", "y"))),
    ("count-split", ("logcount", "x"),
     ("+", ("logcount", ("logand", "x", "M")),
      ("logcount", ("logand", "x", ("lognot", "M"))))),
    ("or-then-clear", ("logand", ("logior", "x", "K"), ("lognot", "K")),
     ("logand", "x", ("lognot", "K"))),
]

# operators a point mutation may swap for one another
_SWAPS = {"logand": ("logior", "logxor"), "logior": ("logand", "logxor"),
          "logxor": ("logand", "logior"), "+": ("-",), "-": ("+",)}

# (width of x, width of y): 12 shape bits each, sign bits included
_WIDTHS = [(4, 6), (5, 5), (6, 4)]

_MAX_MUTATION_DRAWS = 100


def _render(term):
    if isinstance(term, tuple):
        return "(" + " ".join(_render(t) for t in term) + ")"
    return str(term)


def _fill(term, consts):
    if isinstance(term, tuple):
        return tuple(_fill(t, consts) for t in term)
    if isinstance(term, str) and term in consts:
        return consts[term]
    return term


def _mutation_points(term, path=()):
    """Paths to every subterm a point mutation may change."""
    if isinstance(term, tuple):
        if term[0] in _SWAPS or term[0] == "lognot":
            yield path
        for i, sub in enumerate(term[1:], 1):
            yield from _mutation_points(sub, path + (i,))
    else:
        yield path


def _mutate_at(term, path, rng):
    if path:
        i = path[0]
        return term[:i] + (_mutate_at(term[i], path[1:], rng),) + term[i + 1:]
    if isinstance(term, tuple):
        if term[0] == "lognot":
            return term[1]
        return (rng.choice(_SWAPS[term[0]]),) + term[1:]
    if isinstance(term, int):
        return term ^ (1 << rng.randrange(max(2, abs(term).bit_length())))
    return {"x": "y", "y": "x"}[term]


def _holds_everywhere(concl, wx, wy, defs):
    """Exhaustive concrete check of the conclusion over the input space."""
    from bitblast.concrete import eval_concrete
    from bitblast.values import NIL

    for x in range(1 << wx):
        for y in range(1 << wy):
            if eval_concrete(concl, {"x": x, "y": y}, defs) is NIL:
                return False
    return True


def _theorem_text(name, lhs, rhs, wx, wy):
    return ("(def-gl-thm %s\n"
            "  :hyp (and (unsigned-byte-p %d x) (unsigned-byte-p %d y))\n"
            "  :concl (equal %s\n"
            "                %s)\n"
            "  :g-bindings `((x ,(g-int 0 2 %d)) (y ,(g-int 1 2 %d))))\n"
            % (name, wx, wy, _render(lhs), _render(rhs), wx + 1, wy + 1))


def word_theorems(seed):
    """The seed's generated theorems: [(name, text, known status)]."""
    from bitblast.lang import base_env, parse_term
    from bitblast.reader import read_one_value

    defs = base_env()
    rng = random.Random(seed)
    out = []
    for tname, lhs0, rhs0 in _TEMPLATES:
        for kind in ("identity", "mutant"):
            wx, wy = rng.choice(_WIDTHS)
            consts = {"K": rng.randrange(1, 1 << max(wx, wy)),
                      "M": rng.randrange(1, 1 << max(wx, wy)),
                      "S": rng.randrange(1, 4)}
            consts["NS"] = -consts["S"]
            lhs, rhs = _fill(lhs0, consts), _fill(rhs0, consts)
            for _ in range(_MAX_MUTATION_DRAWS):
                if kind == "identity":
                    cand = rhs
                else:
                    points = list(_mutation_points(rhs))
                    cand = _mutate_at(rhs, rng.choice(points), rng)
                concl = parse_term(read_one_value(
                    "(equal %s %s)" % (_render(lhs), _render(cand))))
                holds = _holds_everywhere(concl, wx, wy, defs)
                if holds == (kind == "identity"):
                    break
                if kind == "identity":
                    raise AssertionError("template %s is not an identity"
                                         % tname)
            else:
                raise AssertionError("no refutable mutant of %s" % tname)
            name = "gen-%s-%s" % (tname, kind)
            out.append((name, _theorem_text(name, lhs, cand, wx, wy),
                        "proved" if holds else "disproved"))
    return out


def write_word_theorems(seed, gen_dir):
    """Write one file per generated theorem; [(path, known answers)]."""
    out = []
    for i, (name, text, status) in enumerate(word_theorems(seed)):
        path = os.path.join(gen_dir, "%02d_%s.lisp" % (i, name))
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("; generated from seed %d\n\n%s" % (seed, text))
        out.append((path, {name: (status, None)}))
    return out
