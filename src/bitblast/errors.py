"""Exception types shared across the package."""


class BlastError(Exception):
    """Base class for all errors raised by this package."""


class ReadError(BlastError):
    """Malformed s-expression input."""

    def __init__(self, message, line, column):
        super().__init__("%d:%d: %s" % (line, column, message))
        self.line = line
        self.column = column


class FileFormatError(BlastError):
    """A syntactically valid s-expression that is not a valid event,
    definition, theorem form, or shape spec."""


class EvalError(BlastError):
    """Evaluation error: unbound variable, unknown function, arity
    mismatch, or a primitive applied outside its supported domain."""


class BudgetExceeded(BlastError):
    """A run exhausted a budget; each subclass names it in `budget`."""


class StepLimitExceeded(BudgetExceeded):
    """The interpreter ran out of its step budget."""
    budget = "steps"


class NodeBudgetExceeded(BudgetExceeded):
    """A Boolean-expression store exceeded its node budget."""
    budget = "nodes"


class SatBudgetExceeded(BudgetExceeded):
    """The SAT solver exceeded its conflict budget."""
    budget = "sat"


class UnsatConstraint(BlastError):
    """A constraint that must be satisfiable is not."""


class MissingAssignment(BlastError):
    """A Boolean environment or substitution lacks a required entry."""


class ShapeError(FileFormatError):
    """Invalid shape spec: duplicate indices, zero-width numbers, or
    unsupported structure."""


class IndeterminateError(BlastError):
    """Nil-possibility hit an opaque node (function-call escape or free
    variable); carries the offending symbolic object."""

    def __init__(self, offender):
        super().__init__("indeterminate: %r" % (offender,))
        self.offender = offender


class GApplyBreak(BlastError):
    """Raised when the break-on-apply-escape debug hook fires; carries
    the function name and symbolic arguments of the first escape."""

    def __init__(self, fn, args):
        super().__init__("apply escape: %s" % fn)
        self.fn = fn
        self.args = args
