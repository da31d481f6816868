"""Domain errors shared across the package.

Every error carries a stable machine-readable ``code`` (used verbatim in CLI
error JSON) plus a human ``detail``.  ``clause`` is optional and names the
specific precondition that failed, for errors that guard multi-part
preconditions.
"""

from __future__ import annotations


class PrimeScopeError(Exception):
    """Base class for all domain errors.

    code: stable identifier, e.g. "NotMonic"; detail: human explanation.
    """

    code = "PrimeScopeError"

    def __init__(self, detail: str = "", clause: str | None = None):
        self.detail = detail
        self.clause = clause
        super().__init__(detail)

    def to_json(self) -> dict:
        out = {"error": self.code, "detail": self.detail}
        if self.clause is not None:
            out["clause"] = self.clause
        return out


def _make(code: str, doc: str) -> type:
    cls = type(code, (PrimeScopeError,), {"code": code, "__doc__": doc})
    return cls


# polynomial / finite-field layer
NotPIntegral = _make("NotPIntegral", "A coefficient has p in its denominator.")
ZeroElement = _make("ZeroElement", "The zero element has no multiplicative order / valuation.")

# number-field layer
NotMonic = _make("NotMonic", "Defining or input polynomial must be monic.")
Reducible = _make("Reducible", "Polynomial is reducible; detail carries a witness factor.")
DivisionByZero = _make("DivisionByZero", "Inversion of the zero element.")

# prime engine
IndexDivisible = _make(
    "IndexDivisible",
    "p divides the index [O_K : Z[alpha]]; splitting via the defining polynomial is unreliable here.",
)
NegativeValuation = _make("NegativeValuation", "Residue requested for an element with v < 0.")
Unsupported = _make("Unsupported", "Operation outside the supported parameter range.")
NoneWithinBound = _make("NoneWithinBound", "Search exhausted its bound without a certified result.")

# closure oracle
NonMonic = _make("NonMonic", "Closure-root decision requires a monic polynomial.")
ZeroDiscriminantUnhandled = _make(
    "ZeroDiscriminantUnhandled",
    "Polynomial has a repeated root; pass its squarefree part instead.",
)
NoRoot = _make("NoRoot", "No root exists in the requested closure.")
PrecisionOverflow = _make("PrecisionOverflow", "Required working precision exceeds the configured cap.")
NoRootInClosure = _make("NoRootInClosure", "Witness search requires a root in the closure at this prime.")

# dense engine
NonDisjoint = _make("NonDisjoint", "Prime sets in a weak-approximation request must be pairwise disjoint.")

# formula kit
InverseOfZero = _make("InverseOfZero", "Formal inverse applied to a term that evaluates to zero.")
FormulaSyntaxError = _make("FormulaSyntaxError", "Unparseable formula text; detail carries the position.")

# squares / Kochen
Negative = _make("Negative", "Sum-of-squares decomposition requested for a negative rational.")
PreconditionViolated = _make(
    "PreconditionViolated",
    "An input violates a stated precondition; clause names which one.",
)


class InvariantViolated(PrimeScopeError, AssertionError):
    """An internal self-check failed: a witness or certificate the package
    built did not re-verify.  A PrimeScopeError for callers, an AssertionError
    for code that expects one; raised by check(), so python -O keeps it."""

    code = "InvariantViolated"


def check(condition, detail: str) -> None:
    """Raise InvariantViolated(detail) unless condition holds."""
    if not condition:
        raise InvariantViolated(detail)
