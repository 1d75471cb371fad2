"""Exception hierarchy.

Everything raised on purpose by this package derives from WintgenError so
callers can catch one type at the boundary.  Each error class belongs to one
of two families, which set the command line's exit code: InputError (2) and
Refusal (3).  Parse-time problems carry location information.
"""

from __future__ import annotations


class WintgenError(Exception):
    """Base class for all package errors."""


class InputError(WintgenError):
    """The request cannot be carried out as stated (exit code 2)."""


class Refusal(WintgenError):
    """The chart is fine but the quantity is undefined there (exit code
    3).  A gate over the lanes of a chunk sets lane, the lane it refused
    at (the sample index less the chunk's start); it is not part of the
    message, and None where no lane gate refused."""

    def __init__(self, *args, lane: int | None = None):
        super().__init__(*args)
        self.lane = lane


# ---------------------------------------------------------------------------
# jet arithmetic


class OrderError(InputError):
    """Jet operands have mismatched truncation orders."""


class SingularJet(Refusal):
    """Division by a jet whose constant term is zero."""


class DomainError(Refusal):
    """Elementary function applied outside its domain (e.g. sqrt of a
    jet with non-positive constant term)."""


# ---------------------------------------------------------------------------
# parsing / input schema


class ParseError(InputError):
    """Syntax error in an expression or an immersion file."""

    def __init__(self, msg: str, line: int | None = None, col: int | None = None):
        self.line = line
        self.col = col
        if line is not None:
            loc = f"line {line}"
            if col is not None:
                loc += f", col {col}"
            msg = f"{msg} ({loc})"
        super().__init__(msg)


class UnknownIdentifier(ParseError):
    """Expression references a name that is neither a domain variable nor a
    known constant or function."""


class SchemaError(InputError):
    """Immersion file is syntactically fine but structurally invalid
    (missing fields, wrong component count, bad domain)."""


class EvalError(InputError):
    """Expression evaluation failed at a concrete point."""


class ShapeError(InputError):
    """Array argument has the wrong shape or dimension."""


# ---------------------------------------------------------------------------
# geometry


class NotImmersed(Refusal):
    """The map is no immersion into the ambient model at the requested
    point: the induced metric is not finite, degenerate or not positive
    definite, the point is off the model, or no normal frame completes."""


class UmbilicPoint(Refusal):
    """Totally umbilic point: the trace-free second fundamental form
    vanishes, so the conformal factor and everything built on it is
    undefined."""


class NotIdealPoint(Refusal):
    """A canonical frame was requested at a point where the equality case of
    the normal-scalar-curvature inequality fails, so the shared kernel
    direction does not exist."""


class InsufficientOrder(InputError):
    """The requested analysis needs more jet coefficients than the supplied
    truncation order provides."""


class NotLorentz(InputError):
    """Matrix supplied as a conformal transformation does not preserve the
    Lorentz form (or reverses time orientation)."""


class ChartBlowUp(Refusal):
    """A conformal transformation sends the evaluation point out of the
    stereographic chart (denominator of the projection vanishes)."""


class IntegrableDistribution(Refusal):
    """The two-plane distribution spanned by the canonical tangent pair is
    integrable (the torsion scalar vanishes), so quotient invariants that
    divide by it are undefined."""


class DegenerateCurve(Refusal):
    """A holomorphic-curve datum is degenerate (derivative vanishes or the
    curve fails to be full)."""
