"""Shared exception types.

Validation of mathematical laws never raises; law checkers return
`CheckReport` or `CheckEntry` values with witnesses (`qsheaf.checks`).
Exceptions are reserved for misuse: malformed input, mismatched
domains, calling an operation on a site that does not support it. The
one exception is `InternalDefect`, raised when two of the library's own
independent computations disagree.
"""


class QsheafError(Exception):
    """Base class for all toolkit errors."""


class InvalidSpec(QsheafError):
    """Malformed JSON input or structurally broken raw tables."""


class DomainMismatch(QsheafError):
    """A map was given arguments outside its domain, or composed badly."""


class CodomainMismatch(QsheafError):
    """A map's values leave its declared codomain, or codomains differ."""


class NotCartesianSite(QsheafError):
    """Pretopology checks need a site whose tensor is the product."""


class NotSemicartesian(QsheafError):
    """The operation needs the tensor unit to be terminal."""


class SectionOutOfSet(QsheafError):
    """A section assigned to a cover leg is not an element of its value set."""


class UnverifiedInput(QsheafError):
    """An operation required a coverage whose flavor was not verified."""


class NotThinSite(QsheafError):
    """Coverages and presheaves exist only on thin (at most one arrow) sites."""


class SiteMismatch(QsheafError):
    """Two presheaves over different sites were combined."""


class MissingRestriction(QsheafError):
    """A presheaf table lacks a restriction map for a comparable pair."""


class NotLocale(QsheafError):
    """The plus construction is only valid over localic sites."""


class NotCompatible(QsheafError):
    """Gluing was attempted on a non-compatible family of sections."""


class MulNotAssociative(QsheafError):
    """The multiplication handed to the down-set criterion is not associative."""


class NotConverged(QsheafError):
    """Bounded forcing hit its iteration cap without reaching a fixpoint."""


class InternalDefect(QsheafError):
    """Two independent computations of this library disagree: a bug, not bad input."""
