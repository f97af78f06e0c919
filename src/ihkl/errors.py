"""Exception taxonomy shared by all modules.

Bad input is named where it is read: ``complexes.load_complex``,
``coxeter.parse_element``, ``perversity.parse``, ``builders.build`` and
the flag oracle's primality check raise UsageError. ``cli.main`` only
maps the classes onto exit codes: usage errors -> 2, computation /
validation errors -> 1, internal-consistency errors -> 3.
"""


class IhklError(Exception):
    """Base class for all package errors."""


class UsageError(IhklError):
    """Bad user input (malformed permutation string, non-prime q, ...)."""


class ComputationError(IhklError):
    """A precondition of a mathematical operation failed."""


class ValidationError(ComputationError):
    """A complex failed validation required by the requested operation."""


class InternalConsistencyError(IhklError):
    """An invariant that should hold by theorem was violated.

    This is never silently patched: it signals a bug in the package,
    not a problem with the input.
    """
