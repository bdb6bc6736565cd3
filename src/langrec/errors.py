"""Exception taxonomy shared across the package."""


class LangrecError(Exception):
    """Base class for all library errors."""

    exit_code = 1


class InputError(LangrecError):
    """Malformed user input: parse failures, alphabet mismatches, bad tables."""

    exit_code = 2


class ResourceLimitError(LangrecError):
    """A closure or enumeration exceeded its configured ceiling."""

    exit_code = 3


class PreconditionError(LangrecError):
    """An operation was invoked outside its stated domain."""

    exit_code = 4

