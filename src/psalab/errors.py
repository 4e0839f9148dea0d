"""Exception types shared across the package, and the numeric field check."""

import math


class PsalabError(ValueError):
    """Base class for all errors raised by psalab."""


class DomainError(PsalabError):
    """A physical or numerical precondition was violated."""


class ConfigError(PsalabError):
    """A configuration document failed validation."""


def check_number(
    name: str, value, lower: float = -math.inf, strict: bool = False, integer: bool = False
):
    """``value`` as a finite float (an int if ``integer``) that is >= ``lower``,
    or > ``lower`` if ``strict``.

    A failure raises DomainError("<name>: expected <bound>, got <value>"),
    which the config layer prefixes with the document's key path.  Hot
    callers pass the bound positionally: keyword calls cost more.
    """
    try:
        number = int(value) if integer else float(value)
    except (TypeError, ValueError, OverflowError):
        number = math.nan
    if (number > lower if strict else number >= lower) and (
        number == value if integer else math.isfinite(number)
    ):
        return number
    if isinstance(number, float) and not math.isfinite(number):
        raise DomainError(f"{name}: expected a finite number, got {value}")
    kind = "an integer " if integer else ""
    raise DomainError(f"{name}: expected {kind}{'>' if strict else '>='} {lower:g}, got {value}")
