"""Exception types shared across the package."""

import sys


class GameError(ValueError):
    """Base class for every game construction or computation error."""


class PlayerCountError(GameError):
    """Player count outside the supported range (1 to 16)."""


class PlayerOutOfRangeError(GameError):
    """A coalition names a player outside 1..n."""


class MissingCoalitionError(GameError):
    """A nonempty coalition has no assigned worth."""

    def __init__(self, key: str):
        super().__init__(f"no value supplied for coalition {{{key}}}")
        self.key = key


class DuplicateCoalitionError(GameError):
    """The same coalition was assigned a worth more than once."""

    def __init__(self, key: str):
        super().__init__(f"coalition {{{key}}} supplied more than once")
        self.key = key


class GameFormatError(GameError):
    """Malformed game file text."""

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class BadCoalitionKeyError(GameFormatError):
    """Coalition key is not a strictly increasing comma-separated index list."""

    def __init__(self, key: str):
        super().__init__(f"bad coalition key {key!r}")
        self.key = key


class BadNumberError(GameFormatError):
    """Numeric token is not an integer, decimal, or p/q literal."""

    def __init__(self, token):
        super().__init__(f"bad number token {token!r}")
        self.token = token


class DigitLimitError(GameFormatError):
    """An exact number is too long to write as text: Python converts at most
    `sys.get_int_max_str_digits()` digits (4300 by default) from int to text."""

    def __init__(self):
        super().__init__(
            f"an exact number has more than {sys.get_int_max_str_digits()} digits, "
            "the limit for converting an integer to text"
        )


class NotEssentialError(GameError):
    """Operation requires v(N) to exceed the sum of singleton worths."""


class NotEfficientError(GameError):
    """Allocation does not sum to the grand-coalition worth."""


class AtLowerBoundError(GameError):
    """Allocation pays a player exactly the singleton worth, so the
    propensity to disrupt has a zero denominator."""


class BelowLowerBoundError(GameError):
    """Allocation pays a player less than the singleton worth."""


class PlayerNotInCoalitionError(GameError):
    """Remainder requested for a player outside the coalition."""


class TooManyPlayersError(GameError):
    """Grid search is limited to games with at most 4 players."""


class GenerationFailedError(GameError):
    """Random-game generator exhausted its retry budget."""
