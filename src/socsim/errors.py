"""Exception types shared across the simulator, ``quote`` and
``shown_path``."""

import reprlib


class _Quote(reprlib.Repr):
    def repr_int(self, x, level):
        try:
            return super().repr_int(x, level)
        except ValueError:
            # over ``sys.get_int_max_str_digits()`` digits, which YAML
            # reads as a hex literal of any length: hex has no limit
            return f"{hex(x)[:self.maxlong // 2]}... ({x.bit_length()} bits)"


# the bounded ``repr`` that problem messages quote values with: YAML
# aliases can make a value whose full ``repr`` is exponentially larger
# than its file.  A mapping's keys come out sorted.
_QUOTE = _Quote()
_QUOTE.maxlevel = 3
_QUOTE.maxstring = 80
quote = _QUOTE.repr


def shown_path(path: str) -> str:
    """``path`` as a message shows it: as given if printable, else
    escaped, so no control character reaches the terminal."""
    return path if path.isprintable() else repr(path)


class SimulationError(Exception):
    """Raised when a model precondition is violated at run time.

    Examples: scheduling an event in the past, routing a transaction to
    an address no port claims, or an arbiter granting a stalled master
    outside its guard window.
    """


class ConfigError(Exception):
    """Raised for invalid configuration input.

    Carries the full list of problems so a user sees every mistake in
    one pass instead of fixing them one at a time.
    """

    def __init__(self, problems):
        if isinstance(problems, str):
            problems = [problems]
        self.problems = list(problems)
        super().__init__("\n".join(self.problems))
