"""Exception types shared across the simulator, and ``quote``."""

import reprlib

# the bounded ``repr`` that problem messages quote values with: YAML
# aliases can make a value whose full ``repr`` is exponentially larger
# than its file.  A mapping's keys come out sorted.
_QUOTE = reprlib.Repr()
_QUOTE.maxlevel = 3
_QUOTE.maxstring = 80
quote = _QUOTE.repr


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
