"""Exception types raised by fracfront.

There are two, one per failure exit code of the CLI.  ``OutOfRangeError``
means an argument lies outside its admissible range: the CLI exits 2 and
names the argument's flag.  ``FracfrontError`` is every other failure (a
singular solve, a diverged run, a profile that never crosses its level, an
unreadable file): the CLI exits 1.  The message says which failure it was.
"""


class FracfrontError(Exception):
    """A fracfront failure other than an argument out of range."""


class OutOfRangeError(FracfrontError, ValueError):
    """A parameter lies outside its admissible region.

    ``param`` is the parameter's ``RunConfig`` field name, which the CLI
    turns into its flag, or None when no single parameter is at fault.
    """

    def __init__(self, message: str, param=None):
        super().__init__(message)
        self.param = param
