"""Error classes shared across the package.

The CLI maps these onto exit codes: configuration problems (bad JSON,
malformed documents, unknown labels) exit with 2, violated operation
preconditions (parameter constraints, size caps) with 3, and any other
exception with 4.  Verification failures are ordinary return values,
not exceptions.
"""


class ConfigError(Exception):
    """Input documents or options could not be understood."""


class GraphFormatError(ConfigError):
    """A graph document is malformed (loops, duplicate edges, unknown ids)."""


class PreconditionError(Exception):
    """An operation was called outside its stated domain."""
