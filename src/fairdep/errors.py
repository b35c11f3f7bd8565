"""Exception hierarchy shared across the package.

The split mirrors how failures surface to a caller: schema/configuration
problems, bad data content, and numerical breakdowns each get their own
class, and the CLI maps exactly these three to its exit codes (2, 3 and
4). Any other exception is a bug in the package and ends the command
with a traceback rather than passing for a configuration error.
"""


class FairdepError(Exception):
    """Base class for all package errors."""


class SchemaError(FairdepError, ValueError):
    """A schema document, column declaration or setting is invalid.

    Raised where the input enters: the schema's columns and keys (an
    unknown key too), two source columns that encode to one name, the
    command-line flags, each settings object (`DependenceConfig`,
    `KernelSpec`, `ForestConfig`, `SynthSpec`, `PlantedFeature`) as it is
    built, and an epsilon too large for the sample size. Also a
    ValueError, so callers that catch ValueError keep working.
    """


class DataError(FairdepError):
    """Dataset content violates the declared schema or a precondition.

    Among them: a cell that is not a finite number in a numeric or binned
    column.
    """


class NumericsError(FairdepError):
    """A numerical routine failed (non-SPD solve, non-finite input)."""
