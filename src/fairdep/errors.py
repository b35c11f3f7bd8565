"""Exception hierarchy shared across the package, and the label check.

The split mirrors how failures surface to a caller: schema/configuration
problems, bad data content, numerical breakdowns and a worker process
that ended without a result each get their own class, and the CLI maps
exactly these four to its exit codes (2, 3, 4 and 5). Any other
exception is a bug in the package and ends the command with a traceback
rather than passing for a configuration error.

`signs` is the one check of the {-1, +1} coding of labels and
predictions. It lives here, beside `DataError`, so that `fairdep.forest`
can use it without depending on `fairdep.data`.
"""

import numpy as np


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


class DataError(FairdepError, ValueError):
    """Dataset content violates the declared schema or a precondition.

    Among them: a cell that is not a finite number in a numeric or binned
    column, a cell outside its column's categories, and labels or
    predictions outside {-1, +1} (see `signs`). Also a ValueError, so
    callers that catch ValueError keep working.
    """


class NumericsError(FairdepError):
    """A numerical routine failed (non-SPD solve, non-finite input)."""


class WorkerError(FairdepError):
    """A forked worker ended without a result (see `fairdep.workers.forked`).

    It was killed, or its exception would not pickle. An exception that
    a worker raises and sends back is raised with its own type instead.
    """


def signs(values, name: str = "labels") -> np.ndarray:
    """`values` as a flat array; DataError unless each one is -1 or +1."""
    values = np.asarray(values).ravel()
    found = set(np.unique(values).tolist())
    if not found <= {-1, 1}:
        raise DataError(f"{name} must lie in {{-1, +1}}, got {sorted(found)}")
    return values
