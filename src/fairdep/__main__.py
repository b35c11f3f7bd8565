"""`python -m fairdep` and the installed `fairdep` script.

The CLI is imported when `run` is called, not when this module is
imported, so importing it loads neither the CLI nor scipy. No worker
imports it again: the commands fork their workers (see
`fairdep.workers`).
"""

import sys


def run() -> None:
    from .cli import main

    sys.exit(main())


if __name__ == "__main__":
    run()
