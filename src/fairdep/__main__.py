"""`python -m fairdep` and the installed `fairdep` script.

The CLI is imported when `run` is called, not when this module is
imported. Where `fairdep validate` spawns its fold workers (every
platform but Linux, which forks them), each imports the main module
again (the `fairdep` script imports this module), so they load only
numpy and the forest, not the whole CLI and scipy.
"""

import sys


def run() -> None:
    from .cli import main

    sys.exit(main())


if __name__ == "__main__":
    run()
