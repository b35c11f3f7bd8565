"""`python -m fairdep`: the command line of `fairdep.cli`."""

from .cli import run

if __name__ == "__main__":
    run()
