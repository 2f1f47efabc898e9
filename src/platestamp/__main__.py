"""``python -m platestamp``: the command-line entry point of :mod:`platestamp.cli`."""
import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
