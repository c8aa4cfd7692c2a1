"""``python -m adaptive_kuramoto``: the same command line as ``adaptive-kuramoto``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
