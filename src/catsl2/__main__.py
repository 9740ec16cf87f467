"""``python -m catsl2 ...``: the ``catsl2`` command line."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
