"""``python -m polycomp``: the same command line as the ``polycomp`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
