"""``python -m asfes``: the same command line as the ``asfes`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
