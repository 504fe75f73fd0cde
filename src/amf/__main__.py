"""`python -m amf` entry point, the same as the ``amf`` console script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
