"""Entry point for `python -m coxmin`, the same CLI as the `coxmin` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
