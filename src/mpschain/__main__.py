"""``python -m mpschain``: the same command line as the ``mpschain`` entry point."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
