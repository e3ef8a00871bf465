"""``python -m autocomplexity``: the command line of ``autocomplexity.cli``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
