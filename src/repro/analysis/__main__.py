"""``python -m repro.analysis`` delegates to the analysis driver."""

import sys

from repro.analysis.cli import main

if __name__ == "__main__":
    sys.exit(main())
