"""Run the command line as ``python -m qsheaf``."""

import sys

from .cli import main

sys.exit(main())
