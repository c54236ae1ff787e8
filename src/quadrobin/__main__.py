"""``python -m quadrobin``: the command-line interface of ``quadrobin.cli``."""

import sys

from .cli import main

sys.exit(main())
