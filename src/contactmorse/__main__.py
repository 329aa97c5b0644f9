"""`python -m contactmorse` is the `contactmorse` command."""

import sys

from .cli import main

sys.exit(main())
