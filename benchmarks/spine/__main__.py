"""``python -m benchmarks.spine``: see :mod:`benchmarks.spine.run`."""

import sys

from benchmarks.spine.run import main

sys.exit(main())
