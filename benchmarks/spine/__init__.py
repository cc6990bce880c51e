"""The measurement spine: one benchmark for the whole IQ-Paths stack.

``python -m benchmarks.spine`` (or ``python3 benchmarks/spine/run.py``)
runs eight named workloads and reports end-to-end and per-layer numbers;
see ``README.md`` beside this file.  The benchmark only *calls* the
``repro`` package through its public entry points — nothing under
``src/`` knows it exists.
"""

import sys
from pathlib import Path

#: Root of the checkout the benchmark runs in (``<root>/benchmarks/spine``).
ROOT = Path(__file__).resolve().parents[2]

# The driver runs the command without PYTHONPATH, from a checkout that
# is not installed: make ``repro`` importable from the tree itself.
_SRC = ROOT / "src"
if _SRC.is_dir() and str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))
