"""The repo's one benchmark: seven named workloads, timed from outside.

Run as ``python3 -m bench`` from the repository root.  The package
drives the *unmodified* program only through its public functions and
CLI; nothing under ``src/`` knows this package exists.  See
``bench/README.md`` for workloads, metrics and how to read the ladder.
"""

import os
import sys

#: Repository root (the directory holding ``bench/`` and ``src/``).
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: The program under test: importable from here on, and handed to the
#: ``serve`` subprocess as its PYTHONPATH.
SRC = os.path.join(ROOT, "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)
