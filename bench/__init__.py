"""The repo benchmark: five monitor/serve workloads, judged end to end.

``BENCHMARK.json`` at the repo root is the contract; this package is
the program behind it. ``python -m bench run`` measures every workload
(each in a fresh interpreter), gates on output correctness, and writes
provenance-stamped rows to ``bench/results/``; ``python -m bench
compare A.json B.json`` applies each metric's own bound. See
``bench/README.md`` for the workloads, metrics and layer map.

The benchmark measures the program in ``src/`` from the outside: it
puts that directory on ``sys.path`` itself (the contract's command may
not name a path outside ``bench/``) and changes nothing under it.
"""

import sys
from pathlib import Path

#: The checkout root (the directory holding ``BENCHMARK.json``).
ROOT = Path(__file__).resolve().parent.parent

_SRC = ROOT / "src"
if (_SRC / "repro").is_dir() and str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))
