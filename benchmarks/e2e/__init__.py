"""The repo's end-to-end benchmark: HTTP submit -> commit -> traffic.

See ``README.md`` in this directory; ``BENCHMARK.json`` at the repo root
declares the command, the workloads and the metrics.

The benchmark runs from a bare checkout (nothing installed, no
``PYTHONPATH``), so importing the package makes ``src/`` importable.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))
