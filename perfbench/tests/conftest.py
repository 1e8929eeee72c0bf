"""Put the benchmark's modules and the program's sources on ``sys.path``."""

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1]
REPO = PERFBENCH.parent

for path in (PERFBENCH, REPO / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
