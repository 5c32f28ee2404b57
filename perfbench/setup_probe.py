"""Time what a user pays before the first step, in a fresh process.

    python3 perfbench/setup_probe.py CONFIG

Imports acsplit from the checkout's `src/`, reads CONFIG with load_config,
builds the grid and the initial field, and prints {"setup_s": seconds}.
"""

import time

T0 = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

os.environ["ACSPLIT_NUM_THREADS"] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import acsplit  # noqa: E402

cfg = acsplit.load_config(sys.argv[1])
grid = acsplit.TorusGrid(cfg.d, cfg.n)
acsplit.build_initial(cfg, grid)
print('{"setup_s": %r}' % (time.perf_counter() - T0))
