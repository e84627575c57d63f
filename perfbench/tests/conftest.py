"""Make the benchmark modules and the checkout's ``repro`` importable."""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
SRC = os.path.join(os.path.dirname(BENCH), "src")

for path in (SRC, BENCH):
    if path not in sys.path:
        sys.path.insert(0, path)
