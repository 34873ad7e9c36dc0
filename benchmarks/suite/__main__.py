"""``python -m benchmarks.suite`` from the repo root; finds ``src/`` itself."""

import os
import sys

_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
_SRC = os.path.join(_ROOT, "src")
if not os.path.isdir(os.path.join(_SRC, "repro")):
    sys.exit(f"benchmarks.suite measures the program under {_SRC}; it is not there")
for _path in (_SRC, _ROOT):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from benchmarks.suite.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
