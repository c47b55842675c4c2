"""Entry point, both as ``python3 benchmarks/harness/__main__.py`` (the
``BENCHMARK.json`` command: no PYTHONPATH, any working directory) and as
``PYTHONPATH=src python -m benchmarks.harness``."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"benchmarks.harness: no program to measure under {ROOT / 'src'}")
for entry in (str(ROOT), str(ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from benchmarks.harness.main import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
