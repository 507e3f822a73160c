"""``python -m repro`` with a set-up stamp: one cold benchmark process.

Usage: ``python child.py <repro argv...>`` or ``python child.py --probe``.
The first stderr line is ``e2e-ready <perf_counter>``, taken the moment
``from repro.cli import main`` returns, and the last is ``e2e-done
<perf_counter>``, taken when ``main`` returns; ``perf_counter`` reads
CLOCK_MONOTONIC, so the parent compares both with its own spawn and reap
stamps.  ``--probe`` stops after the import and prints what importing
``repro.cli`` loaded.
"""

import sys
import time

started = time.perf_counter()
from repro.cli import main  # noqa: E402  (the import is what is timed)

ready = time.perf_counter()
loaded = set(sys.modules)
sys.stderr.write(f"e2e-ready {ready!r}\n")
sys.stderr.flush()

if sys.argv[1:] == ["--probe"]:
    import json

    import numpy
    import scipy

    heavy = ("numpy", "scipy", "scipy.stats", "sqlite3", "concurrent.futures")
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    print(json.dumps({
        "import_s": ready - started, "modules": len(loaded),
        "heavy": [name for name in heavy if name in loaded],
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}"}))
    sys.exit(0)

status = main(sys.argv[1:])
sys.stderr.write(f"e2e-done {time.perf_counter()!r}\n")
sys.exit(status)
