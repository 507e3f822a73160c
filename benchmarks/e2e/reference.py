"""Regenerate ``reference.json``: untraced table digests and series hashes.

    python3 benchmarks/e2e/reference.py --seed 1 --seed 2

Each workload runs in one process through the untraced pass of
``tracer.py``, on a fresh cache.  Regenerate only when a change alters
the program's output on purpose.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path
from typing import List, Optional

import harness
import run


def untraced(name: str, seed: int, cache: Path, scratch: Path) -> dict:
    out = scratch / "reference-pass.json"
    process = run.spawn(run.TRACER, [
        "--workload", name, "--seed", str(seed), "--cache-dir", str(cache),
        "--out", str(out)], run.child_env(), scratch)
    if process.returncode != 0:
        sys.stderr.write(process.stderr)
        raise SystemExit(f"{name} seed {seed}: pass exited "
                         f"{process.returncode}")
    result = json.loads(out.read_text(encoding="utf-8"))["untraced"]
    if any(result["returncodes"]):
        raise SystemExit(f"{name} seed {seed}: repro exited "
                         f"{result['returncodes']}")
    return {"tables": result["tables"],
            "series_sha256": result["series_sha256"]}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, action="append", required=True)
    args = parser.parse_args(argv)
    path = harness.HERE / "reference.json"
    reference = harness.load_reference(path) if path.exists() else {}
    harness.WORK_DIR.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="reference-", dir=harness.WORK_DIR))
    try:
        for seed in args.seed:
            entry = {}
            for name in harness.WORKLOADS:
                cache = Path(tempfile.mkdtemp(dir=scratch))
                entry[name] = untraced(name, seed, cache, scratch)
                print(f"seed {seed} {name}: {entry[name]}")
            reference[str(seed)] = entry
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
