"""hunfold's benchmark: one workload, one closed-loop client, one process.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload train-desk --seed 1 --seconds 30 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` prints every
per-layer metric from a separate traced run.  The last line of standard
output is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
The exit code is 0 when every op passed its check, 1 when one did not, and
2 when the checkout holds no hunfold sources to measure.

The BLAS pool is capped at the number of usable cores before numpy loads.
Scratch files go to ``.perfbench/`` in the checkout and are removed at exit,
apart from the span dump of a traced run and the per-seed count records
that let a later run of the same sources check its counts against this one.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"


def _cap_blas_threads() -> int:
    cores = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(cores)
    return cores


def _sources_digest() -> str:
    """Digest of the measured sources and of the benchmark itself."""
    h = hashlib.sha256()
    for path in sorted([*(ROOT / "src" / "hunfold").rglob("*.py"),
                        *(ROOT / "perfbench").glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _check_counts(workload: str, seed: int, counts: dict) -> str | None:
    """Compare a traced run's counts with the first traced run of the same
    sources, workload and seed; record them when there is none."""
    record = OUT / "counts" / f"{workload}-{seed}-{_sources_digest()}.json"
    if record.exists():
        before = json.loads(record.read_text(encoding="utf-8"))
        moved = {k: (before.get(k), v) for k, v in counts.items() if before.get(k) != v}
        return f"counts differ from {record.name}: {moved}" if moved else None
    record.parent.mkdir(parents=True, exist_ok=True)
    record.write_text(json.dumps(counts, sort_keys=True) + "\n", encoding="utf-8")
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "hunfold" / "__init__.py").is_file():
        print(f"perfbench: no hunfold sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    _cap_blas_threads()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import harness, workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    spans = OUT / f"spans-{args.workload}-{args.seed}.tsv" if args.trace else None
    try:
        result = harness.run(workloads.WORKLOADS[args.workload], args.seed,
                             args.seconds, bool(args.trace), workdir,
                             spans_path=spans)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if args.trace:
        problem = _check_counts(args.workload, args.seed, result.counts)
        if problem:
            print(f"FAILED {problem}")
            result.failed += 1
            result.correct = False
    print(result.line(), flush=True)
    return 0 if result.correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
