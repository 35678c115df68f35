"""Journal hashes of the benchmark workloads, to check that a change
leaves every journal as it was.

For each workload of ``benchmark/workloads.py``, each seed and each
``evaluation.WORKERS`` of 1 and 2, it runs one fixed-work round on the
inputs of that seed and prints the record count and the sha256 of
``json.dumps(journal, sort_keys=True)``, the journal without
``wall_ms``. cli-bench-tiny runs through ``cli.main`` in this process,
with its files in a temporary directory; for it the script also prints
the sha256 of the files it writes besides the journal, ``results.csv``
and every table ``.csv`` and ``.txt``, hashed in name order with their
names. The script exits 1 if the two worker counts give different
hashes, of journals or of files, for any workload and seed.

Usage: python scripts/journal_hashes.py [--workload NAME ...] [--seeds 3 5]
"""

import os

# pin BLAS threads before numpy is imported, as benchmark/run.py does
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmark")]

import workloads  # noqa: E402

from stagedml import cli, evaluation  # noqa: E402

WORKER_COUNTS = (1, 2)


def journal_hash(workload, seed: int) -> tuple[int, str]:
    """The record count and sha256 of one round's journal on ``seed``."""
    call = cli.main if workload.runs_children else None
    inputs = workload.inputs(seed, call)
    journal = workload.round(inputs, seed, call).journal
    return len(journal), hashlib.sha256(json.dumps(journal, sort_keys=True).encode()).hexdigest()


def output_hash(workload) -> tuple[int, str]:
    """The file count and sha256 of the results and table files of the
    round of ``workload`` that ran last."""
    paths = [workload.dir / "bench" / "results.csv", *sorted((workload.dir / "tables").iterdir())]
    digest = hashlib.sha256()
    for path in paths:
        digest.update(path.relative_to(workload.dir).as_posix().encode() + b"\0" + path.read_bytes())
    return len(paths), digest.hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append", choices=list(workloads.WORKLOADS))
    parser.add_argument("--seeds", type=int, nargs="+", default=[3, 5])
    args = parser.parse_args()
    differ = False
    with tempfile.TemporaryDirectory() as tmp:
        for name in args.workload or list(workloads.WORKLOADS):
            workload = workloads.WORKLOADS[name]()
            if workload.runs_children:
                workload.dir = Path(tmp) / name
            for seed in args.seeds:
                hashes = set()
                for workers in WORKER_COUNTS:
                    evaluation.WORKERS = workers
                    count, digest = journal_hash(workload, seed)
                    print(f"{name}\tseed {seed}\tWORKERS {workers}\t{count} records\t{digest}", flush=True)
                    if workload.runs_children:
                        files, files_digest = output_hash(workload)
                        print(f"{name}\tseed {seed}\tWORKERS {workers}\t{files} files\t{files_digest}", flush=True)
                        digest += files_digest
                    hashes.add(digest)
                differ |= len(hashes) > 1
    if differ:
        print("error: the worker counts give different journals or files", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
