"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Run from the root of a source checkout.  For a short stream of each
workload it checks that

* every end-to-end and per-layer metric is reported by name and unit;
* no request fails (``failed_frac`` is 0);
* artifact digests agree between two runs, and within a run between
  the ``--threads 2`` passes and the ``--threads 1`` pass (``run``
  fails a request whose bytes differ);
* the load comes from one worker process at a time, with no processes
  of its own and at most ``nproc + 1`` threads: the serving thread and
  a pool of at most ``nproc``, which the serving thread waits for;

and that the benchmark fails without printing a result in a directory
that holds only the benchmark's own files.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import threading
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
from streams import WORKLOADS  # noqa: E402

LIMIT = 8            # requests per short stream


def _children(pid: int) -> list:
    out = []
    for task in Path(f"/proc/{pid}/task").iterdir():
        try:
            out += [int(c) for c in (task / "children").read_text().split()]
        except OSError:
            pass
    return out


class LoadMonitor:
    """Samples this process's children (the workers) every millisecond."""

    def __init__(self):
        self.stop = threading.Event()
        self.max_workers = self.max_threads = 0
        self.grandchildren = set()
        self.thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self):
        me = os.getpid()
        while not self.stop.wait(0.001):
            try:
                workers = _children(me)
                self.max_workers = max(self.max_workers, len(workers))
                for pid in workers:
                    threads = len(list(Path(f"/proc/{pid}/task").iterdir()))
                    self.max_threads = max(self.max_threads, threads)
                    self.grandchildren.update(_children(pid))
            except OSError:
                continue        # a worker exited between two reads

    def __enter__(self):
        self.thread.start()
        return self

    def __exit__(self, *exc):
        self.stop.set()
        self.thread.join(timeout=10)


def check_workload(workload: str, root: Path) -> list:
    problems = []
    digests = []
    with LoadMonitor() as load:
        for trace in (False, False, True):
            result, lines, digest = bench.run(workload, 1, 1, trace, root,
                                              limit=LIMIT)
            units = bench.PER_LAYER if trace else bench.END_TO_END
            for name, unit in units.items():
                if f"{name} " not in "\n".join(lines) or \
                        result["metrics"].get(name, {}).get("unit") != unit:
                    problems.append(f"{name} not reported with unit {unit}")
            if result["failed"]:
                problems += [line for line in lines if line.startswith("FAILED")]
            digests.append(digest)
    if len(set(digests)) != 1:
        problems.append(f"digests differ between runs: {digests}")
    nproc = os.cpu_count()
    if load.max_workers != 1:
        problems.append(f"{load.max_workers} workers alive at once")
    if load.max_threads > nproc + 1:
        problems.append(f"worker ran {load.max_threads} threads on {nproc} cores")
    if load.grandchildren:
        problems.append(f"worker started processes {sorted(load.grandchildren)}")
    print(f"{workload}: {'ok' if not problems else 'FAILED'} (digest "
          f"{digests[0][:12]}, {load.max_threads} threads at most)")
    return problems


def check_bare_directory(root: Path) -> list:
    """Only BENCHMARK.json and the benchmark's files: must fail cleanly."""
    bare = root / bench.OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(root / "BENCHMARK.json", bare)
    spec = json.loads((root / "BENCHMARK.json").read_text())
    for path in spec["paths"]:
        shutil.copytree(root / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        spec["command"] + ["--workload", WORKLOADS[0], "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    last = proc.stdout.strip().splitlines()[-1:] or [""]
    if proc.returncode == 0 or last[0].startswith("{"):
        return [f"bare directory: exit {proc.returncode}, output {last[0]!r}"]
    print("bare directory: fails as it should")
    return []


def main() -> int:
    root = HERE.parent
    problems = check_bare_directory(root)
    for workload in WORKLOADS:
        problems += check_workload(workload, root)
    for p in problems:
        print(f"  {p}")
    print("selftest", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
