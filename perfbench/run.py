"""optwist benchmark: seeded request streams served in a closed loop.

    python3 perfbench/run.py --workload tables-q --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout.  One client (this process)
sends one request at a time to one long-lived worker process
(``worker.py``, started with ``PYTHONPATH=src``), which runs each
``optwist`` argv in-process through ``optwist.cli.main`` with
``--threads 2``.  A run starts fresh workers, so module-level caches in
the library start cold.

A run:

1. times a host probe (a fixed pure-Python and numpy loop);
2. sets up ``SETUPS`` times (start a worker, wait for its imports,
   generate the stream) and reports the median as ``setup_s``; the
   last worker serves;
3. serves the stream, timed (with ``--trace 1`` it is then served once
   more by a fresh worker with the tracer installed);
4. untimed, serves part of the stream again in a fresh worker with
   ``--threads 1`` (see ``recheck_indices``), computes the reference
   answers there, and checks every answer: a request fails if it
   raises, exits non-zero, gives a wrong answer, or writes different
   artifact bytes in another run or under another thread count;
5. times the host probe again and prints the metrics; the last line is
   one JSON object.  With ``--trace 0`` it holds the end-to-end
   metrics, with ``--trace 1`` the per-layer metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from checks import reference, verify  # noqa: E402
from streams import WORKLOADS, make_stream  # noqa: E402

THREADS = 2          # the benchmark host's core count
SETUPS = 5           # set-ups per run; setup_s is their median
RECHECK_EVERY = 3    # one unit in this many is served again with --threads 1
OUT_DIR = ".bench_out"

END_TO_END = {
    "makespan_s": "s", "job_p50_s": "s", "cpu_s": "s", "setup_s": "s",
    "peak_rss_mib": "MiB", "ok_frac": "ratio",
}
PER_LAYER = {
    "linalg.elim_s": "s", "linalg.elim_calls": "count",
    "linalg.q_cells": "cells", "linalg.fp_cells": "cells",
    "linalg.matmul_calls": "count", "linalg.matmul_s": "s",
    "qcohom.functor_s": "s", "qcohom.functors_built": "count",
    "qcohom.validate_pairs": "count", "qcohom.resolution_s": "s",
    "qcohom.resolution_gens": "count", "qcohom.cochain_s": "s",
    "qcohom.cochain_dim": "count", "qcohom.les_s": "s",
    "twisted.base_s": "s", "twisted.compose_calls": "count",
    "twisted.compose_s": "s", "twisted.certify_s": "s",
    "twisted.pairs_checked": "count",
    "encodings.ib_compose_calls": "count", "encodings.ib_compose_s": "s",
    "encodings.enumerate_s": "s",
    "operads.axioms_s": "s", "operads.compose_calls": "count",
    "products.compose_blocks_calls": "count", "pointed.compose_calls": "count",
    "sset.enumerate_s": "s", "sset.filter_s": "s", "sset.un_s": "s",
    "sset.cubes": "count", "sset.quasi_ratio": "ratio",
    "serialize.dump_s": "s", "serialize.load_s": "s",
    "serialize.bytes_out": "bytes",
    "cli.self_s": "s", "linalg.self_s": "s", "qcohom.self_s": "s",
    "twisted.self_s": "s", "encodings.self_s": "s", "operads.self_s": "s",
    "products.self_s": "s", "pointed.self_s": "s", "sset.self_s": "s",
    "serialize.self_s": "s",
    "trace.coverage": "ratio", "trace.overhead": "ratio",
}


class WorkerError(RuntimeError):
    pass


class Worker:
    """One worker process; ``call`` sends a message and waits for the
    reply, so there is never more than one request in flight."""

    def __init__(self, root: Path):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            ["src"] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        # --threads is the only parallelism: no BLAS thread pool next to it
        env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   MKL_NUM_THREADS="1")
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py")], cwd=root, env=env,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        try:
            self._read()
        except WorkerError:
            self.close()
            raise

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise WorkerError(f"worker exited with code {self.proc.wait()}")
        return json.loads(line)

    def call(self, **msg) -> dict:
        self.proc.stdin.write(json.dumps(msg) + "\n")
        self.proc.stdin.flush()
        return self._read()

    def close(self) -> None:
        if self.proc.stdin and not self.proc.stdin.closed:
            try:
                self.proc.stdin.close()
            except BrokenPipeError:
                pass
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def host_probe() -> float:
    """Seconds for a fixed pure-Python and numpy loop (about 0.5 s on
    a 2-core x86 VM).  Printed to show host drift; nothing is divided
    by it."""
    import numpy as np

    t0 = time.perf_counter()
    acc = 0
    for i in range(2_500_000):
        acc = (acc * 31 + i) % 1_000_003
    a = np.arange(160 * 160, dtype=np.int64).reshape(160, 160) % 101
    for _ in range(100):
        a = (a @ a.T + 1) % 101
    return time.perf_counter() - t0


def _artifact(argv: list) -> str | None:
    return argv[argv.index("--out") + 1] if "--out" in argv else None


def serve(worker: Worker, stream: list, passdir: Path, threads: int,
          indices=None) -> dict:
    """Serve the requests ``indices`` (default all) in order, one at a
    time; timing covers the first send to the last reply."""
    passdir.mkdir(parents=True, exist_ok=True)
    argvs = {}
    for i in range(len(stream)) if indices is None else indices:
        argvs[i] = [a.replace("{out}", str(passdir / f"{i:03d}.json"))
                    .replace("{dir}", str(passdir)) for a in stream[i]["argv"]]
        argvs[i] += ["--threads", str(threads)]
    before = worker.call(op="stats")
    replies, latencies = {}, []
    start = time.perf_counter()
    for i, argv in argvs.items():
        t0 = time.perf_counter()
        replies[i] = worker.call(op="run", rid=i, argv=argv)
        latencies.append(time.perf_counter() - t0)
    makespan = time.perf_counter() - start
    after = worker.call(op="stats")
    digests = {}
    for i, argv in argvs.items():
        try:
            digests[i] = hashlib.sha256(Path(_artifact(argv)).read_bytes()).hexdigest()
        except OSError:
            digests[i] = None
    return {"replies": replies, "latencies": latencies, "makespan": makespan,
            "cpu_s": after["cpu_s"] - before["cpu_s"],
            "peak_rss_mib": after["peak_rss_mib"], "argvs": argvs,
            "digests": digests}


def recheck_indices(stream: list, seed: int) -> list:
    """Requests served again with --threads 1: every request that uses
    the thread pool (``sset quasi``) and the units at positions equal to
    ``seed`` modulo RECHECK_EVERY.  Service order is shuffled per seed,
    so other seeds recheck other units."""
    return [i for i, req in enumerate(stream)
            if req["unit"] % RECHECK_EVERY == seed % RECHECK_EVERY
            or req["argv"][:2] == ["sset", "quasi"]]


def _failure(i: int, check: dict, ref, passes: list) -> str | None:
    """Why request ``i`` failed, or None.  ``ref`` is the worker's reply
    to the reference request, if the check needs one."""
    served = [p for p in passes if i in p["replies"]]
    for p in served:
        reply = p["replies"][i]
        if reply["error"] or reply["rc"] != 0:
            return f"rc {reply['rc']}: {reply['error'] or reply['output']}"
    digests = {p["digests"][i] for p in served}
    if None in digests:
        return "no artifact written"
    if len(digests) != 1:
        return "artifact bytes differ between runs or thread counts"
    if ref is not None and "error" in ref:
        return f"reference failed: {ref['error']}"
    try:
        doc = json.loads(Path(_artifact(passes[0]["argvs"][i])).read_text())
        return verify(check, doc, ref and ref["value"])
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        return f"malformed artifact: {exc!r}"


def check(stream: list, passes: list, worker: Worker) -> list:
    """Failure reason per request (None when it passed), comparing the
    first pass's answers with references and the bytes of every pass
    that served the request."""
    keys = [json.dumps(reference(req["check"])) for req in stream]
    refs = {key: worker.call(op="ref", spec=json.loads(key))
            for key in dict.fromkeys(keys) if key != "null"}
    return [_failure(i, req["check"], refs.get(key), passes)
            for i, (req, key) in enumerate(zip(stream, keys))]


def run(workload: str, seed: int, seconds: float, trace: bool,
        root: Path, limit: int | None = None) -> tuple[dict, list, str]:
    """One benchmark run; returns the result object, the report lines
    and the SHA-256 over the run's artifacts.  ``limit`` cuts the stream
    short (self-test only)."""
    out = root / OUT_DIR / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    probe_start = host_probe()

    setups, worker = [], None
    try:
        for _ in range(SETUPS):
            if worker is not None:
                worker.close()
            t0 = time.perf_counter()
            worker = Worker(root)
            stream = make_stream(workload, seed, seconds)[:limit]
            setups.append(time.perf_counter() - t0)
        passes = [serve(worker, stream, out / "timed", THREADS)]
        worker.close()
        if trace:
            worker = Worker(root)
            worker.call(op="trace")
            passes.append(serve(worker, stream, out / "traced", THREADS))
            layers = worker.call(op="report", spans_path=str(out / "spans.jsonl"))
            worker.close()
        worker = Worker(root)
        passes.append(serve(worker, stream, out / "threads1", 1,
                            recheck_indices(stream, seed)))
        reasons = check(stream, passes, worker)
    finally:
        if worker is not None:
            worker.close()
    probe_end = host_probe()

    timed = passes[0]
    attempted = len(stream)
    failed = sum(r is not None for r in reasons)
    digest = hashlib.sha256("".join(d or "-" for d in timed["digests"].values())
                            .encode()).hexdigest()
    lines = [f"workload {workload} seed {seed}: {attempted} requests, "
             f"{failed} failed, failed_frac {failed / attempted:.4f}",
             f"artifacts sha256 {digest}",
             f"host probe {probe_start:.4f} s at start, {probe_end:.4f} s at end"]
    lines += [f"FAILED request {i}: {' '.join(stream[i]['argv'])}: {r}"
              for i, r in enumerate(reasons) if r is not None]
    if trace:
        traced = passes[1]
        metrics = {name: layers[name] for name in PER_LAYER
                   if not name.startswith("trace.")}
        metrics["trace.coverage"] = layers["trace.covered_s"] / traced["makespan"]
        metrics["trace.overhead"] = traced["makespan"] / timed["makespan"]
        lines.append(f"traced makespan {traced['makespan']:.4f} s over "
                     f"{layers['trace.spans']} spans; untraced "
                     f"{timed['makespan']:.4f} s")
        units = PER_LAYER
    else:
        metrics = {
            "makespan_s": timed["makespan"],
            "job_p50_s": statistics.median(timed["latencies"]),
            "cpu_s": timed["cpu_s"],
            "setup_s": statistics.median(setups),
            "peak_rss_mib": timed["peak_rss_mib"],
            "ok_frac": (attempted - failed) / attempted,
        }
        lines.append(f"job_p50_s is the median of {attempted} request "
                     f"latencies; cpu_s/makespan_s = "
                     f"{timed['cpu_s'] / timed['makespan']:.3f}")
        units = END_TO_END
    lines += [f"{name} {value} {units[name]}" for name, value in metrics.items()]
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    return result, lines, digest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = HERE.parent
    if not (root / "src" / "optwist" / "cli.py").is_file():
        print(f"no optwist sources under {root / 'src'}", file=sys.stderr)
        return 2
    try:
        result, lines, _digest = run(args.workload, args.seed, args.seconds,
                                     bool(args.trace), root)
    except WorkerError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
