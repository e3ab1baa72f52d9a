"""The end-to-end wrangle benchmark: one workload, one process, one line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload cold-e6 --seed 1 --seconds 8 --trace 0

With ``--trace 0`` the workload's timed operation repeats for
``--seconds`` (and at least the workload's ``min_ops`` times), and the
last line of standard output is a JSON object whose metrics are the
end-to-end ones.  With ``--trace 1`` a fixed number of operations run
with every layer's public calls wrapped (see ``spans.py``), then untraced
operations fill the rest of ``--seconds``; the metrics are per-layer, per
operation, and the spans are written to ``.perfbench/traces/``.  See
``perfbench/README.md`` for the workloads and metrics.

Every time is reported in machine-normalised seconds: each sample is
multiplied by ``K_REF / k``, where ``k`` is the median time of the
:func:`reference_kernel` runs timed around it in the same process.  Raw
seconds are printed beside.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUTPUT = ROOT / ".perfbench"

#: Median seconds of :func:`reference_kernel` on the machine the
#: benchmark was calibrated on (a 2-vCPU Intel Xeon container, CPython
#: 3.11).  Normalised seconds read as seconds on that machine.
K_REF = 0.114

#: The program's third-party dependencies.  They are imported before
#: set-up is timed, so ``setup_s`` counts the program's own imports and
#: work, not how fast the disk serves numpy.
DEPENDENCIES = ("numpy", "scipy.sparse", "networkx")

#: Fresh processes a timed run is split over, one after another.  Each
#: sets up (one ``setup_s`` sample) and then times its share of
#: ``--seconds``; pooling them averages out how fast one process happens
#: to run, and gives ``setup_s`` a median of several set-ups.
PROCESSES = 5


class _Row:
    __slots__ = ("name", "rank", "cells")

    def __init__(self, name: str, rank: int, cells: dict) -> None:
        self.name, self.rank, self.cells = name, rank, cells


def reference_kernel() -> float:
    """Seconds taken by a fixed pure-Python workload shaped like wrangling.

    It builds small records, tokenises their names into an index, and
    sorts them: the allocation-, dict- and string-bound mix the wrangler
    spends its time on.  On a shared machine both slow down together, so
    their ratio is steadier than either.  It works in small batches
    so it never raises the process's peak memory, and garbage collection
    is off while it runs, or it would charge the kernel for sweeping the
    wrangler's heap.
    """
    gc.disable()
    try:
        start = time.perf_counter()
        rng = random.Random(7)
        total = 0
        for batch in range(10):
            rows = [_Row(f"item {batch} {i} {rng.random():.6f}", i * 3 % 101,
                         {"n": i}) for i in range(3000)]
            index: dict[str, list[int]] = {}
            for row in rows:
                for token in row.name.split():
                    index.setdefault(token, []).append(row.rank)
            for row in sorted(rows, key=lambda row: (row.rank, row.name)):
                total += len(index[row.name.split()[2]]) + row.cells["n"]
        elapsed = time.perf_counter() - start
    finally:
        gc.enable()
    if total <= 0:
        raise AssertionError("reference kernel computed nothing")
    return elapsed


def factor(kernels: list[float]) -> float:
    """The normalisation factor of a sample: ``K_REF`` over the median of
    the kernel timings around it.

    The machine's speed drifts over seconds, and a kernel timed next to a
    sample sees the same drift; taking the median of four keeps one noisy
    kernel timing from moving the sample.
    """
    return K_REF / statistics.median(kernels)


@dataclass
class Sample:
    """One operation: raw seconds, its counts, and where it sits among the
    kernel timings (the index of the one timed just before it)."""

    raw: float
    kernel: int
    counts: dict
    factor: float = math.nan

    @property
    def norm(self) -> float:
        return self.raw * self.factor


def normalised(samples: list[Sample | None]) -> list[float]:
    """Normalised seconds per sample; a failed operation counts as infinite."""
    return [math.inf if s is None else s.norm for s in samples]


def tail(seconds: list[float]) -> tuple[float, float, int] | None:
    """(percentile, seconds, sample count) of the highest percentile with
    at least ten samples beyond it; ``None`` when that would not be above
    the median."""
    ordered = sorted(seconds)
    if len(ordered) < 22:
        return None
    index = len(ordered) - 11
    return 100.0 * (index + 1) / len(ordered), ordered[index], len(ordered)


class Runner:
    """Drives one workload; keeps kernel timings, failures and problems."""

    def __init__(self, workload, kernels: list[float]) -> None:
        self.workload = workload
        #: Two kernel timings before set-up, two after it, then one after
        #: every operation.
        self.kernels = kernels + [reference_kernel(), reference_kernel()]
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.access_cost = 0.0

    def normalise(self, samples: list[Sample | None]) -> None:
        """Set each sample's factor from the two kernel timings before it
        and the two after it."""
        self.kernels.append(reference_kernel())
        for sample in samples:
            if sample is not None:
                sample.factor = factor(
                    self.kernels[max(0, sample.kernel - 1):sample.kernel + 3])

    def setup_factor(self) -> float:
        """The factor of set-up, from the kernel timings just before and
        just after it."""
        return factor(self.kernels[:4])

    def operation(self, index: int, around=contextlib.nullcontext) -> Sample | None:
        """Prepare, time, count and verify operation ``index``; time one
        reference kernel after it."""
        workload = self.workload
        workload.prepare(index)
        self.attempted += 1
        try:
            with around(index):
                start = time.perf_counter()
                result = workload.execute(index)
                elapsed = time.perf_counter() - start
        except Exception:  # an operation that raises is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            self.kernels.append(reference_kernel())
            return None
        self.kernels.append(reference_kernel())
        sample = Sample(elapsed, len(self.kernels) - 2, workload.counts())
        self.access_cost += sample.counts["sources.access_cost"]
        self.problems += workload.verify(index, result, sample.counts)
        return sample

    def loop(self, first: int, min_ops: int, seconds: float, on_op=None) -> list:
        """Untraced operations until ``seconds`` and ``min_ops`` are both
        met, ending on a whole cycle of the workload's operation kinds."""
        samples = []
        cycle = self.workload.cycle
        start = time.perf_counter()
        while (len(samples) < min_ops or len(samples) % cycle
               or time.perf_counter() - start < seconds):
            samples.append(self.operation(first + len(samples)))
            if on_op is not None:
                on_op(len(samples))
        self.normalise(samples)
        return samples


def worker_run(runner: Runner, args, setup_raw: float) -> dict:
    """One timed process's share of the run, as plain data."""
    workload = runner.workload
    marks: dict = {}

    def at_min_ops(count: int) -> None:
        if count == workload.min_ops:
            marks["quality"] = workload.quality()
            marks["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)

    samples = runner.loop(0, workload.min_ops, args.seconds, at_min_ops)
    runner.problems += workload.finish()
    return {
        "setup_raw_s": setup_raw,
        "setup_s": setup_raw * runner.setup_factor(),
        "samples": [None if s is None else [s.raw, s.norm] for s in samples],
        "kernels": runner.kernels,
        "problems": runner.problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "access_cost": runner.access_cost,
        **marks,
    }


def timed_run(args) -> tuple[dict, dict]:
    """Split ``--seconds`` over ``PROCESSES`` fresh processes, one after
    another, and pool what they measured."""
    shares = []
    for worker in range(PROCESSES):
        command = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", repr(args.seconds / PROCESSES),
                   "--worker", str(worker)]
        completed = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                                   text=True, timeout=170)
        if completed.returncode != 0:
            raise RuntimeError(f"timed process {worker} exited with "
                               f"{completed.returncode}")
        shares.append(json.loads(completed.stdout.strip().splitlines()[-1]))
    kernels = [k for share in shares for k in share["kernels"]]
    samples = [s for share in shares for s in share["samples"]]
    seconds = [math.inf if s is None else s[1] for s in samples]
    raws = [math.inf if s is None else s[0] for s in samples]
    raw_setups = [share["setup_raw_s"] for share in shares]
    setup_s = statistics.median(share["setup_s"] for share in shares)
    op_p50_s = statistics.median(seconds)
    attempted = sum(share["attempted"] for share in shares)
    failed = sum(share["failed"] for share in shares)
    setups = ", ".join(f"{share['setup_s']:.3f}" for share in shares)
    print(f"setup_s      {setup_s:.4f} s  (median of {PROCESSES} processes: "
          f"{setups} s; raw {', '.join(f'{v:.3f}' for v in raw_setups)} s)")
    print(f"op_p50_s     {op_p50_s:.4f} s  (raw {statistics.median(raws):.4f} s, "
          f"{len(raws)} samples from {PROCESSES} processes)")
    point = tail(seconds)
    if point is None:
        print(f"op_tail_s    n/a: {len(raws)} samples, fewer than 22")
    else:
        percentile, value, count = point
        print(f"op_tail_s    {value:.4f} s at p{percentile:.1f} "
              f"({count} samples, 10 beyond)")
    print(f"error_rate   {failed}/{attempted}")
    spent = sum(share["access_cost"] for share in shares)
    print(f"access_cost_per_op  {spent / max(1, attempted - failed):.4f} "
          "cost units (source ledger)")
    print(f"K_ref {K_REF:.4f} s, K_now {statistics.median(kernels):.4f} s "
          f"(median of {len(kernels)} kernel timings)")
    metrics = {
        "setup_s": (setup_s, "s"),
        "op_p50_s": (op_p50_s, "s"),
        "peak_rss_mb": (max(share["peak_rss_mb"] for share in shares), "MB"),
    }
    for name in ("price_accuracy", "entity_f1"):
        metrics[name] = (statistics.fmean(share["quality"][name]
                                          for share in shares), "fraction")
    outcome = {
        "problems": [p for share in shares for p in share["problems"]],
        "attempted": attempted,
        "failed": failed,
    }
    return metrics, outcome


def layer_metrics(sums: dict, ops: int, overhead: float) -> dict:
    """Per-operation layer metrics from the traced operations' sums."""
    def per_op(name: str) -> float:
        return sums.get(name, 0.0) / ops

    def ratio(numerator: str, denominator: str) -> float:
        base = sums.get(denominator, 0.0)
        return sums.get(numerator, 0.0) / base if base else 0.0

    metrics = {f"{layer}.self_s": (per_op(f"{layer}.self_s"), "s")
               for layer in ("model", "analysis", "matching", "quality",
                             "resolution", "fusion", "feedback", "sources",
                             "ingest", "extraction")}
    metrics.update({
        "model.infer_type_calls": (per_op("model.infer_type_calls"), "count"),
        "model.strptime_calls": (per_op("model.strptime_calls"), "count"),
        "model.annotations": (per_op("model.annotations"), "count"),
        "analysis.ast_parse_calls": (per_op("analysis.ast_parse_calls"), "count"),
        "analysis.ast_nodes_visited": (per_op("analysis.ast_nodes_visited"), "count"),
        "matching.calls": (per_op("matching.calls"), "count"),
        "core.plan_self_s": (per_op("core.self_s"), "s"),
        "core.nodes_recomputed": (per_op("core.nodes_recomputed"), "count"),
        "quality.calls": (per_op("quality.calls"), "count"),
        "resolution.candidate_pairs": (per_op("kernels.candidates"), "count"),
        "resolution.pairs_redecided": (per_op("kernels.survivors"), "count"),
        "resolution.prune_ratio": (ratio("kernels.pruned", "kernels.candidates"),
                                   "ratio"),
        "feedback.nodes_invalidated": (per_op("feedback.nodes_invalidated"), "count"),
        "sources.accesses": (per_op("sources.calls"), "count"),
        "sources.rows_fetched": (per_op("sources.rows_fetched"), "count"),
        "sources.access_cost": (per_op("sources.access_cost"), "cost"),
        "ingest.commits": (per_op("ingest.commits"), "count"),
        "ingest.bytes_written": (per_op("ingest.bytes_written"), "bytes"),
        "ingest.write_amplification": (
            ratio("ingest.bytes_written", "changed_row_bytes"), "ratio"),
        "unattributed_s": (per_op("unattributed_s"), "s"),
        "trace.fine_calls_s": (per_op("trace.fine_calls_s"), "s"),
        "trace.overhead_s": (overhead, "s"),
    })
    return metrics


def traced_run(runner: Runner, args) -> dict:
    import spans

    workload = runner.workload
    recorder = spans.SpanRecorder()
    recorder.fine_cost = spans.calibrate()
    rows: dict[int, dict] = {}

    @contextlib.contextmanager
    def tracing(index: int):
        changed = workload.changed_row_bytes()
        before = recorder.totals()
        recorder.op_id = index
        undo = spans.install(recorder)
        try:
            yield
        finally:
            spans.uninstall(undo)
            recorder.op_id = None
        after = recorder.totals()
        row = {name: after[name] - before.get(name, 0) for name in after}
        row["changed_row_bytes"] = changed
        row["digest"] = workload.digest()
        rows[index] = row

    traced = [runner.operation(index, tracing)
              for index in range(workload.trace_ops)]
    spent = sum(s.raw for s in traced if s is not None)
    untraced = runner.loop(workload.trace_ops, 3, args.seconds - spent)
    runner.normalise(traced)
    per_op = []
    for index, sample in enumerate(traced):
        if sample is None:
            continue
        row = rows[index]
        for name in [name for name in row if name.endswith("_s")]:
            row[name] *= sample.factor
        row["op_s"] = sample.norm
        row["unattributed_s"] = row["op_s"] - row["trace.fine_calls_s"] - sum(
            value for name, value in row.items() if name.endswith(".self_s"))
        row.update(sample.counts)
        per_op.append(row)
    runner.problems += determinism_problems(workload, per_op)
    runner.problems += workload.finish()
    traced_p50 = statistics.median(normalised(traced))
    untraced_p50 = statistics.median(normalised(untraced))
    sums: dict[str, float] = {}
    for row in per_op:
        for name, value in row.items():
            if name != "digest":
                sums[name] = sums.get(name, 0.0) + value
    metrics = layer_metrics(sums, max(1, len(per_op)), traced_p50 - untraced_p50)
    write_trace(args, recorder, per_op, metrics)
    print(f"traced op p50 {traced_p50:.4f} s ({len(traced)} samples), "
          f"untraced op p50 {untraced_p50:.4f} s ({len(untraced)} samples)")
    for name, (value, unit) in metrics.items():
        print(f"{name:28s} {value:14.6g} {unit}")
    return metrics


def determinism_problems(workload, per_op: list[dict]) -> list[str]:
    """Identical cold wrangles must do identical work, count for count."""
    if not workload.fresh_per_op:
        return []
    counted = [{name: value for name, value in row.items()
                if not name.endswith("_s")} for row in per_op]
    if any(row != counted[0] for row in counted[1:]):
        return ["work counts differ between identical operations"]
    return []


def write_trace(args, recorder, per_op: list[dict], metrics: dict) -> None:
    """Write the run's spans and per-operation rows out, once, at the end."""
    directory = OUTPUT / "traces"
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{args.workload}-seed{args.seed}.json"
    payload = {
        "workload": args.workload,
        "seed": args.seed,
        "k_ref_s": K_REF,
        "fine_call_cost_s": {
            kind: {"wrapped_layer": inner, "calling_layer": outer}
            for kind, (inner, outer) in recorder.fine_cost.items()},
        "operations": per_op,
        "metrics": {name: value for name, (value, __) in metrics.items()},
        **recorder.export(),
    }
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")
    print(f"trace written to {path.relative_to(ROOT)}")


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=606)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--worker", type=int, default=None,
                        help=argparse.SUPPRESS)  # one timed process's share
    return parser.parse_args(argv)


def in_process(args) -> tuple[dict, dict]:
    """Set the workload up here and run it: a traced run or a timed share.

    Set-up is timed from just before the program is imported to the end
    of the workload's warm-up, between two kernel timings on each side.
    """
    for name in DEPENDENCIES:
        importlib.import_module(name)
    before = [reference_kernel(), reference_kernel()]
    start = time.perf_counter()
    import workloads

    workdir = OUTPUT / "work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir,
                                                  args.worker or 0)
    try:
        workload.setup()
        setup_raw = time.perf_counter() - start
        runner = Runner(workload, before)
        if args.worker is not None:
            return worker_run(runner, args, setup_raw), {}
        metrics = traced_run(runner, args)
        print(f"K_ref {K_REF:.4f} s, K_now {statistics.median(runner.kernels):.4f} s "
              f"(median of {len(runner.kernels)} kernel timings)")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return metrics, {"problems": runner.problems, "attempted": runner.attempted,
                     "failed": runner.failed}


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no program under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.worker is not None:  # the parent checked the workload name
        share, __ = in_process(args)
        print(json.dumps(share))
        return 0
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"nproc={os.cpu_count()} python={platform.python_version()}")
    metrics, outcome = in_process(args) if args.trace else timed_run(args)
    for problem in outcome["problems"]:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not outcome["problems"],
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
