"""Benchmark of the queue-monoid command line, one workload per process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload NAME --smoke

Run it from the repository root.  A workload is a seeded, closed-loop stream
of queries from a single client (one process, no threads).  Each query calls
`queue_monoid.cli.main(argv)` in-process with stdout captured; its latency
runs from the call into `main` to its return.  Interpreter start-up and
imports are paid once and counted in `setup_s` instead.  Queries come in
blocks that are the same work under renamed letters (see workloads.py); a
run keeps sending whole blocks until the time spent inside `main` reaches
--seconds, and at least MIN_BLOCKS of them.  Every time (latencies and
`setup_s`) is scaled to a reference speed of the machine, measured between
queries (see speed.py).  Throughput and the latency percentiles are taken
per block, and the run reports their median over blocks.

Every answer is checked after its call returns, outside the timed region
(see reference.py); a wrong answer, an exception or an unexpected exit code
is a failure.  With --trace 0 the last line of stdout holds the end-to-end
metrics; with --trace 1 the first MIN_BLOCKS blocks run once untraced and
once traced, whatever --seconds says, and the last line holds the
per-layer metrics from tracing.py: totals over those blocks.  The line before
it records the run: commit, Python version, nproc, seed and the input
properties of the queries sent.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import reference
import speed
from tracing import Tracer
from workloads import WORKLOADS, properties

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# Blocks every run completes.  The median over blocks needs a few, and
# `emitted_bytes` and the traced run cover exactly these, so that they count
# the same queries on every commit however fast it is.
MIN_BLOCKS = 3
SETUP_REPEATS = 9
# stop starting blocks after this much wall time, to end well within 180 s
WALL_LIMIT_S = 120.0
AUTOMATON_KINDS = ("classdfa", "conjset", "simple_compile")


def load_spec() -> dict:
    """BENCHMARK.json, the one definition of the workloads and the metrics."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def load_library():
    """Import `queue_monoid` from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "queue_monoid", "cli.py")):
        raise FileNotFoundError(f"no queue_monoid sources under {SRC}")
    sys.path.insert(0, SRC)
    import queue_monoid
    import queue_monoid.cli

    if not os.path.abspath(queue_monoid.__file__).startswith(SRC + os.sep):
        raise ImportError(f"queue_monoid imported from {queue_monoid.__file__}, not {SRC}")
    return queue_monoid


def call(cli, argv):
    """Run one query in-process: (seconds, exit code, stdout, error or None)."""
    # Start from no garbage left by the query before, as a fresh process of
    # the command line would; the query still pays for the collections its
    # own allocations set off.
    gc.collect()
    out, err = io.StringIO(), io.StringIO()
    error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # RecursionError included: the CLI contract forbids it
            rc, error = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
    return seconds, rc, out.getvalue(), error


class Tally:
    """What a run sent, how long each answer took and which were wrong."""

    def __init__(self):
        self.latencies: list[float] = []
        self.queries = []
        self.failures: list[str] = []
        self.attempted = 0
        self.busy = 0.0
        self.emitted_bytes = 0
        self.emitted_states = 0

    def send(self, cli, query, corrupt=None, count_output=False) -> float:
        seconds, rc, out, error = call(cli, query.argv)
        if corrupt is not None:
            out = corrupt(out)
        reason = error or reference.check(query, rc, out)
        self.attempted += 1
        self.busy += seconds
        if reason:
            self.failures.append(f"{query.kind} {' '.join(query.argv)[:80]}: {reason}")
        if count_output:
            self.emitted_bytes += len(out)
        if query.kind in AUTOMATON_KINDS:
            self.emitted_states += out.count("\nstate ")
        return seconds


def setup(workload, cli, repeats):
    """Time set-up `repeats` times: the median import and preparation
    seconds, the median of their sum at the reference speed, and block 0.

    Set-up is a fresh interpreter importing the library (timed in a child
    process, since this one has imported it already), then input generation,
    NFA files and a warm-up pass over tiny queries.
    """
    code = f"import sys; sys.path.insert(0, {SRC!r}); import queue_monoid.cli"
    imports, prepare, scaled = [], [], []
    probe = speed.Speed().probe
    first = None
    for _ in range(repeats):
        before = probe()
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT)
        imports.append(time.perf_counter() - start)
        start = time.perf_counter()
        workload.setup()
        first = workload.block(0)
        for argv in workload.warmup():
            call(cli, argv)
        prepare.append(time.perf_counter() - start)
        mean = (before + probe()) / 2
        scaled.append((imports[-1] + prepare[-1]) * speed.REFERENCE_S / mean)
    return (statistics.median(imports), statistics.median(prepare), statistics.median(scaled),
            first)


def blocks(workload, first, need_more, min_blocks, started):
    """Block 0, 1, ... while the run still needs another block."""
    b = 0
    while b < min_blocks or need_more():
        if b > 0 and time.perf_counter() - started > WALL_LIMIT_S:
            return
        yield first if b == 0 else workload.block(b)
        b += 1


def plain_run(workload, cli, first, seconds, min_blocks, started, corrupt=None):
    """Send whole blocks, probing the machine's speed between queries;
    returns the tally, each block's latencies at the reference speed and
    the probe times."""
    tally = Tally()
    probes = speed.Speed()
    since_probe = speed.EVERY_S
    sizes = []
    for b, block in enumerate(blocks(workload, first, lambda: tally.busy < seconds,
                                     min_blocks, started)):
        for query in block:
            if since_probe >= speed.EVERY_S:
                probes.mark(len(tally.latencies))
                since_probe = 0.0
            tally.latencies.append(tally.send(cli, query, corrupt, b < min_blocks))
            since_probe += tally.latencies[-1]
        tally.queries += block
        sizes.append(len(block))
    probes.mark(len(tally.latencies))
    scaled = probes.scaled(tally.latencies)
    per_block = []
    for size in sizes:
        per_block.append(scaled[:size])
        scaled = scaled[size:]
    return tally, per_block, probes.probes


def traced_run(workload, package, first, count):
    """The first `count` blocks, each untraced and traced, in alternating
    order so neither pass is always the one that meets the block's inputs
    first.  The count does not depend on timing, so every per-layer total
    covers the same queries on every commit; the metrics come from the
    traced passes."""
    cli = package.cli
    plain, traced = Tally(), Tally()
    tracer = Tracer()
    kinds: dict[int, str] = {}
    for b in range(count):
        block = first if b == 0 else workload.block(b)
        if b % 2 == 0:
            for query in block:
                plain.send(cli, query)
        tracer.install(package)
        try:
            for query in block:
                tracer.query_id += 1
                traced.send(cli, query)
                traced.queries.append(query)
                kinds[tracer.query_id] = query.kind
        finally:
            tracer.uninstall()
        if b % 2 == 1:
            for query in block:
                plain.send(cli, query)
    metrics = tracer.metrics()
    metrics["cli.emitted_states"] = traced.emitted_states
    built = metrics.get("automata.nfa_init.states", 0) + metrics.get("automata.dfa_init.states", 0)
    metrics["automata.useful_state_ratio"] = traced.emitted_states / built if built else 0.0
    metrics["trace.overhead_ratio"] = traced.busy / plain.busy if plain.busy else 0.0
    return plain, traced, tracer, metrics, tracer.hot_spots(kinds)


def commit_id():
    """The commit checked out at the root, read from its .git directory
    (so nothing outside the checkout is read); None outside git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            return next((line.split()[0] for line in handle if line.split()[1:] == [ref]), None)
    except OSError:
        return None


def p90(latencies: list[float]) -> float:
    return statistics.quantiles(latencies, n=10, method="inclusive")[-1]


def result_line(metrics: dict, names, attempted: int, failed: int) -> str:
    return json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(metrics.get(name, 0.0)), "unit": unit}
                    for name, unit in names},
    })


def end_to_end(workload, cli, first, seconds, min_blocks, started, setup_s):
    """Untraced run: the end-to-end metrics, the tally and what to record."""
    tally, per_block, probes = plain_run(workload, cli, first, seconds, min_blocks, started)
    # Blocks are the same work, so each statistic is taken per block, and
    # the median over blocks outvotes a block whose speed probes missed a
    # change of the machine's state.
    raw = tally.latencies
    rates = [len(lat) / sum(lat) for lat in per_block]
    p50s = [statistics.median(lat) for lat in per_block]
    p90s = [p90(lat) for lat in per_block]
    metrics = {
        "throughput_qps": statistics.median(rates),
        "latency_p50_ms": statistics.median(p50s) * 1e3,
        "latency_p90_ms": statistics.median(p90s) * 1e3,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "emitted_bytes": tally.emitted_bytes,
        "ok_ratio": 1 - len(tally.failures) / tally.attempted,
    }
    record = {"blocks": len(per_block), "block_qps": rates, "block_p50_s": p50s,
              "block_p90_s": p90s, "probe_ms": [round(p * 1e3, 3) for p in probes],
              "unscaled": {"throughput_qps": len(raw) / sum(raw),
                           "latency_p50_ms": statistics.median(raw) * 1e3,
                           "latency_p90_ms": p90(raw) * 1e3},
              "latency_samples": [len(lat) for lat in per_block],
              "samples_beyond_p90": [sum(x > p for x in lat) for p, lat in zip(p90s, per_block)],
              "properties": properties(workload, tally.queries)}
    return metrics, [tally], record


def per_layer(workload, package, first, count, seed):
    """Traced run: the per-layer metrics, the tallies and what to record."""
    plain, traced, tracer, metrics, hot_spots = traced_run(workload, package, first, count)
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    spans = os.path.join(out_dir, f"spans-{workload.name}-seed{seed}.tsv")
    tracer.write_spans(spans)
    record = {"traced_blocks": count, "spans": len(tracer.span_name), "hot_spots": hot_spots,
              "spans_file": os.path.relpath(spans, ROOT),
              "properties": properties(workload, traced.queries)}
    return metrics, [plain, traced], record


def run(args, spec) -> int:
    started = time.perf_counter()
    package = load_library()
    workdir_root = os.path.join(HERE, ".work")
    os.makedirs(workdir_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=workdir_root)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        import_s, prepare_s, setup_s, first = setup(
            workload, package.cli, 1 if args.smoke or args.trace else SETUP_REPEATS)
        seconds = 0.0 if args.smoke else args.seconds
        why = {w["name"]: w["why"] for w in spec["workloads"]}[workload.name]
        info = {"workload": workload.name, "why": why, "seed": args.seed,
                "seconds": seconds, "trace": args.trace, "commit": commit_id(),
                "python": sys.version.split()[0],
                "nproc": os.cpu_count(), "setup_import_s": import_s,
                "setup_prepare_s": prepare_s}
        metrics, names, tallies = {}, [], []
        if not args.trace or args.smoke:
            found, used, record = end_to_end(workload, package.cli, first, seconds,
                                             1 if args.smoke else MIN_BLOCKS, started,
                                             setup_s)
            metrics.update(found)
            names += [(m["name"], m["unit"]) for m in spec["end_to_end"]]
            tallies += used
            info.update(record)
        if args.trace or args.smoke:
            found, used, record = per_layer(workload, package, first,
                                            1 if args.smoke else MIN_BLOCKS, args.seed)
            metrics.update(found)
            names += [(m["name"], m["unit"]) for m in spec["per_layer"]]
            tallies += used
            info.update(record)
        failures = [f for tally in tallies for f in tally.failures]
        attempted = sum(tally.attempted for tally in tallies)
        info.update({"fail_ratio": len(failures) / attempted, "failures": failures[:5],
                     "wall_s": time.perf_counter() - started})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"run_info": info}))
    print(result_line(metrics, names, attempted, len(failures)))
    return 0


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one short block, untraced and traced, printing every metric")
    args = parser.parse_args(argv)
    if args.workload is None:
        parser.error("--workload is required")
    try:
        return run(args, spec)
    except (FileNotFoundError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
