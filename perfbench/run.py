"""Run one benchmark workload and print its metrics; the last line is a JSON result.

    python3 perfbench/run.py --workload uniform-full --seed 1 --seconds 25 --trace 0

``--trace 0`` runs the closed loop for at least ``--seconds`` seconds, in
whole rounds, and reports the end-to-end metrics.  ``--trace 1`` makes two
passes over the fixed operation set of the workload's first rounds; in each,
every operation runs untraced and then traced.  It reports the per-layer
metrics of the second pass and the tracing overhead.  Details, provenance
and (traced) the spans go to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from itertools import chain, islice
from pathlib import Path

HERE = Path(__file__).resolve().parent
RESULTS = HERE / "results"
SETUP_REPEATS = 5
_IMPORT_PROBE = "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); import itl.cli; print(time.perf_counter() - t)"


def _args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="Run one itl benchmark workload, or all of them.")
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args()


class Runner:
    """Executes operations, checks them and keeps what the metrics need."""

    def __init__(self, workload, tracer=None):
        self.workload = workload
        self.tracer = tracer
        self.latencies: list[float] = []
        self.classes: list[str] = []  # class of each latency sample
        self.attempted = 0
        self.failed = 0
        self.decided = 0
        self.failures: list[str] = []
        self.digests: dict[int, str] = {}  # entry id -> stdout sha256 of its first run

    def run(self, entry: dict, op_id: int = 0) -> str:
        """One timed operation plus its untimed checks; returns the stdout digest."""
        w, tracer = self.workload, self.tracer
        if tracer is not None:
            tracer.op_id = op_id
            tracer.context.clear()
            stack, idx = tracer.open("bench.op")
        raw, error = None, None
        t0 = time.perf_counter()
        try:
            raw = w.execute(entry)
        except Exception:
            error = traceback.format_exc(limit=-1).strip().splitlines()[-1]
        latency = time.perf_counter() - t0
        if tracer is not None:
            tracer.close(stack, idx)
            stack, idx = tracer.open("bench.check")
        try:
            outcome = w.check(entry, raw) if raw is not None else None
        except Exception:
            outcome, error = None, traceback.format_exc(limit=-1).strip().splitlines()[-1]
        if tracer is not None:
            tracer.close(stack, idx)
        digest = hashlib.sha256(raw.stdout.encode()).hexdigest() if raw is not None else ""
        first = self.digests.setdefault(entry["id"], digest)
        ok = outcome is not None and outcome.ok and first == digest
        why = error or (outcome.why if outcome is not None and not outcome.ok else "stdout differs between runs")
        self.attempted += 1
        self.latencies.append(latency)
        self.classes.append(entry["cls"])
        if ok:
            self.decided += outcome.decided
        else:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{entry['cls']} #{entry['id']}: {why}")
        return digest


def _setup(runner: Runner, load_expected, draw, warmup):
    """Set up SETUP_REPEATS times; returns the entries, a round iterator and the median set-up time.

    One set-up is: importing the package (timed in a fresh interpreter),
    loading the pool with its expected answers, drawing the rounds, and
    running the untimed warm-up operations.
    """
    import env

    times = []
    for _ in range(SETUP_REPEATS):
        probe = subprocess.run(
            [sys.executable, "-I", "-c", _IMPORT_PROBE, str(env.SRC)],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        t0 = time.perf_counter()
        entries = load_expected()
        rounds = draw(entries)
        for entry in warmup(entries):
            runner.run(entry)
        times.append(float(probe.stdout) + time.perf_counter() - t0)
    runner.latencies.clear()
    runner.classes.clear()
    runner.decided = 0
    return entries, rounds, statistics.median(times)


def _tail(latencies: list[float]) -> tuple[float, int]:
    """Latency at the highest percentile with at least 10 samples beyond it, and its rank."""
    ordered = sorted(latencies)
    rank = max(len(ordered) - 10, 1)
    return ordered[rank - 1], rank


def _closed_loop(runner: Runner, rounds, seconds: float) -> tuple[int, str]:
    """Whole rounds until ``seconds`` have passed; returns rounds run and the first round's digest."""
    first_round = hashlib.sha256()
    start = time.perf_counter()
    done = 0
    for ops in rounds:
        for entry in ops:
            digest = runner.run(entry)
            if done == 0:
                first_round.update(digest.encode())
        done += 1
        if time.perf_counter() - start >= seconds:
            break
    return done, first_round.hexdigest()


def _traced_pass(runner: Runner, tracer, patches, ops: list[dict]) -> tuple[float, float]:
    """Each operation untraced, then traced right after it, so both see the same machine state.

    Returns the summed untraced and traced latencies; the tracer keeps this
    pass's spans and counts.
    """
    import spans

    tracer.reset()
    untraced = traced = 0.0
    for i, entry in enumerate(ops):
        spans.apply(patches, False)
        runner.run(entry)
        untraced += runner.latencies[-1]
        spans.apply(patches, True)
        runner.tracer, tracer.enabled = tracer, True
        runner.run(entry, i)
        traced += runner.latencies[-1]
        runner.tracer, tracer.enabled = None, False
    return untraced, traced


def _run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process (peak memory is per process); a combined JSON line last."""
    import workloads

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed)]
        argv += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined, sort_keys=True))
    return 0


def main() -> int:
    args = _args()
    try:
        import env
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import layers
    import spans
    import workloads

    if args.workload == "all":
        return _run_all(args)
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r} (choose from {', '.join(workloads.WORKLOADS)})", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    expected_path = HERE / "expected" / f"{workload.name}.json"

    def load_expected() -> list[dict]:
        doc = json.loads(expected_path.read_text(encoding="utf-8"))
        return [dict(e, id=i) for i, e in enumerate(doc["entries"])]

    def draw(entries: list[dict]):
        it = workloads.rounds(workload, entries, args.seed)
        head = list(islice(it, 256))
        return chain(head, it)

    runner = Runner(workload)
    entries, rounds, setup_s = _setup(
        runner, load_expected, draw, lambda entries: workloads.warmup_ops(workload, entries, args.seed)
    )
    info: dict = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "jobs": workloads.JOBS,
        "provenance": env.provenance(),
        "pool": {"file": str(expected_path.relative_to(HERE.parent)), "entries": len(entries)},
        "round": workload.round,
    }
    correct_extra = True
    if args.trace == 0:
        done, digest = _closed_loop(runner, rounds, args.seconds)
        lat = runner.latencies
        n = len(lat)
        tail, rank = _tail(lat)
        metrics = {
            "ops_per_s": (n / sum(lat), "1/s"),
            "op_p50_ms": (1000 * statistics.median(lat), "ms"),
            "op_tail_ms": (1000 * tail, "ms"),
            "ok_frac": (1 - runner.failed / runner.attempted, "ratio"),
            "decided_frac": (runner.decided / n, "ratio"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        info.update(
            rounds=done,
            op_tail={"percentile": 100 * rank / n, "samples": n, "beyond": n - rank},
            failed_frac=runner.failed / runner.attempted,
            first_round_stdout_sha256=digest,
            class_p50_ms={
                cls: 1000 * statistics.median(t for t, c in zip(lat, runner.classes) if c == cls)
                for cls in workload.round
            },
        )
    else:
        ops = [e for r in islice(rounds, workload.trace_rounds) for e in r]
        tracer = spans.Tracer()
        patches = spans.install(tracer, layers.targets())
        untraced_a, traced_a = _traced_pass(runner, tracer, patches, ops)
        counts_a = dict(tracer.counts)
        untraced_b, traced_b = _traced_pass(runner, tracer, patches, ops)
        untraced_s, traced_s = (untraced_a + untraced_b) / 2, (traced_a + traced_b) / 2
        exact_a = {k: counts_a.get(k, 0) for k in layers.EXACT_COUNTS}
        exact_b = {k: tracer.counts.get(k, 0) for k in layers.EXACT_COUNTS}
        if exact_a != exact_b:
            correct_extra = False
            runner.failures.append(f"counts differ between two traced passes: {exact_a} vs {exact_b}")
        unreliable = set(tracer.missing) | set(tracer.hook_errors)
        per_layer, absent = layers.per_layer(
            tracer.totals("bench.op"), tracer.totals("bench.check"), tracer.counts, unreliable, len(ops)
        )
        metrics = dict(per_layer)
        metrics["trace.untraced_s"] = (untraced_s, "s")
        metrics["trace.traced_s"] = (traced_s, "s")
        metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
        metrics["trace.overhead_frac"] = ((traced_s - untraced_s) / untraced_s, "ratio")
        spans_path = RESULTS / f"{workload.name}-seed{args.seed}.spans.json.gz"
        tracer.write(spans_path)
        info.update(
            ops=len(ops),
            exact_counts=exact_b,
            counts=dict(sorted(tracer.counts.items())),
            absent=absent,
            missing_targets=tracer.missing,
            hook_errors=tracer.hook_errors,
            stdout_sha256=hashlib.sha256("".join(runner.digests[e["id"]] for e in ops).encode()).hexdigest(),
            spans_file=str(spans_path.relative_to(HERE.parent)),
            spans=len(tracer.spans),
        )

    correct = runner.failed == 0 and correct_extra
    info.update(attempted=runner.attempted, failed=runner.failed, failures=runner.failures, correct=correct)
    info["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(info, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )

    prov = info["provenance"]
    print(
        f"# {workload.name} seed={args.seed} jobs={workloads.JOBS} nproc={prov['nproc']} cpu={prov['cpu']!r} "
        f"python={prov['python']} numpy={prov['numpy']} commit={prov['commit']}"
    )
    for name, (value, unit) in metrics.items():
        print(f"{name:44s} {value:14.6g} {unit}")
    if args.trace == 0:
        t = info["op_tail"]
        print(f"{'failed_frac':44s} {info['failed_frac']:14.6g} ratio ({runner.failed} of {runner.attempted})")
        print(f"# op_tail_ms is p{t['percentile']:.2f} of {t['samples']} samples ({t['beyond']} beyond); {info['rounds']} rounds")
        print(f"# first round stdout sha256 {info['first_round_stdout_sha256']}")
    else:
        print(f"# {info['ops']} ops per pass, {info['spans']} spans; stdout sha256 {info['stdout_sha256']}")
        if info["absent"]:
            print(f"# absent: {', '.join(info['absent'])}")
    for failure in runner.failures:
        print(f"# FAILED {failure}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": runner.attempted,
                "failed": runner.failed,
                "metrics": info["metrics"],
            },
            sort_keys=True,
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
