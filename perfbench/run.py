"""Seeded benchmark runner for the takegrant package.

    python3 perfbench/run.py --workload cli-large --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

One process drives a closed loop with one client: the next op starts only
after the previous one returned, and at most one child process runs at
a time.  ``--trace 0`` prints the end-to-end metrics of BENCHMARK.json,
``--trace 1`` the per-layer ones; the last stdout line is the JSON
result.  ``--workload all`` runs every workload both ways, each in a
fresh interpreter, and prints one table.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
# Enough ops that at least ten lie beyond p90.
MIN_OPS = {"full": 110, "tiny": 10}
_WRONG = object()  # a reference answer nothing equals


def _import_package():
    """Import takegrant from this checkout's src/, and nothing else."""
    src = ROOT / "src"
    sys.path[:0] = [str(ROOT), str(src)]
    try:
        import takegrant
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import takegrant from {src}: {exc}")
    if not Path(takegrant.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"perfbench: takegrant resolved to {takegrant.__file__}, outside {src}")


def load_spec() -> dict:
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except OSError as exc:
        raise SystemExit(f"perfbench: {exc}")


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in (ROOT / "src").rglob("*.py"))


def quantile_ms(latencies_ns: list[float], which: int) -> float:
    """``which`` = 5 for p50, 9 for p90 (deciles, exclusive method)."""
    return statistics.quantiles(latencies_ns, n=10)[which - 1] / 1e6


class Tally:
    """Ops attempted and failed, per op key."""

    def __init__(self) -> None:
        self.first: dict[str, object] = {}
        self.attempted: dict[str, int] = {}
        self.failed: dict[str, int] = {}

    def record(self, key: str, answer: object, crashed: bool) -> None:
        self.attempted[key] = self.attempted.get(key, 0) + 1
        if crashed:
            self.failed[key] = self.failed.get(key, 0) + 1
        elif key not in self.first:
            self.first[key] = answer
        elif answer != self.first[key]:
            self.failed[key] = self.failed.get(key, 0) + 1

    def verdict(self, ops, plant: bool) -> tuple[int, int, list[str]]:
        """Check each key's first answer against its reference; a key that
        fails there fails every op it ran."""
        bad_keys = []
        for i, op in enumerate(ops):
            if op.key not in self.attempted:
                continue
            try:
                ok = op.key in self.first and op.project(self.first[op.key]) == (
                    _WRONG if plant and i == 0 else op.reference()
                )
            except Exception:  # a crashing check is a failed check
                traceback.print_exc()
                ok = False
            if not ok:
                bad_keys.append(op.key)
        failed = sum(
            self.attempted[k] if k in bad_keys else self.failed.get(k, 0) for k in self.attempted
        )
        return sum(self.attempted.values()), failed, bad_keys


def run_cycle(ops, tally: Tally, tr=None, speed=None) -> list[int]:
    """One op after the other, each once; returns their latencies (ns).

    With a ``calibrate.Calibrated`` as *speed*, each op's latency and
    its wall time with the loop's bookkeeping go to it as well.
    """
    latencies: list[int] = []
    now = time.perf_counter_ns
    for op in ops:
        span = tr.begin("op") if tr is not None else -1
        t0 = now()
        try:
            answer, crashed = op.run(), False
        except Exception as exc:  # counted as a failed op, the loop goes on
            if op.key not in tally.failed:
                traceback.print_exc()
            answer, crashed = repr(exc), True
        latencies.append(now() - t0)
        if tr is not None:
            tr.finish(span)
        tally.record(op.key, answer, crashed)
        if speed is not None:
            speed.op_done(latencies[-1], now() - t0)
    return latencies


def run_loop(ops, seconds: float, min_ops: int, tally: Tally, speed) -> None:
    """Whole cycles of *ops* until *seconds* passed and *min_ops* ran.

    Latencies go to *speed*.  Only whole cycles are run, so every run
    holds the same op mix.
    """
    ran = 0
    start = time.perf_counter_ns()
    while time.perf_counter_ns() - start < seconds * 1e9 or ran < min_ops:
        ran += len(run_cycle(ops, tally, speed=speed))
    speed.flush()


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def pin_to_one_cpu() -> None:
    """Run this process, and the children it starts, on one CPU, so the
    calibration blocks run on the CPU the ops ran on."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def end_to_end(wl, seed: int, seconds: float, scale: str, plant: bool):
    from perfbench import calibrate

    pin_to_one_cpu()
    # Every time is scaled to reference time by calibration blocks run
    # around it (perfbench/calibrate.py); the raw wall times are kept in
    # the provenance.
    setups, raw_setups = [], []
    calibrate.speed()  # warm the block
    for _ in range(SETUP_REPEATS):
        before = calibrate.speed()
        start = time.perf_counter_ns()
        wl.setup(seed, None)
        took = time.perf_counter_ns() - start
        setups.append(took * calibrate.REFERENCE_NS / ((before + calibrate.speed()) / 2) / 1e9)
        raw_setups.append(took / 1e9)
    ops = wl.ops(None, in_process=False)
    tally = Tally()
    run_cycle(ops, tally)  # warm-up cycle: fills caches, fixes first answers
    speed = calibrate.Calibrated()
    run_loop(ops, seconds, MIN_OPS[scale], tally, speed)
    rss = peak_rss_mb(wl.child_rss)  # before the reference work and the statistics
    attempted, failed, bad = tally.verdict(ops, plant)
    metrics = {
        "latency_ms.p50": quantile_ms(speed.latencies, 5),
        "latency_ms.p90": quantile_ms(speed.latencies, 9),
        "ops_per_s": len(speed.latencies) / (speed.wall / 1e9),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss,
    }
    extra = {
        "samples": len(speed.latencies), "setup_runs_s": setups, "bad_keys": bad,
        # Calibration-block time of each speed measurement in the loop.
        "calibration": {
            "measurements": len(speed.blocks), "block_ms.p50": statistics.median(speed.blocks) / 1e6,
            "block_ms.min": min(speed.blocks) / 1e6, "block_ms.max": max(speed.blocks) / 1e6,
        },
        "wall_clock": {
            "latency_ms.p50": quantile_ms(speed.raw, 5), "latency_ms.p90": quantile_ms(speed.raw, 9),
            "ops_per_s": len(speed.raw) / (speed.raw_wall / 1e9), "setup_s": statistics.median(raw_setups),
        },
    }
    return attempted, failed, metrics, extra


def per_layer(wl, seed: int, seconds: float, scale: str, plant: bool, spans_out: Path):
    from perfbench.tracer import Tracer
    from perfbench.workloads import deep_growth, probe

    tr = Tracer()
    with tr.span("setup"):
        wl.setup(seed, tr)
    plain_ops, traced_ops = wl.ops(None, in_process=True), wl.ops(tr, in_process=True)
    tally = Tally()
    run_cycle(plain_ops, tally)
    # Untraced and traced cycles alternate, so drift in machine speed
    # does not show up as tracing overhead.
    untraced: list[int] = []
    traced: list[int] = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        untraced += run_cycle(plain_ops, tally)
        with wl.instrumented(tr), tr.span("loop"):
            traced += run_cycle(traced_ops, tally, tr)
    with tr.span("probe"):
        probe(tr, seed, ROOT, wl.workdir, scale)
    growth = deep_growth(scale)
    attempted, failed, bad = tally.verdict(plain_ops, plant)
    tr.write_csv(spans_out)
    metrics = layer_metrics(tr, growth)
    p50_plain, p50_traced = quantile_ms(untraced, 5), quantile_ms(traced, 5)
    metrics["trace.overhead_ms"] = p50_traced - p50_plain
    metrics["trace.overhead_pct"] = 100.0 * (p50_traced - p50_plain) / p50_plain
    extra = {"samples": len(untraced) + len(traced), "spans": len(tr.start), "bad_keys": bad}
    return attempted, failed, metrics, extra


def layer_metrics(tr, growth: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics from the spans: the loop's own calls where the
    workload makes them, else the set-up's, else the probe suite's."""
    phases = tr.by_phase()
    order = ("loop", "setup", "probe")

    def spans(name: str) -> list[int]:
        for phase in order:
            if phases[phase].get(name):
                return [duration for duration, _ in phases[phase][name]]
        raise KeyError(f"no span named {name}")

    def notes(key: str) -> list[float]:
        for phase in order:
            if tr.notes.get(f"{phase}:{key}"):
                return tr.notes[f"{phase}:{key}"]
        raise KeyError(f"no count named {key}")

    def median(name: str, scale: float) -> float:
        return statistics.median(spans(name)) / scale

    out = {
        "cli.startup_ms": median("cli.startup", 1e6),
        "cli.bridge_ms": median("cli.bridge", 1e6),
        "cli.islands_ms": median("cli.islands", 1e6),
        "cli.bridges_ms": median("cli.bridges", 1e6),
        "graph.parse_graph_ms": median("graph.parse_graph", 1e6),
        "graph.parse_graph_arcs_per_s": sum(notes("graph.parse_graph.arcs")) / (sum(spans("graph.parse_graph")) / 1e9),
        "graph.serialize_graph_ms": median("graph.serialize_graph", 1e6),
        "graph.add_edge_us": sum(spans("graph.add_edge")) / 1e3 / sum(notes("graph.add_edge.calls")),
        "islands.compute_islands_ms": median("islands.compute_islands", 1e6),
        "islands.same_island_ms": median("islands.same_island", 1e6),
        "bridges.bridge_exists.hit_ms": median("bridges.bridge_exists.hit", 1e6),
        "bridges.bridge_exists.miss_ms": median("bridges.bridge_exists.miss", 1e6),
        "bridges.bridge_exists.deep_ms": median("bridges.bridge_exists.deep", 1e6),
        "bridges.bridge_exists.onepass_us": median("bridges.bridge_exists.onepass", 1e3),
        "bridges.bridges_between_islands_ms": median("bridges.bridges_between_islands", 1e6),
        "bridges.bridges_between_islands.pairs": statistics.fmean(notes("bridges.bridges_between_islands.pairs")),
        "bridges.bridges_between_islands.found": statistics.fmean(notes("bridges.bridges_between_islands.found")),
        "bridges.validate_path_us": median("bridges.validate_path", 1e3),
        "bridges.report_to_jsonable_us": median("bridges.report_to_jsonable", 1e3),
        "bridges.bridge_exists_faithful.deep_ms": median("bridges.bridge_exists_faithful", 1e6),
        "bridges.deep_growth.frontier": growth["frontier"],
        "bridges.deep_growth.faithful": growth["faithful"],
        "bridges.passes": statistics.fmean(notes("bridges.passes")),
        "bridges.reached": statistics.fmean(notes("bridges.reached")),
        "oracle.random_graph_s": sum(spans("oracle.random_graph")) / 1e9,
        "oracle.brute_force_bridge_us": median("oracle.brute_force_bridge", 1e3),
    }
    # Self time: of each in-process ``main`` call for the CLI layer, and
    # per op for the others, from the first phase where the layer worked.
    for phase in ("loop", "probe"):
        mains = [own for name in ("cli.bridge", "cli.islands", "cli.bridges") for _, own in phases[phase].get(name, ())]
        if mains:
            out["cli.self_ms"] = statistics.fmean(mains) / 1e6
            break
    for layer in ("graph", "islands", "bridges", "oracle"):
        for phase in ("loop", "probe"):
            total = sum(own for name, pairs in phases[phase].items() if name.split(".")[0] == layer for _, own in pairs)
            if total > 0:
                out[f"{layer}.self_ms"] = total / 1e6 / len(phases[phase]["op"])
                break
    return out


def run(workload: str, seed: int, seconds: float, trace: bool, scale: str = "full", plant: bool = False) -> dict:
    """One run of one workload; returns the result object and a report."""
    from perfbench.workloads import WORKLOADS

    spec = load_spec()
    wanted = spec["per_layer" if trace else "end_to_end"]
    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = WORKLOADS[workload](scale, ROOT, workdir)
        spans_out = ROOT / ".perfbench_out" / f"{workload}-spans.csv"
        if trace:
            attempted, failed, metrics, extra = per_layer(wl, seed, seconds, scale, plant, spans_out)
        else:
            attempted, failed, metrics, extra = end_to_end(wl, seed, seconds, scale, plant)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    provenance = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace), "scale": scale,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "src_lines": src_lines(), "inputs": wl.provenance(),
        "error_ratio": failed / attempted, **extra,
    }
    return {"result": result, "provenance": provenance}


def print_report(out: dict) -> None:
    result, prov = out["result"], out["provenance"]
    print("provenance " + json.dumps(prov, sort_keys=True))
    for name, metric in result["metrics"].items():
        print(f"  {name:<42} {metric['value']:>14.6g} {metric['unit']}")
    print(f"  {'error_ratio':<42} {prov['error_ratio']:>14.6g} ({result['failed']}/{result['attempted']} ops failed)")
    print(json.dumps(result))


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each in a fresh interpreter."""
    from perfbench.workloads import WORKLOADS

    status = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True,
            )
            lines = proc.stdout.splitlines()
            print(f"== {workload} --trace {trace} (exit {proc.returncode})")
            print("\n".join(line for line in lines if line.startswith("  ")))
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                status = 1
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="length of the timed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_package()
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    print_report(run(args.workload, args.seed, args.seconds, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
