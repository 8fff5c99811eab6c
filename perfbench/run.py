"""twistgrip benchmark: three seeded closed-loop workloads, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload tactile-dense --seed 1 --seconds 20 --trace 0

`--trace 0` measures the end-to-end metrics with tracing off. `--trace 1` is
the separate traced run: the named workload alternates untraced and traced
cycles for half the time (the difference is the tracing overhead), then the
other two workloads run traced for a quarter each, at least one full cycle,
so every layer metric comes out of every traced run. The last stdout line is
the JSON result; the lines before it are the environment and a readable table.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

from inputs import CLI_KINDS
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 5

def _median_ms(values_ns):
    return statistics.median(values_ns) / 1e6


class Loop:
    """Closed loop over whole cycles of one workload; one client, so ops never overlap."""

    def __init__(self, workload, state, tracer):
        self.workload, self.state, self.tracer = workload, state, tracer
        self.n = 0
        self.records = []  # (latency_ns, traced, passed, counts, op_id)

    def run(self, seconds, mode, between_cycles=None):
        """mode 'off' or 'on' traces no cycle or every cycle; 'alternate' traces odd cycles.

        between_cycles, if given, is called after each cycle, outside every op's timing.
        """
        wl, tr = self.workload, self.tracer
        deadline = time.perf_counter() + seconds
        cycle = 0
        while True:
            tr.enabled = mode == "on" or (mode == "alternate" and cycle % 2 == 1)
            if tr.enabled and hasattr(wl, "probe"):
                wl.probe(self.state, tr)
            for _ in range(wl.cycle_len):
                tr.op_id += 1
                start = time.perf_counter_ns()
                try:
                    result = tr.call(f"op.{wl.name}", wl.run_op, self.state, self.n, tr)
                    latency = time.perf_counter_ns() - start
                    passed, counts = wl.check(self.state, self.n, result)
                except Exception:  # an op that raises counts as failed; keep measuring
                    latency = time.perf_counter_ns() - start
                    traceback.print_exc()
                    passed, counts = False, {}
                self.records.append((latency, tr.enabled, passed, counts, tr.op_id))
                self.n += 1
            cycle += 1
            if between_cycles:
                between_cycles()
            if time.perf_counter() >= deadline and (mode != "alternate" or cycle >= 2):
                break
        tr.enabled = False
        return self


def tail(latencies_ns):
    """Highest order statistic with at least ten samples beyond it: (ms, percentile).

    Below 21 samples that statistic would sit under the median, so the maximum is used.
    """
    ordered = sorted(latencies_ns)
    k = len(ordered) - 11 if len(ordered) >= 21 else len(ordered) - 1
    percentile = 100.0 * k / (len(ordered) - 1) if len(ordered) > 1 else 100.0
    return ordered[k] / 1e6, percentile


def timed_run(workload_name, seed, seconds, size, work):
    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name]
    setup_s = []

    def setup():
        start = time.perf_counter()
        state = workload.setup(seed, size, work)
        setup_s.append(time.perf_counter() - start)
        return state

    # Set-up is repeated between cycles, so its median samples the same machine
    # conditions as the ops; every repeat builds identical inputs.
    loop = Loop(workload, setup(), Tracer()).run(seconds, "off", between_cycles=setup)
    while len(setup_s) < SETUP_REPEATS:
        setup()
    latencies = [rec[0] for rec in loop.records]
    tail_ms, tail_pct = tail(latencies)
    who = resource.RUSAGE_CHILDREN if workload.name == "cli-session" else resource.RUSAGE_SELF
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "op_p50_ms": (_median_ms(latencies), "ms"),
        "op_tail_ms": (tail_ms, "ms"),
        "ops_per_s": (len(latencies) / (sum(latencies) / 1e9), "1/s"),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024.0, "MB"),
    }
    info = {"op_tail_percentile": round(tail_pct, 1), "op_samples": len(latencies)}
    if workload.name == "tactile-dense":
        hits = sum(rec[3].get("hits", 0) for rec in loop.records)
        visible = sum(rec[3].get("visible", 0) for rec in loop.records)
        info["marker_recall"] = hits / visible if visible else 0.0
    return loop.records, metrics, info


def _mean(records, key):
    values = [rec[3][key] for rec in records if key in rec[3]]
    return sum(values) / len(values)


def layer_metrics(tracer, loops):
    """Per-layer metrics from span self times plus the counts the checks returned."""
    self_ns = tracer.self_times_ns()
    traced = [rec for loop in loops.values() for rec in loop.records if rec[1]]
    counts_of = {rec[4]: rec[3] for rec in traced}
    tac = [rec for rec in loops["tactile-dense"].records if rec[1]]
    pay = [rec for rec in loops["payload-report"].records if rec[1]]
    m = {}

    for stage in ("render", "binarize", "detect", "track", "summarize"):
        m[f"tactile.{stage}_ms"] = (_median_ms(self_ns[f"tactile.{stage}"]), "ms")
    m["tactile.markers_detected"] = (_mean(tac, "detected"), "count")
    m["tactile.markers_merged"] = (_mean(tac, "merged"), "count")
    m["tactile.matches"] = (_mean(tac, "matches"), "count")
    m["tactile.unmatched"] = (_mean(tac, "unmatched"), "count")
    m["tactile.match_ratio"] = (_mean(tac, "match_ratio"), "ratio")
    m["tactile.marker_recall"] = (
        sum(r[3].get("hits", 0) for r in tac) / max(sum(r[3].get("visible", 0) for r in tac), 1),
        "ratio")
    # Per-pixel stages: every frame goes through render, binarize and detect once.
    pixel_ns = sum(sum(self_ns[f"tactile.{s}"]) for s in ("render", "binarize", "detect"))
    pixels = sum(r[3].get("pixels", 0) for r in tac)
    m["tactile.pixels_per_s"] = (pixels / (pixel_ns / 1e9), "px/s")

    for n in (20, 200, 2000):
        m[f"spring.fit_ms.n{n}"] = (_median_ms(self_ns[f"spring.fit.n{n}"]), "ms")
    predict_spans = [span for span in tracer.spans if span.name == "spring.predict"]
    predict_us = [ns / 1e3 / counts_of[span.op]["n"]
                  for span, ns in zip(predict_spans, self_ns["spring.predict"])
                  if "n" in counts_of[span.op]]
    m["spring.predict_us"] = (statistics.median(predict_us), "us")
    m["spring.degenerate_count"] = (sum(r[3].get("degenerate", 0) for r in pay), "count")
    m["expio.csv_write_ms"] = (_median_ms(self_ns["expio.csv_write"]), "ms")
    m["expio.csv_read_ms"] = (_median_ms(self_ns["expio.csv_read"]), "ms")
    m["expio.plot_ms"] = (_median_ms(self_ns["expio.plot"]), "ms")
    m["expio.report_write_ms"] = (_median_ms(self_ns["expio.report_write"]), "ms")
    m["expio.bytes_written"] = (_mean(pay, "bytes_written"), "B")
    m["pressure.closed_form_us"] = (_median_ms(self_ns["pressure.closed_form"]) * 1e3, "us")
    m["pressure.quadrature_warm_us"] = (
        _median_ms(self_ns["pressure.quadrature_warm"]) * 1e3, "us")
    m["pressure.quadrature_cold_ms"] = (_median_ms(self_ns["pressure.quadrature_cold"]), "ms")
    m["pressure.quad_rel_gap"] = (_mean(pay, "quad_rel_gap"), "ratio")
    m["grasp.validate_ms"] = (_median_ms(self_ns["grasp.validate"]), "ms")
    m["grasp.rows_agree"] = (_mean(pay, "rows_agree"), "count")

    interpreter_ms = _median_ms(self_ns["cli.interpreter"])
    m["cli.interpreter_ms"] = (interpreter_ms, "ms")
    m["cli.import_ms"] = (_median_ms(self_ns["cli.import"]) - interpreter_ms, "ms")
    for kind in CLI_KINDS:
        m[f"cli.{kind}_ms"] = (_median_ms(self_ns[f"cli.{kind}"]), "ms")
    return m


def traced_run(workload_name, seed, seconds, size, work):
    from workloads import WORKLOADS

    tracer = Tracer()
    states = {name: wl.setup(seed, size, work / name) for name, wl in WORKLOADS.items()}
    loops = {name: Loop(wl, states[name], tracer) for name, wl in WORKLOADS.items()}
    loops[workload_name].run(seconds / 2.0, "alternate")
    for name in WORKLOADS:
        if name != workload_name:
            loops[name].run(seconds / 4.0, "on")

    own = loops[workload_name].records
    untraced_ms = _median_ms([rec[0] for rec in own if not rec[1]])
    traced_ms = _median_ms([rec[0] for rec in own if rec[1]])
    m = layer_metrics(tracer, loops)
    m["trace.overhead_ms"] = (traced_ms - untraced_ms, "ms")
    m["trace.overhead_frac"] = ((traced_ms - untraced_ms) / untraced_ms, "ratio")
    records = [rec for loop in loops.values() for rec in loop.records]
    tracer.write(OUT / f"spans-{workload_name}-seed{seed}.jsonl")
    info = {"untraced_op_p50_ms": untraced_ms, "traced_op_p50_ms": traced_ms}
    return records, m, info


def _git_commit():
    """Commit of the checkout from .git, read without running git; 'unknown' outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment():
    import numpy
    import scipy

    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((SRC / "twistgrip").rglob("*.py")))
    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(), "src_lines": src_lines,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("tactile-dense", "payload-report", "cli-session"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks the tactile grid and input counts (smoke test)")
    args = parser.parse_args(argv)

    if not (SRC / "twistgrip" / "__init__.py").is_file():
        print(f"error: no twistgrip sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import twistgrip
    if Path(twistgrip.__file__).resolve().parent != SRC / "twistgrip":
        print(f"error: imported twistgrip from {twistgrip.__file__}, not {SRC}", file=sys.stderr)
        return 2

    work = OUT / f"work-{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        run = traced_run if args.trace else timed_run
        records, metrics, info = run(args.workload, args.seed, args.seconds, args.size, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(1 for rec in records if not rec[2])
    info["ops_failed_frac"] = failed / len(records)
    env = environment()
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                    "size": args.size, "environment": env, "info": info, **result},
                   indent=2) + "\n", encoding="utf-8")
    print(json.dumps({"environment": env}))
    print(json.dumps({"info": info}))
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:>15}  {name:<32} {value:>14.6g} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
