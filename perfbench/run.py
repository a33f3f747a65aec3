"""sa2net benchmark: one workload per process, timed or traced.

    python3 perfbench/run.py --workload train64 --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 40 --trace 0

With ``--trace 0`` the run is untraced and reports the end-to-end metrics.
With ``--trace 1`` it measures half the time untraced, then installs the
span recorder and measures the other half, and reports per-layer metrics
plus the tracing overhead (traced minus untraced end-to-end numbers).
A human-readable report comes first; the last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.
Scratch files go to ``.bench_work/`` at the root of the checkout.
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
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
WORKLOADS = ("train64", "infer64", "verify-f64")
SETUP_REPEATS = 3
BLAS_THREADS = "1"
_BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "op_ms.p50": "ms",
    "op_ms.p75": "ms",
    "items_per_s": "1/s",
}

# Layer metrics every workload exercises, so never 0 on any workload
# (infer64 runs no backward; avgpool2d and reduce serve only the losses and
# gradcheck).  The traced report prints the full per-layer breakdown.
_FWD_EVERYWHERE = ("conv2d_1x1", "conv2d_3x3", "conv2d_3x3s2", "dwconv2d",
                   "bilinear_resize", "layernorm_c", "gelu", "sigmoid",
                   "concat_c", "split_c", "elementwise")
_BLOCKS = ("local_scale_attention", "global_scale_attention", "mlp_block",
           "scale_aware_attention.self", "adaptive_up_attention")


def _per_layer_units():
    units = {f"tensor.{op}.calls": "count" for op in _FWD_EVERYWHERE}
    units.update({f"tensor.{op}.fwd_ms": "ms" for op in _FWD_EVERYWHERE})
    for k in ("conv2d", "dwconv2d"):
        units[f"tensor.{k}.gflop"] = "GFLOP"
        units[f"tensor.{k}.mbytes"] = "MB"
        units[f"tensor.{k}.gflop_per_s"] = "GFLOP/s"
    units.update({f"blocks.{b}.fwd_ms": "ms" for b in _BLOCKS})
    units["model.encoder.fwd_ms"] = "ms"
    units["model.heads.fwd_ms"] = "ms"
    return units


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def percentile(values, p: float) -> float:
    import numpy as np
    return float(np.percentile(np.asarray(values, dtype=float), p))


def tail_percentile(n: int):
    """Highest reported percentile with at least ten samples beyond it."""
    for p in (99, 95, 90, 75):
        if n * (1 - p / 100) >= 10:
            return p
    return None


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------


def provenance() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (TypeError, KeyError, AttributeError):
        blas_name = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fp:
            for line in fp:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=30)
            if done.returncode == 0:
                commit = done.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    src_lines = 0
    for path in sorted((ROOT / "src").rglob("*.py")):
        with open(path, "rb") as fp:
            src_lines += sum(1 for _ in fp)
    return {
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "git_commit": commit,
        "src_lines": src_lines,
    }


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def end_to_end(outcome, setup_times) -> dict:
    return {
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "op_ms.p50": percentile(outcome.op_ms, 50),
        "op_ms.p75": percentile(outcome.op_ms, 75),
        "items_per_s": outcome.items / outcome.busy_s,
    }


def layer_metrics(summary, rec, units: int) -> dict:
    """Every per-layer number of the traced loop, per loop unit."""
    import numpy as np
    from sa2net.gradcheck import CHECKS
    from spans import OPS

    loop = summary.cols["request"] >= 0
    per = 1.0 / max(units, 1)
    ms = 1e3 * per
    m = {}
    for op in OPS:
        m[f"tensor.{op}.calls"] = summary.calls(f"tensor.{op}.fwd", loop) * per
        m[f"tensor.{op}.fwd_ms"] = summary.total(f"tensor.{op}.fwd", loop) * ms
        m[f"tensor.{op}.bwd_ms"] = summary.total(f"tensor.{op}.bwd", loop) * ms
    m["tensor.backward.ms"] = summary.total("tensor.backward", loop) * ms
    m["tensor.backward.self_ms"] = \
        summary.self_total("tensor.backward", loop) * ms
    bwd_names = [i for i, s in enumerate(summary.names) if s.endswith(".bwd")]
    m["tensor.backward.nodes"] = \
        int((np.isin(summary.cols["name"], bwd_names) & loop).sum()) * per
    m["tensor.backward.peak_mb"] = rec.backward_peak_rss / 2 ** 20
    for k, prefix in (("conv2d", "tensor.conv2d_"), ("dwconv2d", "tensor.dwconv2d")):
        busy = sum(summary.total(s, loop) for s in summary.names
                   if s.startswith(prefix))
        m[f"tensor.{k}.gflop"] = rec.flops[k] * per / 1e9
        m[f"tensor.{k}.mbytes"] = rec.nbytes[k] * per / 1e6
        m[f"tensor.{k}.gflop_per_s"] = rec.flops[k] / busy / 1e9 if busy else 0.0
    for b in ("local_scale_attention", "global_scale_attention", "mlp_block",
              "adaptive_up_attention"):
        name = f"blocks.{b}"
        m[f"{name}.fwd_ms"] = summary.total(name, loop) * ms
        m[f"{name}.bwd_ms"] = summary.tagged_total(".bwd", {name}, loop) * ms
    sa2 = "blocks.scale_aware_attention"
    m[f"{sa2}.self.fwd_ms"] = summary.outside_blocks_total(sa2, loop) * ms
    m[f"{sa2}.self.bwd_ms"] = summary.tagged_total(".bwd", {sa2}, loop) * ms
    m["model.encoder.fwd_ms"] = summary.total("model.encoder", loop) * ms
    m["model.encoder.bwd_ms"] = \
        summary.tagged_total(".bwd", {"model.encoder"}, loop) * ms
    m["model.heads.fwd_ms"] = \
        summary.outside_blocks_total("model.model_forward", loop) * ms
    m["model.heads.bwd_ms"] = \
        summary.tagged_total(".bwd", {"model.model_forward"}, loop) * ms
    for f in ("load_checkpoint", "save_checkpoint", "checkpoint_fingerprint"):
        m[f"model.{f}.ms"] = summary.total(f"model.{f}", loop) * ms
    m["losses.total_loss.fwd_ms"] = summary.total("losses.total_loss", loop) * ms
    m["losses.total_loss.bwd_ms"] = summary.tagged_total(
        ".bwd", {"losses.total_loss", "losses.weight_map"}, loop) * ms
    m["losses.weight_map.ms"] = summary.total("losses.weight_map", loop) * ms
    m["optim.adam_step.ms"] = summary.total("optim.adam_step", loop) * ms
    for f in ("gen_sample", "load_dataset", "write_pgm"):
        m[f"data.{f}.ms"] = summary.total(f"data.{f}", loop) * ms
    m["metrics.scores.ms"] = (summary.total("metrics.dice_score", loop)
                              + summary.total("metrics.iou_score", loop)) * ms
    for f in ("ensemble_mean", "threshold_mask"):
        m[f"metrics.{f}.ms"] = summary.total(f"metrics.{f}", loop) * ms
    for name in CHECKS:
        m[f"gradcheck.{name}.ms"] = summary.total(f"gradcheck.{name}", loop) * ms
    return m


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)


def print_end_to_end(title, values, outcome, setup_times) -> None:
    print(f"{title}  (op = {outcome.op}; item = {outcome.item})")
    print(f"  {'metric':34} {'unit':10} {'n':>6} {'median':>12}  tail")
    rows = [("setup_s", "s", setup_times),
            ("peak_rss_mb", "MB", [values["peak_rss_mb"]]),
            ("op_ms", "ms", outcome.op_ms),
            ("items_per_s", "1/s", None)]
    rows += [(name, unit, samples)
             for name, (unit, samples) in outcome.named.items()]
    for name, unit, samples in rows:
        if samples is None:
            print(f"  {name:34} {unit:10} {outcome.items:>6} "
                  f"{_fmt(values[name]):>12}  over {outcome.busy_s:.3f} s busy")
            continue
        p = tail_percentile(len(samples))
        tail = f"p{p} {percentile(samples, p):.6g}" if p else "-"
        print(f"  {name:34} {unit:10} {len(samples):>6} "
              f"{_fmt(statistics.median(samples)):>12}  {tail}")
    print(f"  fail_ratio {outcome.failed}/{outcome.attempted} "
          f"(operations failing their output check / operations run)")


def print_layers(layer, unit, setup_spans, overhead) -> None:
    print(f"per-layer, traced loop, per {unit}")
    for name, value in layer.items():
        label = " (computed)" if name.endswith((".gflop", ".mbytes")) else ""
        print(f"  {name:52} {_fmt(value)}{label}")
    print("traced set-up pass (ms, calls)")
    for name, (total, calls) in setup_spans.items():
        print(f"  {name:52} {total:.6g} ({calls})")
    print("tracing overhead (traced - untraced)")
    for name, (traced, untraced) in overhead.items():
        print(f"  {name:52} {traced - untraced:+.6g} "
              f"({traced:.6g} vs {untraced:.6g}, "
              f"{100 * (traced - untraced) / untraced:+.1f}%)")


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def run_one(name: str, seed: int, seconds: int, trace: bool) -> dict:
    from workloads import WORKLOADS as IMPLS
    from spans import Recorder

    workload = IMPLS[name]
    work = WORK / f"run-{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        setup_times = []
        for i in range(SETUP_REPEATS):
            target = work / f"setup{i}"
            target.mkdir(parents=True)
            t0 = time.perf_counter()
            state = workload.setup(seed, target)
            setup_times.append(time.perf_counter() - t0)
        budget = seconds / 2 if trace else seconds
        outcome = workload.run(state, budget)
        e2e = end_to_end(outcome, setup_times)
        print(f"# sa2net benchmark  workload={name} seed={seed} "
              f"seconds={seconds} trace={int(trace)}")
        prov = provenance()
        print(f"provenance {json.dumps(prov)}")
        print_end_to_end("end-to-end, untraced", e2e, outcome, setup_times)
        result = {"provenance": prov, "end_to_end": e2e,
                  "attempted": outcome.attempted, "failed": outcome.failed,
                  "problems": list(outcome.problems)}
        if trace:
            rec = Recorder()
            with rec.installed():
                (work / "traced-setup").mkdir()
                workload.setup(seed, work / "traced-setup")
                rec.reset_counters()
                traced = workload.run(state, seconds - budget, rec)
            summary = rec.summary()
            if name == "train64":
                workload.structure_check(summary, traced)
            layer = layer_metrics(summary, rec, traced.units)
            traced_e2e = end_to_end(traced, setup_times)
            print_end_to_end("end-to-end, traced", traced_e2e, traced,
                             setup_times)
            overhead = {k: (traced_e2e[k], e2e[k])
                        for k in ("op_ms.p50", "op_ms.p75", "items_per_s")}
            pre = summary.cols["request"] < 0
            setup_spans = {
                s: (summary.total(s, pre) * 1e3, summary.calls(s, pre))
                for s in summary.names if summary.calls(s, pre)}
            print_layers(layer, traced.unit, setup_spans, overhead)
            traces = WORK / "traces"
            traces.mkdir(parents=True, exist_ok=True)
            rec.save(traces / f"{name}-seed{seed}.npz")
            result.update(per_layer=layer, traced_units=traced.units,
                          tracing_overhead=overhead)
            result["attempted"] += traced.attempted
            result["failed"] += traced.failed
            result["problems"] += traced.problems
        for problem in result["problems"]:
            print(f"FAILED: {problem}")
        results = WORK / "results"
        results.mkdir(parents=True, exist_ok=True)
        with open(results / f"{name}-seed{seed}-trace{int(trace)}.json",
                  "w") as fp:
            json.dump(result, fp, indent=1)
        units = _per_layer_units() if trace else END_TO_END
        values = result["per_layer"] if trace else e2e
        return {
            "correct": result["failed"] == 0,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: {"value": values[k], "unit": u}
                        for k, u in units.items()},
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run_all(seed: int, seconds: int, trace: bool) -> dict:
    """Each workload in its own process, so peak RSS is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            stdout=subprocess.PIPE, text=True, timeout=20 * seconds + 900)
        lines = done.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        if done.returncode != 0:
            raise SystemExit(f"{name} exited {done.returncode}")
        part = json.loads(lines[-1])
        combined["correct"] &= part["correct"]
        combined["attempted"] += part["attempted"]
        combined["failed"] += part["failed"]
        for k, v in part["metrics"].items():
            combined["metrics"][f"{name}/{k}"] = v
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "sa2net").is_dir():
        print(f"error: no sa2net sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    # one BLAS thread: a closed loop from one process, and steadier figures
    # on a shared machine; must be set before numpy loads
    for var in _BLAS_ENV:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, bool(args.trace))
    else:
        result = run_one(args.workload, args.seed, args.seconds,
                         bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
