"""ncfree benchmark: one seeded workload per run, closed loop, one caller.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload freeness-sweep --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing; every op runs
in each of the workload's passes and its latency is the best of them.
``--trace 1`` runs the same loop untraced for half of ``--seconds``, one
pass, then replays exactly the same ops with a span wrapper around every
public layer function and reports the per-layer metrics, including the
tracing overhead.  Every op's output is checked against an independent
route after the timed loop.  Human-readable lines go
first; the last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The full record, with the
environment and the workload properties, is written under
``perfbench/results/``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}
TRACED_LAYERS = (
    "model.tau_word", "model.z_moment", "model.centering_moment",
    "ratmat.product_trace", "ncpart.moments_to_cumulants",
    "freeprob.mixed_cumulant", "freeprob.FreeProduct.moment",
    "rmt.estimate_words", "factors",
)
PER_LAYER = {
    **{f"{layer}.{kind}": unit for layer in TRACED_LAYERS
       for kind, unit in (("calls", "count"), ("self_s", "s"))},
    "model.tau_word.repeat_frac": "ratio",
    "ncpart.partitions_computed": "count",
    "rmt.linalg_qr_s": "s",
    "rmt.linalg_svd_s": "s",
    "cli.interp_ms": "ms",
    "cli.import_ms": "ms",
    "cli.exec_ms": "ms",
    "trace_overhead_frac": "ratio",
    "workload.unique_words_per_batch": "count",
    "workload.gen_letters_mean": "count",
}


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def cap_blas_threads() -> int:
    """Cap BLAS and OpenMP threads at nproc; must run before numpy loads."""
    cap = nproc()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            current = int(os.environ.get(var, ""))
        except ValueError:
            current = 0
        if not 0 < current <= cap:
            os.environ[var] = str(cap)
    return cap


def git_commit(root: Path):
    """Commit of a git checkout, read from .git without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def blas_info():
    import numpy
    deps = numpy.show_config(mode="dicts")["Build Dependencies"]
    return {k: deps[k] for k in ("blas", "lapack") if k in deps}


def environment(seed: int, blas_threads: int) -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None
    return {"nproc": nproc(), "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy"),
            "blas": blas_info(), "blas_threads": blas_threads,
            "commit": git_commit(ROOT), "seed": seed,
            "machine": platform.machine()}


# ---------------------------------------------------------------------------
# measurement


def setup_time(args) -> float:
    """Process start to ready, for a fresh process doing only the set-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0",
           "--size", args.size, "--setup-probe"]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        t1 = time.perf_counter()
        proc.stdout.read()
        code = proc.wait()
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe failed with exit code {code}")
    return t1 - t0


def closed_loop(wl, seconds: float, passes: int, pause=None, pauses: int = 0):
    """Run ops one at a time until they took `seconds`; each op `passes` times.

    The first pass runs fresh rounds until it took 1/passes of the time; it
    may stop inside a round (a round's seeded order keeps the class shares
    of a whole one in every prefix).  Each later pass replays the same ops
    in the same order from the same cold start (`start_pass`, and
    `start_round` at each round), so one op's runs lie a whole pass apart.
    An op's latency is the best of its runs: on a shared host the CPU's
    speed changes by up to about 1.8x for seconds at a time, and the best of
    runs that far apart is the op's cost while the host is fast.  An op
    whose runs return different outputs counts as failed.  Round
    generation, `start_pass` and `start_round` are not timed.  `pause` is
    called `pauses` times between ops, spread evenly over the busy time and
    outside it, so that what it measures sees the host in the same states
    as the ops do.

    Returns the ops, their first outputs, whether every run agreed, the
    best latency of each op and the total busy time.
    """
    from workloads import Failed
    ops, outputs, best = [], [], []
    busy = 0.0
    paused = 0

    def timed(op):
        nonlocal busy, paused
        if paused < pauses and busy >= paused * seconds / pauses:
            pause()
            paused += 1
        t0 = time.perf_counter()
        try:
            out = wl.run(op)
        except Exception as exc:  # an op that raises counts as failed
            out = Failed(exc)
        dt = time.perf_counter() - t0
        busy += dt
        return out, dt

    wl.start_pass()
    r = 0
    while busy < seconds / passes:
        batch = wl.round(r)
        wl.start_round(r)
        r += 1
        for op in batch:
            out, dt = timed(op)
            ops.append(op)
            outputs.append(out)
            best.append(dt)
            if busy >= seconds / passes:
                break
    agreed = [True] * len(ops)
    for _ in range(1, passes):
        wl.start_pass()
        for i, op in enumerate(ops):
            if i == 0 or op.round != ops[i - 1].round:
                wl.start_round(op.round)
            out, dt = timed(op)
            best[i] = min(best[i], dt)
            agreed[i] = agreed[i] and out == outputs[i]
    for _ in range(paused, pauses):
        pause()
    return ops, outputs, agreed, best, busy


def traced_replay(wl, ops):
    """Replay the ops once with every layer wrapped; returns outputs,
    latencies and the tracer."""
    from spans import Tracer
    from workloads import Failed
    tracer = Tracer()
    tracer.install()
    op_name = tracer.name_id("bench.op")
    outputs, latencies = [], []
    wl.start_pass()
    for i, op in enumerate(ops):
        if i == 0 or op.round != ops[i - 1].round:
            wl.start_round(op.round)
        tracer.op_id = i
        t0 = time.perf_counter()
        idx = tracer.open(op_name, t0)
        try:
            out = wl.run(op, tracer)
        except Exception as exc:
            out = Failed(exc)
        t1 = time.perf_counter()
        tracer.close(idx, t1)
        outputs.append(out)
        latencies.append(t1 - t0)
    return outputs, latencies, tracer


def calibration_ms() -> float:
    """Median time of a fixed pure-Python loop: the machine's speed right now.

    Recorded next to the metrics so that a run on a slowed-down machine can
    be told apart from a slower program; it is not a metric.
    """
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(percentile, value, samples beyond) of the highest percentile with
    ten samples beyond it; the maximum when there are too few samples."""
    s = sorted(latencies)
    n = len(s)
    if n <= 10:
        return 100.0, s[-1], 0
    return 100.0 * (n - 10) / n, s[n - 11], 10


def properties(ops) -> dict:
    """Workload properties later changes cite: letters per word, reuse."""
    hist = Counter()
    per_round: dict[int, set] = {}
    for op in ops:
        for word in op.words:
            hist[sum(1 for letter in word if letter.is_z)] += 1
            per_round.setdefault(op.round, set()).add(word)
    words = sum(hist.values())
    return {
        "gen_letters_hist": {str(k): hist[k] for k in sorted(hist)},
        "gen_letters_mean": (sum(k * v for k, v in hist.items()) / words
                             if words else 0.0),
        "words": words,
        "rounds": len({op.round for op in ops}),
        "unique_words_per_batch": (statistics.mean(len(v) for v in per_round.values())
                                   if per_round else 0.0),
    }


def layer_metrics(tracer, untraced_s: float, traced_s: float, props: dict) -> dict:
    totals = tracer.layer_totals()
    out = {}
    for layer in TRACED_LAYERS:
        calls, self_s = totals.get(layer, (0, 0.0))
        out[f"{layer}.calls"] = calls
        out[f"{layer}.self_s"] = self_s
    tau_calls = out["model.tau_word.calls"]
    out["model.tau_word.repeat_frac"] = (tracer.tau_repeats / tau_calls
                                         if tau_calls else 0.0)
    out["ncpart.partitions_computed"] = tracer.partitions_computed
    out["rmt.linalg_qr_s"] = totals.get("rmt.linalg_qr", (0, 0.0))[1]
    out["rmt.linalg_svd_s"] = totals.get("rmt.linalg_svd", (0, 0.0))[1]
    for phase in ("interp", "import", "exec"):
        spans = tracer.durations(f"cli.{phase}")
        out[f"cli.{phase}_ms"] = statistics.median(spans) * 1e3 if spans else 0.0
    out["trace_overhead_frac"] = (traced_s - untraced_s) / untraced_s
    out["workload.unique_words_per_batch"] = props["unique_words_per_batch"]
    out["workload.gen_letters_mean"] = props["gen_letters_mean"]
    return out


# ---------------------------------------------------------------------------
# entry point


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("freeness-sweep", "mc-trials", "cli-ops"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny shrinks every input, for the smoke test")
    p.add_argument("--setup-probe", action="store_true",
                   help="do the set-up only, print 'ready' and exit")
    return p.parse_args(argv)


def end_to_end(setups, ops, latencies, peak_rss_mb, record) -> dict:
    pct, tail_s, beyond = tail(latencies)
    record.update(setup_samples_s=setups, samples=len(latencies),
                  tail_percentile=pct, tail_samples_beyond=beyond)
    by_class: dict[str, list] = {}
    for op, lat in zip(ops, latencies):
        by_class.setdefault(op.label or op.kind, []).append(lat)
    record["latency_by_class_ms"] = {
        k: {"samples": len(v), "p50": statistics.median(v) * 1e3,
            "max": max(v) * 1e3} for k, v in sorted(by_class.items())}
    return {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(ops) / sum(latencies),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_tail_ms": tail_s * 1e3,
        "peak_rss_mb": peak_rss_mb,
    }


def print_report(record, metrics, units, failed) -> None:
    print(f"workload {record['workload']}  seed {record['seed']}  size {record['size']}  "
          f"trace {record['trace']}: {record['ops']} ops in {record['rounds']} rounds, "
          f"{record['passes']} passes, {record['busy_s']:.2f} s busy "
          f"(closed loop, one caller)")
    notes = {"setup_s": "  (median of {n} set-ups)",
             "ops_per_s": "  (ops over the sum of their best latencies)",
             "op_p50_ms": "  ({samples} ops, each the best of {passes} runs)",
             "op_tail_ms": "  (p{pct:.2f}, {beyond} samples beyond, {samples} samples)"}
    for name, value in metrics.items():
        note = notes.get(name, "").format(
            n=len(record.get("setup_samples_s", ())), samples=record.get("samples"),
            passes=record["passes"],
            pct=record.get("tail_percentile", 0.0), beyond=record.get("tail_samples_beyond"))
        print(f"  {name:<36} {value:>14.6g} {units[name]}{note}")
    print(f"  {'fail_frac':<36} {record['fail_frac']:>14.6g} ratio"
          f"  ({failed} of {record['ops']} ops failed)")
    props = record["properties"]
    print(f"  property gen_letters_hist {props['gen_letters_hist']}")
    print(f"  property unique_words_per_batch {props['unique_words_per_batch']:.1f}")
    env = record["environment"]
    print(f"  env nproc={env['nproc']} python={env['python']} numpy={env['numpy']} "
          f"scipy={env['scipy']} blas_threads={env['blas_threads']} "
          f"commit={env['commit']}")


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "ncfree" / "__init__.py").is_file():
        print(f"error: no ncfree sources under {src}", file=sys.stderr)
        return 2
    blas_threads = cap_blas_threads()
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed, args.size)
    if args.setup_probe:
        wl.setup()
        print("ready", flush=True)
        return 0

    wl.setup()
    calibration = [calibration_ms()]
    setups: list[float] = []
    # the traced run's untraced loop is one pass, like its traced replay, and
    # takes half the time, so that both together take about --seconds
    passes = 1 if args.trace else wl.passes
    seconds = args.seconds / 2 if args.trace else args.seconds
    ops, outputs, agreed, latencies, busy = closed_loop(
        wl, seconds, passes, lambda: setups.append(setup_time(args)),
        0 if args.trace else wl.setup_probes)
    calibration.append(calibration_ms())
    peak_rss_mb = wl.peak_rss_kb() / 1024
    ok = [good and same for good, same in zip(wl.check(ops, outputs), agreed)]
    props = properties(ops)

    results = HERE / "results"
    results.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "size": args.size,
              "seconds": args.seconds, "trace": args.trace,
              "loop": "closed, one caller, one process",
              "rounds": props["rounds"], "ops": len(ops), "passes": passes,
              "busy_s": busy,
              "calibration_ms_before_after": calibration}
    if args.trace:
        traced, traced_lat, tracer = traced_replay(wl, ops)
        mismatched = [a != b for a, b in zip(outputs, traced)]
        ok = [good and not bad for good, bad in zip(ok, mismatched)]
        metrics = layer_metrics(tracer, sum(latencies), sum(traced_lat), props)
        units = PER_LAYER
        record.update(traced_wall_s=sum(traced_lat), untraced_wall_s=sum(latencies),
                      traced_mismatches=sum(mismatched))
        tracer.write(results / f"{args.workload}.spans.json.gz")
    else:
        metrics = end_to_end(setups, ops, latencies, peak_rss_mb, record)
        units = END_TO_END
    failed = ok.count(False)
    record["fail_frac"] = failed / len(ops)
    record["properties"] = props
    record["environment"] = environment(args.seed, blas_threads)
    record["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    (results / f"{args.workload}.trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True, default=str))

    print_report(record, metrics, units, failed)
    print(json.dumps({"correct": failed == 0, "attempted": len(ops),
                      "failed": failed, "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
