"""peftlab benchmark: one seeded workload, end-to-end or per-layer metrics.

  python3 bench/run.py --workload {train,eval-merge,analyze} --seed N --seconds S --trace {0,1}

Runs from the root of a source checkout (it imports ./src/peftlab).  The load
is a closed loop of fixed-size units in this one process, on one BLAS
thread.  Every unit is set up afresh (timed as setup_s) and its outputs are
checked.  A reference kernel runs on a timer all through the units, and the
end-to-end metrics are the timings scaled to the reference speed (speed.py);
the run prints the measured ones beside them.  Human-readable lines go to
stdout, the full record (samples, percentiles, machine, provenance) to
bench/out/, and the last stdout line is one JSON object: {"correct",
"attempted", "failed", "metrics"}.  With --trace 1 the run adds the
per-layer suite (layers.py) and alternates untraced and traced units, whose
difference is the tracing overhead.
See RATIONALE.md for why each workload and metric exists.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import sys

# one BLAS thread, set before numpy loads: the benchmark starts no threads of its own
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

END_TO_END = {"setup_s": "s", "adapted_ms": "ms", "plain_ms": "ms", "wall_s": "s"}
# the same figures under the names users and the ROADMAP use, per workload
NAMED = {
    "train": {"pretrain.step_ms": ("plain_ms", "ms/step", lambda v: v),
              "finetune.step_ms": ("adapted_ms", "ms/step", lambda v: v),
              "finetune.wall_s": ("wall_s", "s", lambda v: v)},
    "eval-merge": {"eval.images_per_s": ("adapted_ms", "images/s", lambda v: 1e3 / v),
                   "eval_merged.images_per_s": ("plain_ms", "images/s", lambda v: 1e3 / v)},
    "analyze": {"analyze.slot_s": ("adapted_ms", "s/slot", lambda v: v / 1e3)},
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(NAMED))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_commit() -> str:
    """HEAD of the checkout, read from .git without starting a process."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def machine(np) -> dict:
    blas = {}
    try:
        dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": dep.get("name"), "version": dep.get("version")}
    except (TypeError, KeyError):
        pass
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "scipy": importlib.util.find_spec("scipy") is not None,
        "platform": platform.platform(),
        "commit": git_commit(),
    }


def run_units(work, rec, traced_rec, session, seconds, start, perf):
    """Closed loop of units until the next one would overrun `seconds`.

    With a session, odd units run traced (into traced_rec) and even ones not.
    Set-up times go to rec.
    """
    busy = 0.0
    while True:
        traced = session is not None and work.units % 2 == 1
        t0 = perf()
        for _ in range(work.setups):
            t1 = perf()
            state = work.setup()
            t2 = perf()
            rec.add("setup_s", t2 - t1, t1, t2)
        if traced:
            session.install()
            try:
                work.unit(state, traced_rec, session)
            finally:
                session.uninstall()
        else:
            work.unit(state, rec, None)
        work.units += 1
        busy += perf() - t0
        enough = session is None or work.units >= 2
        if enough and perf() - start + busy / work.units > seconds:
            return


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "peftlab", "__init__.py")):
        print(f"error: no peftlab sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import numpy as np
    from peftlab import autodiff, dataio, peft, spectral, train, vit

    import speed
    import tracer
    from stats import median, summary
    from workloads import WORKLOADS, Record

    modules = {"autodiff": autodiff, "vit": vit, "peft": peft, "train": train,
               "spectral": spectral, "dataio": dataio}
    os.makedirs(OUT, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    start = tracer.perf()

    layer_metrics, dropped, suite_rec = {}, [], Record()
    if args.trace:
        from layers import Suite

        suite = Suite(modules, args.seed, OUT)
        suite.run()
        layer_metrics, dropped, suite_rec = suite.metrics, suite.dropped, suite.record

    patcher = tracer.Patcher()
    work = WORKLOADS[args.workload](args.seed, OUT, patcher)
    rec, traced_rec = Record(), Record()
    session = tracer.TraceSession(modules) if args.trace else None
    sampler = speed.Sampler(work.reference)
    try:
        sampler.start()
        run_units(work, rec, traced_rec, session, args.seconds, start, tracer.perf)
    finally:
        sampler.stop()
        patcher.undo()
    elapsed = tracer.perf() - start

    summaries = {name: summary(values) for name, values in sorted(rec.scaled(sampler).items())}
    measured = {name: summary(values) for name, values in sorted(rec.samples.items())}
    raw = {name: summary(values) for name, values in sorted(rec.raw.items())}
    attempted = rec.attempted + traced_rec.attempted + suite_rec.attempted
    failures = rec.failures + traced_rec.failures + suite_rec.failures

    print(f"{args.workload}: seed {args.seed}, trace {args.trace}, {work.units} units "
          f"in {elapsed:.1f} s; reference kernel {median(sampler.passes_ms):.4g} ms "
          f"(nominal {sampler.nominal_ms:g}), median of {len(sampler.passes_ms)} passes")
    print("  at the reference speed (reported), then as measured:")
    for name, unit in END_TO_END.items():
        s, m = summaries[name], measured[name]
        r = raw.get(name, m)
        tail = "".join(f", {k} {v:.6g}" for k, v in r.items() if k.startswith("p"))
        print(f"  {name:<12} {s['median']:>12.6g} {unit:<3} median of {s['n']} blocks; "
              f"measured {m['median']:.6g}; {r['n']} samples: median {r['median']:.6g}{tail}")
    for name, (metric, unit, convert) in NAMED[args.workload].items():
        print(f"  {name:<26} {convert(summaries[metric]['median']):>10.6g} {unit}  (= {metric})")
    print(f"  failed_share {len(failures)}/{attempted} checks")
    for failure in failures:
        print(f"  FAILED: {failure}")

    result = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "units": work.units, "elapsed_s": elapsed,
        "machine": machine(np), "checks": {"attempted": attempted, "failures": failures},
        "reference_ms": {"kernels": work.reference, "nominal": sampler.nominal_ms,
                         "times_s": sampler.times, "passes": sampler.passes_ms},
        "block_spans": {name: rec.spans[name] for name in END_TO_END},
        "blocks": summaries, "blocks_measured": measured, "samples": raw,
        "block_values": {name: rec.samples[name] for name in END_TO_END},
    }
    if args.trace:
        result.update(trace_report(session, sampler, rec, traced_rec, layer_metrics, dropped))
        session.tracer.write(os.path.join(OUT, f"spans-{tag}.tsv"))
        metrics = layer_metrics
    else:
        metrics = {name: (summaries[name]["median"], unit) for name, unit in END_TO_END.items()}
    with open(os.path.join(OUT, f"result-{tag}.json"), "w") as f:
        json.dump(result, f, indent=1, default=str)

    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def trace_report(session, sampler, rec, traced_rec, layer_metrics, dropped) -> dict:
    """Self time per layer and coverage per step, image or report, and the tracing overhead.

    The overhead compares traced and untraced units at the reference speed, so
    that a change of the machine's speed between them does not count.
    """
    import tracer
    from stats import median

    spans = session.tracer.spans
    own = tracer.self_times(spans)
    per_window = tracer.self_time_in(spans, own, traced_rec.windows)
    covered = sorted(sum(c.values()) / (b - a) for c, (a, b) in zip(per_window, traced_rec.windows))
    layers = sorted({layer for c in per_window for layer in c})
    self_ms = {layer: 1e3 * sum(c[layer] for c in per_window) / max(len(per_window), 1)
               for layer in layers}
    overhead = {}
    untraced_at_ref, traced_at_ref = rec.scaled(sampler), traced_rec.scaled(sampler)
    for name in END_TO_END:
        if name in traced_at_ref and name in untraced_at_ref:
            base = median(untraced_at_ref[name])
            traced = median(traced_at_ref[name])
            overhead[name] = {"untraced": base, "traced": traced,
                              "pct": 100.0 * (traced - base) / base}
    if covered:
        layer_metrics["trace.coverage_pct"] = (100.0 * covered[len(covered) // 2], "%")
    else:
        dropped.append("trace.coverage_pct")
    if "adapted_ms" in overhead:
        layer_metrics["trace.overhead_pct"] = (overhead["adapted_ms"]["pct"], "%")

    print(f"  self time by layer per step, image or report ({len(per_window)} traced):")
    for layer, ms in self_ms.items():
        print(f"    {layer:<10} {ms:10.4f} ms")
    if covered:
        print(f"  coverage: layer self time is {100 * covered[len(covered) // 2]:.1f}% "
              "of a step's, image's or report's time (median)")
    for name, o in overhead.items():
        print(f"  tracing overhead {name}: {o['traced']:.6g} traced vs {o['untraced']:.6g} "
              f"untraced ({o['pct']:+.1f}%)")
    for name in dropped:
        print(f"  dropped: {name}")
    for name, (value, unit) in sorted(layer_metrics.items()):
        print(f"  {name:<40} {value:>12.6g} {unit}")
    return {"layers": {k: {"value": v, "unit": u} for k, (v, u) in layer_metrics.items()},
            "self_ms_by_layer": self_ms, "coverage_median": covered[len(covered) // 2]
            if covered else None, "overhead": overhead, "dropped": dropped,
            "missing_wrappers": sorted(session.missing)}


if __name__ == "__main__":
    sys.exit(main())
