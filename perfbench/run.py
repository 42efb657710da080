"""Benchmark of qndstab's figure campaigns and decay certificate.

Run from the repository root:

    python3 perfbench/run.py --workload fig2_truth --seed 1 --seconds 20 --trace 0

Workloads: fig2_truth, fig4_filter, certify_thresholds (see README.md).
--trace 0 measures the end-to-end metrics (setup_s, run_s, peak_rss_mib);
--trace 1 is the separate traced run that reports the per-layer metrics.
Progress goes to stderr; the last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics.

Every round runs in a fresh child process that imports the program from
src/ of the checkout, sets the workload up and calls cli.main in process,
so each timed call starts as cold as a `qndstab` command does.  BLAS and
OpenMP are pinned to one thread in this process and every child.
"""

import os

# before numpy is imported, here and in every child process
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "_out")
PROBES_PER_GAP = 4  # set-up probes before the first round and after every round
END_TO_END = {"setup_s": "s", "run_s": "s", "peak_rss_mib": "MiB"}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="run whole rounds until this much time has passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="self-test size: every code path, little work")
    parser.add_argument("--child", choices=("probe", "round", "traced"), help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def spawn(args, role: str) -> tuple[float, dict | None]:
    """Run one child; returns (seconds from spawn to the end of its set-up, its JSON result)."""
    argv = [sys.executable, os.path.abspath(__file__), "--child", role, "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0"]
    if args.tiny:
        argv.append("--tiny")
    start = time.perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as proc:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest = proc.stdout.read().strip()
        code = proc.wait()
    if code != 0 or ready.strip() != "ready":
        raise RuntimeError(f"{role} child exited with code {code}")
    return setup_s, json.loads(rest.splitlines()[-1]) if rest else None


def child(args) -> int:
    """Set the workload up, say so, then run one round (untraced or traced) and print its result."""
    import workloads

    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    try:
        wl = workloads.build(args.workload, args.seed, workdir, args.tiny)
        print("ready", flush=True)
        if args.child == "probe":
            return 0
        import layers

        tracer = layers.Tracer() if args.child == "traced" else layers.NullTracer()
        ops = wl.round(tracer)
        result = {"ops": ops}
        if args.child == "traced":
            try:
                if wl.name == "certify_thresholds":
                    row, problems = layers.certify_round(wl, tracer, args.seed)
                else:
                    row, problems = layers.campaign_round(wl, tracer, 20 if args.tiny else layers.REPLAY_STEPS)
            except Exception as exc:  # a layer that cannot be measured fails the round's layer operation
                traceback.print_exc(file=sys.stderr)
                row, problems = {}, [f"layers: {exc!r}"]
            result.update(ops=ops + [(0.0, problems)], layers=row, spans=tracer.spans)
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def peak_rss_mib() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "qndstab", "cli.py")):
        print(f"perfbench: no qndstab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.child:
        return child(args)

    setup_times, round_seconds, layer_rows, spans = [], [], [], []

    def probe_gap():
        # spread through the run, so set-up is sampled in the same machine state as the rounds
        setup_times.extend(spawn(args, "probe")[0] for _ in range(1 if args.tiny else PROBES_PER_GAP))

    probe_gap()
    attempted = failed = 0
    deadline = time.perf_counter() + args.seconds
    while True:
        setup_s, result = spawn(args, "round")
        setup_times.append(setup_s)
        ops = result["ops"]
        untraced_s = sum(s for s, _ in ops)
        round_seconds.append(untraced_s)
        if args.trace:
            _, traced = spawn(args, "traced")
            ops = ops + traced["ops"]
            traced_s = sum(s for s, _ in traced["ops"])
            layer_rows.append(dict(traced["layers"], **{"bench.trace_overhead_pct": 100.0 * (traced_s / untraced_s - 1.0)}))
            spans.extend(dict(span, round=len(round_seconds)) for span in traced["spans"])
        for _, problems in ops:
            attempted += 1
            if problems:
                failed += 1
                print(f"perfbench: failed operation: {'; '.join(problems)}", file=sys.stderr)
        probe_gap()
        if time.perf_counter() >= deadline:
            break

    if args.trace:
        import layers

        units = layers.PER_LAYER
        metrics = {name: statistics.median(row.get(name, 0.0) for row in layer_rows) for name in units}
        os.makedirs(OUT, exist_ok=True)
        trace_path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json")
        with open(trace_path, "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed, "spans": spans, "layers": layer_rows}, fh, indent=1)
        print(f"perfbench: {len(spans)} spans written to {trace_path}", file=sys.stderr)
    else:
        units = END_TO_END
        metrics = {"setup_s": statistics.median(setup_times), "run_s": statistics.median(round_seconds), "peak_rss_mib": peak_rss_mib()}
    print(
        f"perfbench: {args.workload} seed {args.seed}: {len(round_seconds)} rounds, "
        f"round seconds {[round(s, 3) for s in round_seconds]}, set-up seconds {[round(s, 3) for s in setup_times]}",
        file=sys.stderr,
    )
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
