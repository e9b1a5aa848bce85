"""finpow benchmark: time to a certified element, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run from the root of a finpow checkout.  The program is the checkout's
``src`` tree, put on ``PYTHONPATH``; nothing is installed.  One caller drives
finpow in a closed loop from a fresh interpreter (``worker.py``); this process
only starts that worker, times its set-up, and checks every answer against
references it computes itself with numpy (``check.py``).

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones from a traced run (see README.md).  The last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import os
import sys

# Pin BLAS threads before numpy loads, here and (through the environment) in
# the worker and the cli processes it starts.  One thread: on a shared 2-core
# machine a second BLAS thread competes with whatever else runs there, and
# the run-to-run spread of the dense workloads doubles.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import compileall  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

import cases  # noqa: E402
from check import Checker  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
# Fresh interpreters timed per untraced run: probes before and after the one
# that does the work, so the median spans the machine's state over the run.
# Start-up times within one run vary by up to 40%, so the median takes nine.
PROBES_BEFORE, PROBES_AFTER = 4, 4
RUN_LIMIT_S = 170.0  # the whole run, set-up and checks included

END_TO_END = {
    "setup_s": "s",
    "answers_per_s": "1/s",
    "latency_p50_ms": "ms",
    "peak_rss_mb": "MB",
}
# Per-layer figures, each per answer; the cli-only ones are printed, not gated.
PER_LAYER = {
    "driver.windows": "count",
    "driver.window_yield": "ratio",
    "driver.dim_max": "count",
    "driver.self_ms": "ms",
    "powers.finite_power_ms": "ms",
    "powers.finite_power_calls": "count",
    "linalg.eigh_ms": "ms",
    "linalg.eigh_calls": "count",
    "linalg.eigvalsh_ms": "ms",
    "linalg.eigvalsh_calls": "count",
    "linalg.dim3_sum": "count",
    "core.validate_ms": "ms",
    "core.validate_calls": "count",
    "core.truncate_ms": "ms",
    "core.truncate_calls": "count",
    "core.rows_generated": "count",
    "series.depth_ms": "ms",
    "series.depth_calls": "count",
    "certificates.certify_ms": "ms",
    "certificates.tail_bound_ms": "ms",
    "certificates.tail_bound_calls": "count",
    "trace.overhead_pct": "%",
}
CLI_LAYERS = {
    "config.load_ms": "ms",
    "cli.main_ms": "ms",
    "cli.process_ms": "ms",
    "lattice.dispersion_ms": "ms",
}
P90_MIN_ANSWERS = 100


def child_env(root: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONHASHSEED"] = "0"
    return env


class Worker:
    """One fresh interpreter running ``worker.py``; killed at the deadline."""

    def __init__(self, args, root, deadline, probe):
        cmd = [sys.executable, os.path.join(HERE, "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if probe:
            cmd.append("--probe")
        start = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                                     env=child_env(root), cwd=root)
        self.timer = threading.Timer(max(deadline - time.monotonic(), 1.0), self.proc.kill)
        self.timer.start()
        line = self.proc.stdout.readline()
        self.setup_s = time.perf_counter() - start
        self.ready = line.strip() == "READY"

    def finish(self) -> tuple[int, str]:
        try:
            out, _ = self.proc.communicate()
        finally:
            self.timer.cancel()
        return self.proc.returncode, out


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 1


def environment(args, root, worker_threads) -> dict:
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        rev = ""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "seed": args.seed,
        "git_rev": rev or "unknown (not a git checkout)",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads_seen": worker_threads,
    }


def end_to_end(setup_samples, result, judged) -> tuple[dict, dict]:
    answers = [op["t"] for op, (failed, _) in zip(result["ops"], judged) if not failed]
    # Throughput over the whole timed pass: answers over the time spent in
    # finpow calls, failed operations included.
    busy = sum(op["t"] for op in result["ops"])
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "answers_per_s": len(answers) / busy,
        "latency_p50_ms": 1e3 * statistics.median(answers) if answers else float("nan"),
        "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
    }
    info = {"answers": len(answers), "rounds": len({op["r"] for op in result["ops"]}),
            "setup_samples_s": [round(s, 4) for s in setup_samples]}
    if len(answers) >= P90_MIN_ANSWERS:
        info["latency_p90_ms"] = 1e3 * statistics.quantiles(answers, n=10)[-1]
    return metrics, info


def per_layer(args, result) -> tuple[dict, dict]:
    layers = dict(result["layers"])
    passes = result["passes"]
    layers["trace.overhead_pct"] = 100.0 * (passes["traced"] / passes["plain"] - 1.0)
    layers.setdefault("cli.main_ms", 0.0)
    layers["cli.process_ms"] = 0.0
    if args.workload == "cli":
        spawned = [op["t"] for op in result["ops"]]
        layers["cli.process_ms"] = 1e3 * (sum(spawned) - result["main_plain_s"]) / len(spawned)
    return ({k: layers[k] for k in PER_LAYER}, {k: layers[k] for k in CLI_LAYERS})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=cases.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = time.monotonic() + RUN_LIMIT_S
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "finpow", "__init__.py")):
        return fail("run from the root of a finpow checkout: src/finpow is missing")

    # Compile finpow and the benchmark to bytecode once, outside any timing,
    # so every interpreter imports from current .pyc files, as an installed
    # package would, whether or not __pycache__ was there before the run.
    for tree in (os.path.join(root, "src"), HERE):
        compileall.compile_dir(tree, quiet=1)

    setup_samples = []

    def probe() -> bool:
        started = Worker(args, root, deadline, probe=True)
        code, _ = started.finish()
        setup_samples.append(started.setup_s)
        return started.ready and code == 0

    probes_before, probes_after = (0, 0) if args.trace else (PROBES_BEFORE, PROBES_AFTER)
    if not all(probe() for _ in range(probes_before)):
        return fail(f"set-up of {args.workload} failed")
    worker = Worker(args, root, deadline, probe=False)
    code, out = worker.finish()
    if not worker.ready or code != 0:
        return fail(f"worker for {args.workload} failed (exit {code})")
    setup_samples.append(worker.setup_s)
    if not all(probe() for _ in range(probes_after)):
        return fail(f"set-up of {args.workload} failed")
    result = json.loads(out.strip().splitlines()[-1])

    checker = Checker(args.workload, args.seed)
    judged = [checker.judge(op) for op in result["ops"]]
    attempted = len(judged)
    failures = [op for op, (failed, _) in zip(result["ops"], judged) if failed]
    correct = all(ok for _, ok in judged) and attempted > len(failures)

    if args.trace:
        metrics, extra = per_layer(args, result)
        units = dict(PER_LAYER, **CLI_LAYERS)
    else:
        metrics, extra = end_to_end(setup_samples, result, judged)
        units = END_TO_END
    print("env " + json.dumps(environment(args, root, result["blas_threads"])))
    print(f"workload {args.workload}: attempted {attempted}, failed {len(failures)}, "
          f"correct {correct}")
    reasons: dict[int, str] = {}
    for op in failures:
        reasons.setdefault(op["i"], op["err"] or
                           f"exit {op['out']['rc']}: {op['out']['stderr'].strip()[-160:]!r}")
    for index, reason in sorted(reasons.items()):
        print(f"failed op {index} of each round: {reason}")
    for message in checker.errors:
        print(f"incorrect: {message}")
    for name, value in {**metrics, **extra}.items():
        if name in units:
            print(f"{name} {value:.6g} {units[name]}")
    if not args.trace:
        print("info " + json.dumps(extra))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
