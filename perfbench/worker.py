"""Run one workload in a fresh interpreter: set up, then a timed closed loop.

    python3 perfbench/worker.py --workload W --seed N --seconds T --trace 0|1 [--probe]

Started by ``run.py`` with ``src`` on ``PYTHONPATH`` and the BLAS thread
count pinned.  Prints ``READY`` once set-up is done (the parent times the
interval from process start), then, unless ``--probe``, runs whole rounds of
the workload until ``--seconds`` have passed and prints one JSON line with
every operation's outcome.  It checks nothing itself: references are
computed by the parent, so their memory and time stay out of this process.

With ``--trace 1`` every round runs twice, once traced and once not, in
alternating order, and the JSON carries the per-layer summary and the
traced/untraced time ratio.
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import io
import json
import os
import resource
import subprocess
import sys
import time

import numpy as np

import cases
from tracer import Tracer

OUT_DIR = ".perfbench-out"
CLI_TIMEOUT_S = 60


def blas_threads() -> int | None:
    """Thread count OpenBLAS reports, or None where it cannot be asked."""
    import ctypes

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            query = getattr(lib, symbol, None)
            if query is not None:
                query.restype = ctypes.c_int
                return int(query())
    return None


class ApiWorkload:
    """Shared loop of the three workloads that call finpow in process."""

    def __init__(self, seed: int):
        import finpow

        self.fp = finpow
        self.seed = seed
        self.models: dict = {}
        # Called with each spec built inside a timed call; the tracer sets it.
        self.on_spec = None

    def specs(self):
        """Specs built at set-up, whose row generators the tracer counts."""
        return [spec for spec, _ in self.models.values()]

    def ops(self, r: int) -> list:
        """Round ``r`` as a list of zero-argument calls, one per operation."""
        raise NotImplementedError


def _cert_payload(cert) -> list:
    return [cert.value.real, cert.value.imag, cert.bound, cert.window.dim]


class LatticeApprox(ApiWorkload):
    def setup(self):
        fp = self.fp
        unit = fp.LatticeModelParams(1.0, 1.0)
        self.models = {
            "unit": (fp.lattice_spec(unit), fp.periodic_policy(unit)),
            "c0": (fp.banded_spec([-1, 0, 1], [-1.0, 2.0, -1.0], fp.SpectralEnvelope(0.0, 4.0)),
                   fp.zero_boundary),
        }
        self.round = cases.lattice_round(self.seed)
        spec, policy = self.models["unit"]
        fp.approximate_element(spec, policy, -0.5, 0, 0, 1e-6)

    def ops(self, r):
        fp = self.fp
        out = []
        for case in self.round:
            spec, policy = self.models[case["model"]]

            def call(spec=spec, policy=policy, c=case):
                cert = fp.approximate_element(spec, policy, c["alpha"], c["m"], c["n"], c["tol"])
                return _cert_payload(cert)

            out.append(call)
        return out


class BandedBatch(ApiWorkload):
    def setup(self):
        self._build(cases.banded_round(self.seed, cases.WARMUP_ROUND)[0])()

    def _build(self, case):
        fp = self.fp

        def call():
            # Building the spec is part of each answer: every case is a fresh
            # matrix, so no row cache outlives its call.
            envelope = fp.SpectralEnvelope(case["c"], case["norm_bound"])
            spec = fp.banded_spec(case["offsets"], case["stencil"], envelope)
            if self.on_spec is not None:
                self.on_spec(spec)
            cert = fp.approximate_element(
                spec, fp.zero_boundary, case["alpha"], case["m"], case["n"], case["tol"]
            )
            return _cert_payload(cert)

        return call

    def ops(self, r):
        return [self._build(case) for case in cases.banded_round(self.seed, r)]


class LocalSolve(ApiWorkload):
    def setup(self):
        fp = self.fp
        self.round = cases.solve_round(self.seed)
        for case in self.round:
            params = fp.LatticeModelParams(case["a"], case["b"])
            self.models[(case["a"], case["b"])] = (fp.lattice_spec(params),
                                                   fp.periodic_policy(params))
        spec, policy = self.models[(self.round[0]["a"], self.round[0]["b"])]
        fp.local_solve(spec, policy, {0: 1.0}, [0], 1e-4)

    def ops(self, r):
        fp = self.fp
        out = []
        for case in self.round:
            spec, policy = self.models[(case["a"], case["b"])]

            def call(spec=spec, policy=policy, c=case):
                sol = fp.local_solve(spec, policy, c["f"], c["outs"], c["tol"])
                return [[o, v.real, v.imag, b] for o, (v, b) in sorted(sol.items())]

            out.append(call)
        return out


class Cli:
    """Subprocess invocations of ``python -m finpow`` on files written at set-up."""

    def __init__(self, seed: int):
        self.seed = seed
        self.files: dict[str, str] = {}

    def setup(self):
        base = os.path.join(OUT_DIR, f"cli-{os.getpid()}")
        os.makedirs(base, exist_ok=True)
        for role, config in cases.CLI_FILES.items():
            self.files[role] = os.path.join(base, f"{role}.json")
            with open(self.files[role], "w", encoding="utf-8") as handle:
                json.dump(config, handle)
        self.files["rhs"] = os.path.join(base, "rhs.txt")
        with open(self.files["rhs"], "w", encoding="utf-8") as handle:
            handle.write(cases.rhs_text(cases.cli_round(self.seed)[3]["f"]))
        self.round = [self._argv(c["argv"]) for c in cases.cli_round(self.seed)]
        self.spawn(["approx", self.files["lattice"], "--alpha", "0.5", "--m", "0",
                     "--n", "0", "--tol", "1e-4"])

    def cleanup(self):
        for path in self.files.values():
            os.remove(path)
        os.rmdir(os.path.dirname(self.files["rhs"]))

    def _argv(self, argv):
        return [self.files[a[1:]] if a.startswith("@") else a for a in argv]

    def spawn(self, argv):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "finpow", *argv],
            capture_output=True, text=True, timeout=CLI_TIMEOUT_S,
        )
        return time.perf_counter() - t0, proc

    def in_process(self, argv, tracer):
        """``finpow.cli.main(argv)`` in this process, output captured."""
        import finpow.cli

        sink = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                if tracer:
                    tracer.answer(finpow.cli.main, argv)
                else:
                    finpow.cli.main(argv)
        except Exception:  # noqa: BLE001 - a crash is one failed invocation
            pass
        return time.perf_counter() - t0


def record(r, i, fn):
    t0 = time.perf_counter()
    try:
        out = fn()
        ok, err = True, None
    except Exception as exc:  # noqa: BLE001 - each failure is counted, not fatal
        out, ok, err = None, False, f"{type(exc).__name__}: {exc}"
    return {"r": r, "i": i, "ok": ok, "t": time.perf_counter() - t0, "out": out, "err": err}


def layer_modules() -> dict:
    """The modules whose functions the tracer wraps, by import path."""
    import finpow.certificates
    import finpow.cli
    import finpow.driver

    return {"finpow.driver": finpow.driver, "finpow.certificates": finpow.certificates,
            "finpow.cli": finpow.cli, "numpy.linalg": np.linalg}


def passes_of_round(r: int, trace: bool):
    """Untraced only, or both passes with the traced one first on odd rounds."""
    if not trace:
        return (False,)
    return (False, True) if r % 2 == 0 else (True, False)


def run_api(work, seconds, trace):
    ops, passes = [], {"plain": 0.0, "traced": 0.0}
    tracer = Tracer() if trace else None
    start = time.perf_counter()
    r = 0
    while r == 0 or time.perf_counter() - start < seconds:
        for traced in passes_of_round(r, trace):
            calls = work.ops(r)
            if traced:
                tracer.install(layer_modules(), work.specs())
            work.on_spec = tracer.count_rows_of if traced else None
            try:
                for i, call in enumerate(calls):
                    rec = record(r, i, (lambda c=call: tracer.answer(c)) if traced else call)
                    rec["traced"] = traced
                    passes["traced" if traced else "plain"] += rec["t"]
                    ops.append(rec)
            finally:
                if traced:
                    tracer.restore()
        r += 1
    return ops, passes, tracer


def run_cli(work, seconds, trace):
    ops, passes, main_plain = [], {"plain": 0.0, "traced": 0.0}, 0.0
    tracer = Tracer() if trace else None
    start = time.perf_counter()
    r = 0
    while r == 0 or time.perf_counter() - start < seconds:
        for i, argv in enumerate(work.round):
            for traced in passes_of_round(r, trace) if trace else ():
                if traced:
                    tracer.install(layer_modules())
                try:
                    t = work.in_process(argv, tracer if traced else None)
                finally:
                    tracer.restore()
                passes["traced" if traced else "plain"] += t
                main_plain += 0.0 if traced else t
            # Whether the exit code is the right one is the checker's call.
            t, proc = work.spawn(argv)
            ops.append({"r": r, "i": i, "ok": None, "t": t, "traced": False,
                        "out": {"rc": proc.returncode, "stdout": proc.stdout,
                                "stderr": proc.stderr[-2000:]},
                        "err": None})
        r += 1
    return ops, passes, tracer, main_plain


WORKLOADS = {
    "lattice-approx": LatticeApprox,
    "banded-batch": BandedBatch,
    "local-solve": LocalSolve,
    "cli": Cli,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help="exit once set-up is done")
    args = parser.parse_args(argv)

    work = WORKLOADS[args.workload](args.seed)
    work.setup()
    print("READY", flush=True)
    if args.probe:
        if isinstance(work, Cli):
            work.cleanup()
        return 0

    result = {"blas_threads": blas_threads()}
    if isinstance(work, Cli):
        try:
            ops, passes, tracer, main_plain = run_cli(work, args.seconds, args.trace)
        finally:
            work.cleanup()
        result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        result["main_plain_s"] = main_plain
    else:
        ops, passes, tracer = run_api(work, args.seconds, args.trace)
        result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["ops"] = ops
    result["passes"] = passes
    if tracer is not None:
        if isinstance(work, Cli):
            traced_answers = len(ops)
        else:
            traced_answers = sum(1 for op in ops if op["ok"] and op["traced"])
        result["layers"] = tracer.summary(traced_answers)
        if isinstance(work, Cli):
            result["layers"]["cli.main_ms"] = tracer.answer_ms() / traced_answers
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.write(os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.jsonl"))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
