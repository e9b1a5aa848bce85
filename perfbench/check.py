"""Check every operation a worker reports against an independent reference.

An operation either *failed* (finpow raised, or the cli exited with the wrong
code) or produced an *answer*; an answer is *correct* when its bound meets
the tolerance asked for and ``|value - reference| <= bound + allowance``.

The allowance is for round-off, which the certificate does not cover: the
eigendecomposition of an N x N window perturbs ``W**alpha`` by about
``N * eps * ||W**alpha||``, and ``||W**alpha|| <= max(c**alpha, w**alpha)``
on the envelope ``[c, w]``.  ``ROUNDOFF_FACTOR`` multiplies that estimate; the
errors measured on answers whose bound is below 1e-40 (pure round-off) stay
under 1/1000 of it.
"""

from __future__ import annotations

import csv
import io
import json
import math

import cases
import reference as ref

EPS = 2.0**-52
ROUNDOFF_FACTOR = 16.0
MAX_DIM = 2049  # finpow's default DriverLimits.max_dim


def allowance(dim: int, c: float, w: float, alpha: float) -> float:
    scale = max(w**alpha, c**alpha if c > 0.0 else 0.0, 1.0)
    return ROUNDOFF_FACTOR * dim * EPS * scale


class Checker:
    """Judges the operations of one run; references are memoized per case."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.errors: list[str] = []
        self._memo: dict = {}

    def _ref(self, key, compute):
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    def _expect(self, good: bool, message: str) -> bool:
        if not good and len(self.errors) < 20:
            self.errors.append(message)
        return good

    def _element(self, where, value, bound, tol, reference, slack) -> bool:
        return self._expect(bound <= tol, f"{where}: bound {bound:.3g} > tol {tol:.3g}") and \
            self._expect(abs(value - reference) <= bound + slack,
                         f"{where}: |{value} - {reference}| > {bound:.3g} + {slack:.3g}")

    def judge(self, op) -> tuple[bool, bool]:
        """(failed, correct) of one reported operation."""
        where = f"{self.workload} round {op['r']} op {op['i']}"
        if self.workload == "cli":
            return self._cli(op, where)
        if not op["ok"]:
            return True, True
        if self.workload == "lattice-approx":
            return False, self._lattice(op, where)
        if self.workload == "banded-batch":
            return False, self._banded(op, where)
        return False, self._solve(op, where)

    def _lattice(self, op, where) -> bool:
        case = self._ref("round", lambda: cases.lattice_round(self.seed))[op["i"]]
        re, im, bound, dim = op["out"]
        alpha, m, n = case["alpha"], case["m"], case["n"]
        if case["model"] == "c0":
            c, w = 0.0, 4.0
            reference = self._ref(("c0", alpha), lambda: ref.second_difference_origin(alpha))
        else:
            c, w = 1.0, 5.0
            reference = self._ref(("unit", alpha, m - n),
                                  lambda: ref.lattice_element(1.0, 1.0, alpha, m, n))
        return self._element(where, complex(re, im), bound, case["tol"], reference,
                             allowance(dim, c, w, alpha))

    def _banded(self, op, where) -> bool:
        case = self._ref(("round", op["r"]), lambda: cases.banded_round(self.seed, op["r"]))[op["i"]]
        re, im, bound, dim = op["out"]
        reference = ref.toeplitz_power_element(
            case["offsets"], case["stencil"], case["alpha"], case["m"], case["n"])
        return self._element(where, complex(re, im), bound, case["tol"], reference,
                             allowance(dim, case["c"], case["norm_bound"], case["alpha"]))

    def _solution(self, where, rows, case, tol) -> bool:
        a, b, f, outs = case["a"], case["b"], case["f"], case["outs"]
        key = ("solve", a, b, tuple(sorted(f.items())), tuple(outs))
        reference = self._ref(key, lambda: ref.lattice_solve(a, b, f, outs))
        slack = allowance(max(MAX_DIM, 2 * ref.AMBIENT_HALF_WIDTH + 1), a, a + 4 * b, -1.0)
        slack *= sum(abs(v) for v in f.values())
        good = self._expect(sorted(o for o, *_ in rows) == sorted(outs),
                            f"{where}: outputs {[o for o, *_ in rows]} != {outs}")
        for o, re, im, bound in rows:
            good &= self._element(f"{where} x[{o}]", complex(re, im), bound, tol,
                                  reference.get(o, math.nan), slack)
        return good

    def _solve(self, op, where) -> bool:
        case = self._ref("solve-round", lambda: cases.solve_round(self.seed))[op["i"]]
        return self._solution(where, op["out"], case, case["tol"])

    def _cli(self, op, where) -> tuple[bool, bool]:
        case = self._ref("cli-round", lambda: cases.cli_round(self.seed))[op["i"]]
        rc, out, err = op["out"]["rc"], op["out"]["stdout"], op["out"]["stderr"]
        if case["cmd"] == "nan":
            # A certificate cannot exist; the contract is exit 3 without a traceback.
            return not (rc == 3 and "Traceback" not in err), True
        if rc != 0:
            return True, True
        try:
            return False, getattr(self, "_cli_" + case["cmd"])(case, out, f"{where} {case['cmd']}")
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return False, self._expect(False, f"{where}: unparsable output ({exc}): {out[:200]!r}")

    def _cli_reference(self, case) -> tuple[complex, float, float]:
        """Reference element of a cli case, with the envelope (c, w) of its model."""
        alpha, m, n = case["alpha"], case["m"], case["n"]
        if case["model"] == "lattice":
            a, b = cases.CLI_LATTICE
            return (self._ref(("cli-lattice", alpha, m - n),
                              lambda: ref.lattice_element(a, b, alpha, m, n)), a, a + 4 * b)
        cfg = cases.CLI_FILES["banded"]
        return (self._ref(("cli-banded", alpha, m - n), lambda: ref.toeplitz_power_element(
            cfg["offsets"], cfg["stencil"], alpha, m, n)),
            cfg["envelope"]["c"], cfg["envelope"]["norm_bound"])

    def _cli_approx(self, case, out, where) -> bool:
        record = json.loads(out)
        reference, c, w = self._cli_reference(case)
        dim = record["P"] + record["Q"] + 1
        return self._element(where, complex(*record["value"]), record["bound"], case["tol"],
                             reference, allowance(dim, c, w, case["alpha"]))

    def _cli_table(self, case, out, where) -> bool:
        rows = list(csv.reader(io.StringIO(out)))
        good = self._expect(rows[0] == ["P", "Q", "value_re", "value_im", "j_pq", "bound"],
                            f"{where}: header {rows[0]}")
        good &= self._expect([int(r[0]) for r in rows[1:]] == case["windows"],
                             f"{where}: windows {[r[0] for r in rows[1:]]}")
        reference, c, w = self._cli_reference(case)
        for P, Q, re, im, _, bound in rows[1:]:
            dim = int(P) + int(Q) + 1
            good &= self._element(f"{where} P={P}", complex(float(re), float(im)),
                                  float(bound), math.inf, reference,
                                  allowance(dim, c, w, case["alpha"]))
        return good

    def _cli_solve(self, case, out, where) -> bool:
        rows = list(csv.reader(io.StringIO(out)))
        good = self._expect(rows[0] == ["index", "value_re", "value_im", "bound"],
                            f"{where}: header {rows[0]}")
        good &= self._expect([int(r[0]) for r in rows[1:]] == case["outs"],
                             f"{where}: row order")
        parsed = [(int(o), float(re), float(im), float(bd)) for o, re, im, bd in rows[1:]]
        a, b = cases.CLI_LATTICE
        return good & self._solution(where, parsed, dict(case, a=a, b=b), case["tol"])

    def _cli_example(self, case, out, where) -> bool:
        rows = list(csv.reader(io.StringIO(out)))
        good = self._expect(rows[0] == ["N", "value", "reference", "abs_error", "bound"],
                            f"{where}: header {rows[0]}")
        good &= self._expect([int(r[0]) for r in rows[1:]] == case["sizes"],
                             f"{where}: sizes")
        a, b = cases.CLI_LATTICE
        alpha = case["alpha"]
        reference = self._ref(("cli-lattice", alpha, 0),
                              lambda: ref.lattice_element(a, b, alpha, 0, 0))
        for N, value, printed_ref, abs_error, bound in rows[1:]:
            value, slack = float(value), allowance(int(N), a, a + 4 * b, alpha)
            good &= self._expect(abs(float(printed_ref) - reference) <= 1e-12,
                                 f"{where} N={N}: reference {printed_ref} != {reference}")
            good &= self._expect(abs(float(abs_error) - abs(value - float(printed_ref))) <= slack,
                                 f"{where} N={N}: abs_error column")
            good &= self._element(f"{where} N={N}", value, float(bound), math.inf,
                                  reference, slack)
        return good
