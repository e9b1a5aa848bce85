"""Print one line per answer of a fixed, seeded grid of finpow calls, so that
the answers of two checkouts compare by ``diff``.

A line is the call's id, then its answer: the value's real and imaginary
parts and the bound as ``float.hex``, then the certificate's ``j_pq`` and
its window's ``P`` and ``Q``.  A local-solve component has no depth and
prints its value and bound only, a failed window of a convergence table its
error.  A call that raises prints the error's class and message instead,
and a ``NotConvergedError`` that carries a best certificate prints it on a
second line, ``<id>.best``.

The grid: elements of the unit lattice over a grid of ``alpha`` and ``tol``,
each also at ``max_dim = 65`` for its best certificate; seeded random banded
specs, real and complex, with half-bands 1 to 3, each with an element and a
solve, and the same rows again as a plain row generator; two convergence
tables; and inputs that fail, premises and arguments of the wrong type.

It needs only numpy and whichever ``finpow`` is on ``PYTHONPATH``.  Run it
from the root of each checkout and diff the two outputs::

    PYTHONPATH=src python tools/answers.py > answers.txt
"""

from __future__ import annotations

import sys

import numpy as np

import finpow as fp
from finpow.config import parse_config

ALPHAS = (-1.0, -0.5, 0.5, 1.5, 2.5)
TOLS = (1e-6, 1e-12, 1e-40)
ELEMENTS = ((0, 0), (-2, 3))
SEED = 20261020


def _hex(x) -> str:
    return float(x).hex()


def _certificate(cert) -> str:
    value, window = complex(cert.value), cert.depth.window
    return (f"{_hex(value.real)} {_hex(value.imag)} {_hex(cert.bound)} "
            f"{cert.depth.j_pq} {window.P} {window.Q}")


def _error(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def _emit(out, name: str, call) -> None:
    """One line for the answer of ``call()``, or for the error it raised."""
    try:
        answer = call()
    except Exception as exc:  # a bare exception is an answer too
        out.append(f"{name} {_error(exc)}")
        best = getattr(exc, "best_certificate", None)
        if best is not None:
            out.append(f"{name}.best {_certificate(best)}")
        return
    if isinstance(answer, dict):  # a local solve, one line per component
        for m, (value, bound) in answer.items():
            value = complex(value)
            out.append(f"{name}[{m}] {_hex(value.real)} {_hex(value.imag)} {_hex(bound)}")
    elif isinstance(answer, list):  # a convergence table, one line per window
        for i, row in enumerate(answer):
            text = _error(row) if isinstance(row, Exception) else _certificate(row)
            out.append(f"{name}[{i}] {text}")
    else:
        out.append(f"{name} {_certificate(answer)}")


def _random_banded(rng, halfband: int, is_complex: bool):
    """A random Hermitian stencil of half-band ``halfband`` and an envelope
    that holds its symbol: the sampled range, padded by 1e-3 of its width."""
    upper = rng.uniform(0.2, 1.0, halfband) * rng.choice((-1.0, 1.0), halfband)
    if is_complex:
        upper = upper * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, halfband))
    offsets = list(range(-halfband, halfband + 1))
    couplings = [complex(v) if is_complex else float(v) for v in upper]
    stencil = [v.conjugate() for v in reversed(couplings)] + [0.0] + couplings
    theta = np.linspace(0.0, 2.0 * np.pi, 4096, endpoint=False)
    symbol = sum(complex(v) * np.exp(1j * o * theta) for o, v in zip(offsets, stencil)).real
    lo, hi = float(symbol.min()), float(symbol.max())
    pad = 1e-3 * (hi - lo)
    stencil[halfband] = float(rng.uniform(0.2, 2.0)) * (hi - lo) - lo + pad
    envelope = fp.SpectralEnvelope(c=lo + stencil[halfband] - pad,
                                   norm_bound=hi + stencil[halfband] + pad)
    return fp.banded_spec(offsets, stencil, envelope)


def _from_config(data: dict):
    """The element (0, 0) at the window [-4, 1], of the model a config gives."""
    model = parse_config(data)
    return fp.evaluate_window(model.spec, model.boundary_policy, 0.5, 0, 0, fp.Window(4, 1))


def answers() -> list[str]:
    out: list[str] = []
    params = fp.LatticeModelParams(1.0, 1.0)
    unit, periodic = fp.lattice_spec(params), fp.periodic_policy(params)
    for alpha in ALPHAS:
        for tol in TOLS:
            for m, n in ELEMENTS:
                name = f"unit.element alpha={alpha} tol={tol} ({m},{n})"
                _emit(out, name, lambda: fp.approximate_element(
                    unit, periodic, alpha, m, n, tol))
                _emit(out, name + " max_dim=65", lambda: fp.approximate_element(
                    unit, periodic, alpha, m, n, tol, max_dim=65))

    rng = np.random.default_rng(SEED)
    banded = {}
    for halfband in (1, 2, 3):
        for is_complex in (False, True):
            spec = _random_banded(rng, halfband, is_complex)
            plain = fp.InfiniteMatrixSpec(spec.row_generator, spec.sparsity_bound_k,
                                          spec.envelope)
            alpha = float(rng.choice(ALPHAS))
            tol = float(10.0 ** rng.uniform(-12.0, -4.0))
            m, n = (int(i) for i in rng.integers(-4, 5, 2))
            f = {int(i): complex(*rng.standard_normal(2)) for i in rng.integers(-3, 4, 3)}
            outs = [int(i) for i in rng.integers(-8, 9, 4)]
            label = f"l={halfband} {'complex' if is_complex else 'real'}"
            banded[label] = spec
            for kind, s in (("banded", spec), ("rows", plain)):
                _emit(out, f"{kind}.element {label} alpha={alpha} tol={tol:.3e} ({m},{n})",
                      lambda: fp.approximate_element(s, fp.zero_boundary, alpha, m, n, tol))
                _emit(out, f"{kind}.solve {label} tol={tol:.3e}",
                      lambda: fp.local_solve(s, fp.zero_boundary, f, outs, tol))

    windows = [fp.Window(g, g) for g in (1, 4, 8, 16)] + [fp.Window(2, 6)]
    _emit(out, "unit.table periodic alpha=0.5 (1,-1)",
          lambda: fp.convergence_table(unit, periodic, 0.5, 1, -1, windows))
    _emit(out, "banded.table zero l=2 real alpha=-0.5 (0,2)",
          lambda: fp.convergence_table(banded["l=2 real"], fp.zero_boundary, -0.5, 0, 2,
                                       windows))

    c0 = fp.banded_spec([-1, 0, 1], [-1.0, 2.0, -1.0], fp.SpectralEnvelope(0.0, 4.0))
    wrong = fp.banded_spec([-1, 0, 1], [-1.0, 3.0, -1.0], fp.SpectralEnvelope(2.0, 5.0))
    tiny = fp.banded_spec([-1, 0, 1], [-1.0, 3.0, -1.0], fp.SpectralEnvelope(1e-300, 1e300))
    zero = fp.zero_boundary
    for name, call in (
        ("c0.solve", lambda: fp.local_solve(c0, zero, {0: 1.0}, [0], 1e-6)),
        ("c0.solve zero rhs", lambda: fp.local_solve(c0, zero, {0: 0.0}, [0], 1e-6)),
        ("c0.solve tol=-1", lambda: fp.local_solve(c0, zero, {0: 1.0}, [0], -1.0)),
        ("c0.solve index 0.5", lambda: fp.local_solve(c0, zero, {0.5: 1.0}, [0], 1e-6)),
        ("c0.element alpha=-0.5", lambda: fp.approximate_element(c0, zero, -0.5, 0, 0, 1e-6)),
        ("c0.element alpha=0.5", lambda: fp.approximate_element(c0, zero, 0.5, 0, 0, 1e-3)),
        ("unit.element alpha=nan",
         lambda: fp.approximate_element(unit, periodic, float("nan"), 0, 0, 1e-6)),
        ("wrong.element", lambda: fp.approximate_element(wrong, zero, 0.5, 0, 0, 1e-6)),
        ("wrong.solve", lambda: fp.local_solve(wrong, zero, {0: 1.0}, [0], 1e-6)),
        ("tiny.solve", lambda: fp.local_solve(tiny, zero, {0: 1.0}, [0], 1e-6)),
        ("tiny.solve zero rhs", lambda: fp.local_solve(tiny, zero, {0: 0.0}, [0], 1e-6)),
    ):
        _emit(out, name, call)

    huge = ("10**400", 10**400)
    for label, value in (("'0.5'", "0.5"), ("None", None), ("0.5j", 0.5j), huge):
        _emit(out, f"unit.element alpha={label}",
              lambda: fp.approximate_element(unit, periodic, value, 0, 0, 1e-6))
        _emit(out, f"unit.window alpha={label}",
              lambda: fp.evaluate_window(unit, periodic, value, 0, 0, fp.Window(4, 4)))
        _emit(out, f"unit.table alpha={label}",
              lambda: fp.convergence_table(unit, periodic, value, 0, 0, [fp.Window(4, 4)]))
    for label, value in (("'1e-6'", "1e-6"), ("None", None), huge):
        _emit(out, f"unit.element tol={label}",
              lambda: fp.approximate_element(unit, periodic, 0.5, 0, 0, value))
        _emit(out, f"unit.solve tol={label}",
              lambda: fp.local_solve(unit, periodic, {0: 1.0}, [0], value))
    for label, value in (("'x'", "x"), ("None", None), huge):
        _emit(out, f"unit.solve rhs={label}",
              lambda: fp.local_solve(unit, periodic, {0: value}, [0], 1e-6))
    envelope = {"c": 1.0, "norm_bound": 5.0}
    _emit(out, "config offsets [false, true, -1]", lambda: _from_config({
        "kind": "banded", "offsets": [False, True, -1], "stencil": [3.0, -1.0, -1.0],
        "envelope": envelope}))
    _emit(out, "config corner [-4, true, -1.0, 0.0]", lambda: _from_config({
        "kind": "lattice", "a": 1.0, "b": 1.0,
        "boundary": {"kind": "corners", "entries": [[-4, True, -1.0, 0.0]]}}))
    return out


def main() -> int:
    print("\n".join(answers()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
