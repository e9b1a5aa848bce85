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

or let it compare the other checkout's output with its own answers::

    PYTHONPATH=src python tools/answers.py --compare answers.txt

``--compare FILE`` pairs each line of FILE with the answer whose id is the
longest that the line starts with (an id may be the start of another, as
``... (0,0)`` is of ``... (0,0) max_dim=65``), so an answer added anywhere in
the grid moves no other.  It exits 1 and prints the pair of lines wherever
an answer differs in bound, ``j_pq``, ``P``, ``Q`` or error class, or in a
value by more than ``VALUE_ULPS`` units of ``eps`` times the value's scale:
``w**alpha`` for an element of ``W**alpha`` (it bounds every one),
``sum |f_n| / w`` for a local-solve component.  Error messages may differ.
A line of FILE whose id this grid lacks (or repeats one) also exits 1.  An
id that only this grid has is listed as new, and does not fail.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

import finpow as fp
from finpow.config import parse_config

ALPHAS = (-1.0, -0.5, 0.5, 1.5, 2.5)
TOLS = (1e-6, 1e-12, 1e-40)
ELEMENTS = ((0, 0), (-2, 3))
SEED = 20261020
VALUE_ULPS = 16
_EPS = float(np.finfo(np.float64).eps)


def _hex(x) -> str:
    return float(x).hex()


def _certificate(cert) -> str:
    value, window = complex(cert.value), cert.depth.window
    return (f"{_hex(value.real)} {_hex(value.imag)} {_hex(cert.bound)} "
            f"{cert.depth.j_pq} {window.P} {window.Q}")


def _error(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def _scale(cert) -> float:
    return cert.envelope_used.w ** cert.alpha


def _emit(out, name: str, call, scale: float = 0.0) -> None:
    """``(id, answer, scale)`` for the answer of ``call()``, or for the error
    it raised: one per certificate, local-solve component (of scale
    ``scale``) or table row."""
    try:
        answer = call()
    except Exception as exc:  # a bare exception is an answer too
        out.append((name, _error(exc), 0.0))
        best = getattr(exc, "best_certificate", None)
        if best is not None:
            out.append((f"{name}.best", _certificate(best), _scale(best)))
        return
    if isinstance(answer, dict):  # a local solve, one line per component
        for m, (value, bound) in answer.items():
            value = complex(value)
            out.append((f"{name}[{m}]", f"{_hex(value.real)} {_hex(value.imag)} {_hex(bound)}",
                        scale))
    elif isinstance(answer, list):  # a convergence table, one line per window
        for i, row in enumerate(answer):
            if isinstance(row, Exception):
                out.append((f"{name}[{i}]", _error(row), 0.0))
            else:
                out.append((f"{name}[{i}]", _certificate(row), _scale(row)))
    else:
        out.append((name, _certificate(answer), _scale(answer)))


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


def _grid() -> list[tuple[str, str, float]]:
    """``(id, answer, scale)`` of every answer of the grid, in order."""
    out: list[tuple[str, str, float]] = []
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
                      lambda: fp.local_solve(s, fp.zero_boundary, f, outs, tol),
                      sum(map(abs, f.values())) / spec.envelope.w)

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
    _emit(out, "unit.dispersion alpha=True",
          lambda: fp.dispersion_integral_element(params, True, 0, 0))
    _emit(out, "unit.dispersion index 0.5",
          lambda: fp.dispersion_integral_element(params, 0.5, 0.5, 0))
    _emit(out, "unit.solve rhs=True", lambda: fp.local_solve(unit, periodic, {0: True}, [0], 1e-6))
    # a constructor given a boolean, a string, a number too large for a float
    # or a fractional index, read by an element of what it builds
    numbers = (("True", True), ("'1'", "1"), huge)
    indices = (("True", True), ("'1'", "1"), ("0.5", 0.5))
    for label, value in numbers:
        _emit(out, f"SpectralEnvelope norm_bound={label}", lambda: fp.approximate_element(
            fp.banded_spec([0], [2.0], fp.SpectralEnvelope(1.0, value)), zero, 0.5, 0, 0, 1e-6))
        _emit(out, f"LatticeModelParams a={label}", lambda: fp.approximate_element(
            fp.lattice_spec(fp.LatticeModelParams(value, 1.0)), zero, 0.5, 0, 0, 1e-6))
        _emit(out, f"BoundarySpec value={label}", lambda: fp.evaluate_window(
            unit, lambda w: fp.BoundarySpec({(-4, 4): value}), 0.5, 0, 0, fp.Window(4, 4)))
    for label, value in indices:
        _emit(out, f"Window P={label}",
              lambda: fp.evaluate_window(unit, periodic, 0.5, 0, 0, fp.Window(value, 4)))
        _emit(out, f"InfiniteMatrixSpec k={label}", lambda: fp.approximate_element(
            fp.InfiniteMatrixSpec(unit.row_generator, value, unit.envelope), zero, 0.5, 0, 0,
            1e-6))
        _emit(out, f"BoundarySpec index={label}", lambda: fp.evaluate_window(
            unit, lambda w: fp.BoundarySpec({(value, 4): -1.0}), 0.5, 0, 0, fp.Window(4, 4)))
    # a boolean in a generated row, a boundary key that is no (row, col)
    # pair, boundary entries that are no mapping, an envelope that is a tuple
    one = fp.SpectralEnvelope(1.0, 1.0)
    _emit(out, "InfiniteMatrixSpec row column=True", lambda: fp.approximate_element(
        fp.InfiniteMatrixSpec(lambda m: [(True, 1.0)] if m == 1 else [(m, 1.0)], 1, one),
        zero, 0.5, 1, 1, 1e-6))
    _emit(out, "InfiniteMatrixSpec row value=True", lambda: fp.approximate_element(
        fp.InfiniteMatrixSpec(lambda m: [(m, True)], 1, one), zero, 0.5, 0, 0, 1e-6))
    for label, entries in (("key=4", {4: -1.0}), ("key=(-4, 4, 4)", {(-4, 4, 4): -1.0}),
                           ("entries=[((-4, 4), -1.0)]", [((-4, 4), -1.0)])):
        _emit(out, f"BoundarySpec {label}", lambda: fp.evaluate_window(
            unit, lambda w: fp.BoundarySpec(entries), 0.5, 0, 0, fp.Window(4, 4)))
    _emit(out, "banded_spec envelope=(1.0, 5.0)", lambda: fp.approximate_element(
        fp.banded_spec([0], [2.0], (1.0, 5.0)), zero, 0.5, 0, 0, 1e-6))
    return out


def answers() -> list[str]:
    return [f"{name} {answer}" for name, answer, _ in _grid()]


def _agree(answer: str, other: str, scale: float) -> bool:
    """Whether ``other``, an answer of another checkout, is ``answer`` up to
    round-off: an error of the same class, or the same fields, of which the
    value's two parts (the first two) may differ by ``VALUE_ULPS`` units of
    ``eps`` times ``scale``."""
    ours, theirs = answer.split(), other.split()
    if not answer.startswith(("0x", "-0x")):  # an error: its class, "Name:"
        return theirs[:1] == ours[:1]
    if len(theirs) != len(ours) or theirs[2:] != ours[2:]:
        return False
    try:
        a, b = (complex(float.fromhex(x[0]), float.fromhex(x[1])) for x in (ours, theirs))
    except ValueError:
        return False
    return a == b or abs(a - b) <= VALUE_ULPS * _EPS * scale


def _id(line: str, ids) -> str | None:
    """The longest of ``ids`` that ``line`` starts with, followed by a space."""
    found = None
    for end, char in enumerate(line):
        if char == " " and line[:end] in ids:
            found = line[:end]
    return found


def compare(lines: list[str]) -> tuple[list[str], list[str]]:
    """The differences and the new answers of this grid against ``lines``,
    another checkout's output.  A difference is a line of ``lines`` whose id
    this grid lacks or repeats (``- line``), or whose answer differs from
    this grid's beyond round-off (``- line``, then ``+`` this grid's line).
    A new answer is one whose id no line has (``new`` and this grid's
    line)."""
    grid = {name: (answer, scale) for name, answer, scale in _grid()}
    differences, seen = [], set()
    for other in lines:
        name = _id(other, grid)
        if name is None or name in seen:
            differences.append(f"- {other}")
            continue
        seen.add(name)
        answer, scale = grid[name]
        if not _agree(answer, other[len(name) + 1:], scale):
            differences += [f"- {other}", f"+ {name} {answer}"]
    new = [f"new {name} {answer}" for name, (answer, _) in grid.items() if name not in seen]
    return differences, new


def main(argv: list[str] | tuple[str, ...] = ()) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--compare", metavar="FILE",
                        help="compare FILE, another checkout's output, with these answers")
    args = parser.parse_args(list(argv))
    if args.compare is None:
        print("\n".join(answers()))
        return 0
    with open(args.compare, encoding="utf-8") as handle:
        differences, new = compare(handle.read().splitlines())
    report = differences + new
    if not differences:
        report.append("every shared answer agrees" if new else "every answer agrees")
    print("\n".join(report))
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
