"""Seeded inputs of the four workloads.

Both the worker (which feeds them to finpow) and the checker (which computes
independent references for them) call these functions, so a case is named by
``(round, index)`` alone and never has to be serialized.  Nothing here
imports finpow: the program sees only the values generated here.

Every round of a workload holds the same number of operations in the same
strata, and the seed moves only what does not change the amount of work
much (element positions, stencil shapes, right-hand sides, order).  That is
what keeps the figures of runs with different seeds comparable.
"""

from __future__ import annotations

import numpy as np

WORKLOADS = ("lattice-approx", "banded-batch", "local-solve", "cli")

LATTICE_ALPHAS = (-1.0, -0.5, 0.5, 1.5)
LATTICE_TOLS = (1e-6, 1e-12, 1e-40)

# (-1, 2, -1) with c = 0: alpha = 1.5 at (0, 0), certified first at dim 1025.
C0_CASE = {"model": "c0", "alpha": 1.5, "m": 0, "n": 0, "tol": 1e-3}

# Fails today: windows must contain the origin, so no window of the default
# schedule around (5000, 5000) fits under max_dim.  Does not depend on the seed.
FAR_CASE = {"model": "unit", "alpha": -0.5, "m": 5000, "n": 5000, "tol": 1e-12}

BANDED_ALPHAS = (-1.0, -0.5, 0.5, 1.5)
BANDED_HALFBANDS = (1, 2, 3)
# c/w of the random banded specs and the log10 range of their tolerances.
BANDED_RATIO = (0.4, 0.7)
BANDED_LOG_TOL = (-8.0, -4.0)

# Lattice models (a, b) of local-solve; c/w = a / (a + 4b) is 0.2, 0.33, 0.11.
SOLVE_MODELS = ((1.0, 1.0), (2.0, 1.0), (0.5, 1.0))
SOLVE_TOL = 1e-10
SOLVE_RHS = (0, 2, 4)
SOLVE_OUTS = (0, 1, 3, 5, 6)

# Round index of the banded-batch warm-up case, past any round a run reaches.
WARMUP_ROUND = 10**6


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed % 2**32, *stream])


def _at_reach(rng, reach: int, diagonal: bool) -> tuple[int, int]:
    """An element with ``max(|m|, |n|) == reach``.

    The window schedule and the truncation depth depend on the element only
    through that maximum, so every seed gets the same windows.
    """
    m = reach * int(rng.choice((-1, 1)))
    if diagonal:
        return m, m
    n = int(rng.integers(-reach, reach))
    n = n if n != m else reach - 1
    return (m, n) if rng.integers(0, 2) else (n, m)


def _signed(rng, magnitudes) -> list[int]:
    return [int(v) * int(rng.choice((-1, 1))) if v else 0 for v in magnitudes]


def _stratified(rng, lo: float, hi: float, count: int) -> np.ndarray:
    """One uniform draw from each of ``count`` equal slices of [lo, hi], shuffled."""
    u = (np.arange(count) + rng.uniform(size=count)) / count
    return lo + (hi - lo) * rng.permutation(u)


def lattice_round(seed: int) -> list[dict]:
    """One round of lattice-approx; every round repeats it.

    The 12 (alpha, tol) pairs on the unit lattice, half of them at a diagonal
    element, then the c = 0 case and the far element.
    """
    rng = _rng(seed, 1)
    pairs = [(a, t) for a in LATTICE_ALPHAS for t in LATTICE_TOLS]
    diagonal = np.zeros(len(pairs), dtype=bool)
    diagonal[rng.permutation(len(pairs))[: len(pairs) // 2]] = True
    cases = []
    for (alpha, tol), diag in zip(pairs, diagonal):
        m, n = _at_reach(rng, 2, bool(diag))
        cases.append({"model": "unit", "alpha": alpha, "m": m, "n": n, "tol": tol})
    cases = [cases[i] for i in rng.permutation(len(cases))]
    return cases + [dict(C0_CASE), dict(FAR_CASE)]


def symbol(offsets, stencil, theta: np.ndarray) -> np.ndarray:
    """Fourier symbol sum_o t_o exp(i o theta) of a Hermitian stencil (real)."""
    total = np.zeros(theta.shape, dtype=np.complex128)
    for o, v in zip(offsets, stencil):
        total += complex(v) * np.exp(1j * o * theta)
    return total.real


def _banded_case(rng, halfband, is_complex, alpha, ratio, log_tol) -> dict:
    off = rng.standard_normal(halfband)
    if is_complex:
        off = off + 1j * rng.standard_normal(halfband)
    off[-1] += np.sign(off[-1].real) or 1.0  # keep the outer band away from 0
    offsets = list(range(-halfband, halfband + 1))
    upper = [complex(v) if is_complex else float(v) for v in off]
    lower = [v.conjugate() for v in reversed(upper)]
    theta = 2.0 * np.pi * np.arange(8192) / 8192
    g = symbol(offsets, lower + [0.0] + upper, theta)
    g_lo, g_hi = float(g.min()), float(g.max())
    # The grid misses the extremes of a degree-<=3 trigonometric polynomial
    # by far less than this margin, so the envelope below is rigorous.
    slack = 1e-3 * (g_hi - g_lo)
    diag = (ratio * (g_hi + slack) - g_lo + slack) / (1.0 - ratio)
    scale = 1.0 / (diag + g_hi + slack)
    stencil = [v * scale for v in lower] + [diag * scale] + [v * scale for v in upper]
    m, n = _at_reach(rng, 2, bool(rng.integers(0, 2)))
    return {
        "offsets": offsets,
        "stencil": stencil,
        "c": (diag + g_lo - slack) * scale,
        "norm_bound": 1.0,
        "alpha": alpha,
        "m": m,
        "n": n,
        "tol": float(10.0**log_tol),
    }


def banded_round(seed: int, r: int) -> list[dict]:
    """Round ``r`` of banded-batch: 24 fresh specs, one element each.

    One spec for each (half-bandwidth, real or complex, alpha).  c/w and
    log10(tol) take one value from each of 24 equal slices of their ranges,
    paired with the strata at random; the stencil shape and the element are
    drawn.  No two cases of a run share a matrix.
    """
    rng = _rng(seed, 2, r)
    strata = [
        (l, cplx, alpha)
        for l in BANDED_HALFBANDS
        for cplx in (False, True)
        for alpha in BANDED_ALPHAS
    ]
    ratios = _stratified(rng, *BANDED_RATIO, len(strata))
    log_tols = _stratified(rng, *BANDED_LOG_TOL, len(strata))
    cases = [_banded_case(rng, *s, float(q), float(t))
             for s, q, t in zip(strata, ratios, log_tols)]
    return [cases[i] for i in rng.permutation(len(cases))]


def solve_round(seed: int) -> list[dict]:
    """One round of local-solve, one solve per lattice model; rounds repeat it.

    Each solve has right-hand-side entries at distances SOLVE_RHS from the
    origin, with unit l1 norm, and outputs at distances SOLVE_OUTS; the seed
    draws the signs of the indices and the values.
    """
    rng = _rng(seed, 3)
    cases = []
    for a, b in SOLVE_MODELS:
        idx = _signed(rng, SOLVE_RHS)
        vals = rng.standard_normal(len(idx)) + 1j * rng.standard_normal(len(idx))
        vals = vals / np.abs(vals).sum()
        outs = _signed(rng, SOLVE_OUTS)
        cases.append({
            "a": a,
            "b": b,
            "f": {int(i): complex(v) for i, v in zip(idx, vals)},
            "outs": [int(o) for o in outs],
            "tol": SOLVE_TOL,
        })
    return cases


def cli_round(seed: int) -> list[dict]:
    """One round of cli invocations; rounds repeat it.

    ``argv`` refers to files by role ("lattice", "banded", "rhs"); the worker
    substitutes the paths of the files it wrote.  The last invocation fails
    today: ``--alpha nan`` should exit 3 but ends in a traceback.
    """
    rng = _rng(seed, 4)
    alpha = 0.5
    m, n = _at_reach(rng, 2, False)
    bm, bn = _at_reach(rng, 2, True)
    solve = solve_round(seed)[0]
    return [
        {"cmd": "approx", "model": "lattice", "alpha": alpha, "m": m, "n": n, "tol": 1e-8,
         "argv": ["approx", "@lattice", "--alpha", repr(alpha), "--m", str(m),
                  "--n", str(n), "--tol", "1e-8"]},
        {"cmd": "approx", "model": "banded", "alpha": -alpha, "m": bm, "n": bn, "tol": 1e-6,
         "argv": ["approx", "@banded", "--alpha", repr(-alpha), "--m", str(bm),
                  "--n", str(bn), "--tol", "1e-6"]},
        {"cmd": "table", "model": "lattice", "alpha": alpha, "m": m, "n": n,
         "windows": [8, 16, 32],
         "argv": ["table", "@lattice", "--alpha", repr(alpha), "--m", str(m),
                  "--n", str(n), "--windows", "8,16,32"]},
        {"cmd": "solve", "model": "lattice", "f": solve["f"], "outs": solve["outs"],
         "tol": 1e-8,
         "argv": ["solve", "@lattice", "--rhs", "@rhs", "--out",
                  ",".join(str(o) for o in solve["outs"]), "--tol", "1e-8"]},
        {"cmd": "example", "alpha": alpha, "sizes": [33, 65, 129],
         "argv": ["example", "--a", "1", "--b", "1", "--alpha", repr(alpha),
                  "--sizes", "33,65,129"]},
        {"cmd": "nan",
         "argv": ["approx", "@lattice", "--alpha", "nan", "--m", "0", "--n", "0",
                  "--tol", "1e-6"]},
    ]


# Model files of the cli workload.  The banded one is the real stencil
# (-1, 3, -1) / 5 with its exact envelope.
CLI_FILES = {
    "lattice": {"kind": "lattice", "a": 1.0, "b": 1.0, "boundary": {"kind": "periodic"}},
    "banded": {"kind": "banded", "offsets": [-1, 0, 1], "stencil": [-0.2, 0.6, -0.2],
               "envelope": {"c": 0.2, "norm_bound": 1.0, "d": 0.0},
               "boundary": {"kind": "zero"}},
}
CLI_LATTICE = (1.0, 1.0)


def rhs_text(f: dict) -> str:
    return "".join(f"{i},{v.real!r},{v.imag!r}\n" for i, v in sorted(f.items()))
