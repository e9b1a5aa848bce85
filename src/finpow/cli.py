"""Command-line front end.

Subcommands: ``approx`` (one certified element), ``table`` (per-window CSV),
``solve`` (certified local solution of W x = f), ``example`` (lattice
convergence study against the dispersion integral).

Exit codes: 0 converged, 2 not converged (best certificate still printed),
3 invalid input or violated premises.
"""

from __future__ import annotations

import argparse
import sys

from .config import load_config
from .core import Window
from .driver import (
    MAX_DIM,
    approximate_element,
    convergence_table,
    evaluate_window,
    local_solve,
)
from .errors import ConfigError, FinpowError, NotConvergedError
from .lattice import LatticeModelParams, dispersion_integral_element, periodic_policy, lattice_spec

TABLE_HEADER = "P,Q,value_re,value_im,j_pq,bound"
SOLVE_HEADER = "index,value_re,value_im,bound"
EXAMPLE_HEADER = "N,value,reference,abs_error,bound"


class _UsageError(FinpowError):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; remap to 3 so that exit
    # code 2 stays reserved for not-converged results.
    def error(self, message):
        raise _UsageError(message)


# Values of these flags are comma lists that may start with '-' (negative
# indices), which argparse would otherwise read as an option; fold the value
# into a single '--flag=value' token before parsing.
_LIST_FLAGS = ("--out", "--windows", "--sizes")


def _merge_list_flags(argv: list[str]) -> list[str]:
    merged = []
    tokens = iter(argv)
    for token in tokens:
        if token in _LIST_FLAGS:
            value = next(tokens, None)
            merged.append(token if value is None else f"{token}={value}")
        else:
            merged.append(token)
    return merged


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _parse_windows(text: str) -> list[Window]:
    windows = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            if ":" in token:
                p_str, q_str = token.split(":", 1)
                windows.append(Window(int(p_str), int(q_str)))
            else:
                size = int(token)
                windows.append(Window(size, size))
        except ValueError as exc:
            raise _UsageError(f"bad window token {token!r}: {exc}") from exc
        if windows[-1].dim > MAX_DIM:
            raise _UsageError(
                f"window {token!r} has dimension {windows[-1].dim}, above the "
                f"limit {MAX_DIM}"
            )
    if not windows:
        raise _UsageError("--windows must list at least one window")
    return windows


def _parse_indices(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise _UsageError(f"bad index list {text!r}: {exc}") from exc


def _read_rhs(path: str) -> dict[int, complex]:
    rhs: dict[int, complex] = {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                parts = [p.strip() for p in line.split(",")]
                if len(parts) != 3:
                    raise ConfigError(
                        f"{path}:{lineno}: expected 'index,re,im', got {line!r}"
                    )
                idx, re, im = int(parts[0]), float(parts[1]), float(parts[2])
                rhs[idx] = rhs.get(idx, 0.0 + 0.0j) + complex(re, im)
    except OSError as exc:
        raise ConfigError(f"cannot read rhs file {path}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"bad rhs file {path}: {exc}") from exc
    return rhs


def cmd_approx(args) -> int:
    model = load_config(args.config)
    cert = approximate_element(
        model.spec, model.boundary_policy, args.alpha, args.m, args.n, args.tol,
        max_dim=args.max_dim,
    )
    print(cert.to_json())
    return 0


def cmd_table(args) -> int:
    model = load_config(args.config)
    windows = _parse_windows(args.windows)
    rows = convergence_table(
        model.spec, model.boundary_policy, args.alpha, args.m, args.n, windows
    )
    print(TABLE_HEADER)
    for window, row in zip(windows, rows):
        if isinstance(row, FinpowError):
            print(f"{window.P},{window.Q},nan,nan,nan,nan")
            print(f"# window [-{window.P}, {window.Q}] failed: {row}", file=sys.stderr)
        else:
            print(
                f"{window.P},{window.Q},{_fmt(row.value.real)},{_fmt(row.value.imag)},"
                f"{row.depth.j_pq},{_fmt(row.bound)}"
            )
    return 0


def cmd_solve(args) -> int:
    model = load_config(args.config)
    rhs = _read_rhs(args.rhs)
    out_indices = _parse_indices(args.out)
    solution = local_solve(
        model.spec, model.boundary_policy, rhs, out_indices, args.tol,
        max_dim=args.max_dim,
    )
    print(SOLVE_HEADER)
    for idx in out_indices:
        value, bound = solution[idx]
        print(f"{idx},{_fmt(value.real)},{_fmt(value.imag)},{_fmt(bound)}")
    return 0


def cmd_example(args) -> int:
    params = LatticeModelParams(a=args.a, b=args.b)
    sizes = _parse_indices(args.sizes)
    for size in sizes:
        if size < 3 or size % 2 == 0:
            raise ConfigError(f"sizes must be odd integers >= 3, got {size}")
        if size > MAX_DIM:
            raise ConfigError(f"size {size} is above the dimension limit {MAX_DIM}")
    spec = lattice_spec(params)
    policy = periodic_policy(params)
    # Certificates first, so a premise failure raises before the quadrature.
    certs = [
        evaluate_window(spec, policy, args.alpha, 0, 0, Window(size // 2, size // 2))
        for size in sizes
    ]
    reference = dispersion_integral_element(params, args.alpha, 0, 0)
    lines = [EXAMPLE_HEADER]
    for size, cert in zip(sizes, certs):
        value = cert.value.real
        lines.append(
            f"{size},{_fmt(value)},{_fmt(reference)},"
            f"{_fmt(abs(value - reference))},{_fmt(cert.bound)}"
        )
    print("\n".join(lines))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="finpow",
        description=(
            "Certified finite-section approximation of matrix elements of "
            "real powers of infinite sparse Hermitian matrices."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    approx = sub.add_parser("approx", help="certify one element of W**alpha")
    approx.add_argument("config", help="model config file (JSON)")
    approx.add_argument("--alpha", type=float, required=True, help="real power")
    approx.add_argument("--m", type=int, required=True, help="row index")
    approx.add_argument("--n", type=int, required=True, help="column index")
    approx.add_argument("--tol", type=float, required=True, help="target bound")
    approx.add_argument(
        "--max-dim", type=int, default=MAX_DIM,
        help="largest truncation dimension to try",
    )
    approx.set_defaults(func=cmd_approx)

    table = sub.add_parser("table", help="per-window convergence table (CSV)")
    table.add_argument("config", help="model config file (JSON)")
    table.add_argument("--alpha", type=float, required=True)
    table.add_argument("--m", type=int, required=True)
    table.add_argument("--n", type=int, required=True)
    table.add_argument(
        "--windows", required=True,
        help="comma-separated windows, each 'g' (P=Q=g) or 'P:Q'",
    )
    table.set_defaults(func=cmd_table)

    solve = sub.add_parser("solve", help="certified local solve of W x = f")
    solve.add_argument("config", help="model config file (JSON)")
    solve.add_argument("--rhs", required=True, help="file of 'index,re,im' lines")
    solve.add_argument("--out", required=True, help="comma-separated output indices")
    solve.add_argument("--tol", type=float, required=True, help="total bound target")
    solve.add_argument(
        "--max-dim", type=int, default=MAX_DIM,
        help="largest truncation dimension per element",
    )
    solve.set_defaults(func=cmd_solve)

    example = sub.add_parser(
        "example", help="lattice convergence study against the dispersion integral"
    )
    example.add_argument("--a", type=float, required=True, help="mass-like coefficient")
    example.add_argument("--b", type=float, required=True, help="coupling")
    example.add_argument("--alpha", type=float, required=True)
    example.add_argument(
        "--sizes", required=True, help="comma-separated odd truncation dimensions"
    )
    example.set_defaults(func=cmd_example)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_merge_list_flags(list(argv)))
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    try:
        return args.func(args)
    except NotConvergedError as exc:
        if exc.best_certificate is not None:
            print(exc.best_certificate.to_json())
        print(f"not converged: {exc}", file=sys.stderr)
        return 2
    except (_UsageError, FinpowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
