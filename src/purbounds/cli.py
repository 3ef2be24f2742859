"""Command-line front end.

Subcommands:

    bounds <file>                    full bound report for one instance (JSON)
    sweep --points N --out F         qubit phase sweep to CSV
    random --count --dims --seed --tol   randomized invariant suite (JSON)
    montecarlo --file --samples --seed   statistical bound check (JSON)

Exit codes: 0 success, 1 I/O error, 2 validation or usage error, 3 invariant
(or 5-sigma) violation, 4 eigensolver failure. `main` owns the failure path: a
command raises an OSError, a ValueError or an EigensolverError, with its
context added to the message, and `main` prints it as one `error:` line with
exit 1, 2 or 4.
"""

from __future__ import annotations

import argparse
import math
import sys
from operator import attrgetter

from .bounds import _kernel, _value_rows, bound_report
from .quantum import EigensolverError, _equatorial_vectors, _integer, pauli_x, pauli_z

# `instances`, `verify` and `montecarlo` are imported inside the commands that run them, so that a cold
# process loads only the modules of its own subcommand

__all__ = [
    "SWEEP_FIELDS",
    "qubit_sweep",
    "write_sweep_csv",
    "main",
    "entrypoint",
    "EXIT_OK",
    "EXIT_IO",
    "EXIT_VALIDATION",
    "EXIT_VIOLATION",
    "EXIT_SOLVER",
    "DEFAULT_SWEEP_POINTS",
    "DEFAULT_MONTECARLO_SEED",
]

EXIT_OK = 0
EXIT_IO = 1
EXIT_VALIDATION = 2
EXIT_VIOLATION = 3
EXIT_SOLVER = 4

# fine enough to render the bound curves smoothly, and includes alpha = 0
DEFAULT_SWEEP_POINTS = 241

DEFAULT_MONTECARLO_SEED = 42

SWEEP_FIELDS = ("alpha", "var_a", "var_b", "sum_var", "prod_var", "t1", "t2", "l1", "l2")


def qubit_sweep(points: int) -> list[tuple[float, ...]]:
    """Rows in SWEEP_FIELDS order at alpha_k = 2 pi k / points, for A = X, B = Z on the equatorial state."""
    points = _integer("points", points, 2)
    a, b = pauli_x(), pauli_z()
    alphas = [math.tau * k / points for k in range(points)]
    # every point is one row of a single kernel call, and only its values are read
    fields = attrgetter(*SWEEP_FIELDS[1:])
    rows = _value_rows(_kernel(a, b, _equatorial_vectors(alphas)))
    return [(alpha, *fields(row)) for alpha, row in zip(alphas, rows)]


def _fmt(x: float) -> str:
    # shortest representation capped at 12 significant digits
    return f"{x:.12g}"


def write_sweep_csv(rows: list[tuple[float, ...]], fh) -> None:
    fh.write(",".join(SWEEP_FIELDS) + "\n")
    for row in rows:
        fh.write(",".join(_fmt(value) for value in row) + "\n")


def _load(path: str):
    """The instance in `path`; a failure is re-raised with the path, an OSError or a ValueError."""
    from .instances import InstanceFormatError, load_instance

    try:
        return load_instance(path)
    except OSError as exc:
        raise OSError(f"cannot read {path}: {exc}") from exc
    except InstanceFormatError as exc:
        raise ValueError(f"invalid instance {path}: {exc}") from exc
    except ValueError as exc:
        # from json.load: a decode error, or an integer literal past the interpreter's digit limit
        raise ValueError(f"malformed JSON in {path}: {exc}") from exc


def cmd_bounds(args) -> int:
    from .instances import json_dumps, report_to_dict

    instance = _load(args.file)
    try:
        report = bound_report(instance.a, instance.b, instance.state, user_xi_perp=instance.xi_perp)
    except ValueError as exc:
        raise ValueError(f"invalid instance {args.file}: {exc}") from exc
    print(json_dumps(report_to_dict(report)))
    return EXIT_OK


def cmd_sweep(args) -> int:
    rows = qubit_sweep(args.points)
    try:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            write_sweep_csv(rows, fh)
    except OSError as exc:
        raise OSError(f"cannot write {args.out}: {exc}") from exc
    return EXIT_OK


def cmd_random(args) -> int:
    from .instances import json_dumps
    from .verify import run_invariant_suite

    # an option left unset takes run_invariant_suite's own default
    options = {name: getattr(args, name) for name in ("count", "seed", "tol") if getattr(args, name) is not None}
    if args.dims is not None:
        try:
            options["dims"] = tuple(int(part) for part in args.dims.split(","))
        except ValueError:
            raise ValueError(f"--dims must be a comma-separated integer list, got {args.dims!r}") from None
    report = run_invariant_suite(**options)
    print(json_dumps(report.to_dict()))
    return EXIT_OK if report.passed else EXIT_VIOLATION


def cmd_montecarlo(args) -> int:
    from .instances import json_dumps
    from .montecarlo import statistical_bound_check

    instance = _load(args.file)
    report = statistical_bound_check(instance.a, instance.b, instance.state, n=args.samples, seed=args.seed)
    print(json_dumps(report.to_dict()))
    return EXIT_OK if not report.violation else EXIT_VIOLATION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="purbounds",
        description="Preparation-uncertainty bounds: Heisenberg-Robertson-Schrodinger and Maccone-Pati.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_bounds = sub.add_parser("bounds", help="compute all bounds for a JSON instance file")
    p_bounds.add_argument("file", help="instance file path")
    p_bounds.set_defaults(func=cmd_bounds)

    p_sweep = sub.add_parser("sweep", help="qubit phase sweep for X/Z, written as CSV")
    p_sweep.add_argument("--points", type=int, default=DEFAULT_SWEEP_POINTS, help="grid points over [0, 2pi)")
    p_sweep.add_argument("--out", required=True, help="output CSV path")
    p_sweep.set_defaults(func=cmd_sweep)

    p_random = sub.add_parser("random", help="run the randomized invariant suite")
    p_random.add_argument("--count", type=int, help="number of random instances")
    p_random.add_argument("--dims", help="comma-separated dimensions to cycle")
    p_random.add_argument("--seed", type=int, help="master seed")
    p_random.add_argument("--tol", type=float, help="violation tolerance")
    p_random.set_defaults(func=cmd_random)

    p_mc = sub.add_parser("montecarlo", help="statistical bound check from sampled outcomes")
    p_mc.add_argument("--file", required=True, help="instance file path")
    p_mc.add_argument("--samples", type=int, default=100_000, help="measurement samples per observable")
    p_mc.add_argument("--seed", type=int, default=DEFAULT_MONTECARLO_SEED, help="sampling seed")
    p_mc.set_defaults(func=cmd_montecarlo)

    return parser


def main(argv=None) -> int:
    """Runs one subcommand. The CLI's one failure path: an OSError (a closed stdout included) exits
    EXIT_IO, a ValueError EXIT_VALIDATION and an EigensolverError EXIT_SOLVER, each printed as one
    `error:` line."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, EigensolverError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, EigensolverError):
            return EXIT_SOLVER
        return EXIT_IO if isinstance(exc, OSError) else EXIT_VALIDATION


def entrypoint() -> None:
    sys.exit(main())
