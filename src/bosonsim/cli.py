"""Command-line interface.

Subcommands cover the whole toolkit: permanents of matrices from JSON
files, Fock basis listing, bosonic/fermionic amplitudes, full output
distributions, poly-time per-mode expectations, seeded sampling with a
chi-square self-test, unitarity/symplectic checks, and Haar-random unitary
generation.

Exit codes: 0 on success, 2 on input errors, 3 on numerical validation
failures.  Input errors are malformed files, dimension mismatches and
oversized requests: past the basis cap or the permanent size guard, too
large to allocate, or with numbers past double range.  Each input is
checked once, by the library function that uses it.  Output into a pipe
that the reader has closed also exits 2, with one error line.  The CLI
renders distributions itself, as JSON or, a block of outcomes at a time, as
CSV; all floating-point output uses 17 significant digits so runs are
byte-for-byte reproducible.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import bosonic, fermionic, fock, permanents, sampling, transforms
from .errors import ValidationError
from .formatting import format_complex, format_float, render_json


def _load_matrix(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deep
            raise ValueError(f"{path}: malformed JSON ({exc})") from exc
    return transforms.matrix_from_jsonable(payload)


def _load_unitary(args):
    return transforms.validate_unitary(_load_matrix(args.matrix), tol=args.tol)


def cmd_permanent(args) -> int:
    m = _load_matrix(args.matrix)
    kernel = permanents.permanent_naive if args.naive else permanents.permanent_glynn
    print(f"permanent = {format_complex(kernel(m))}")
    return 0


def cmd_basis(args) -> int:
    for state in fock.enumerate_basis(args.d, args.n, cap=args.cap).tolist():
        print(fock.format_state(state))
    return 0


def cmd_amplitude(args) -> int:
    u = _load_unitary(args)
    inp, out = fock.parse_state(args.input_state), fock.parse_state(args.output_state)
    if args.fermion:
        value = fermionic.fermion_amplitude(u, inp, out)
    else:
        value = bosonic.transition_amplitude(u, inp, out)
    print(f"amplitude = {format_complex(value)}")
    print(f"probability = {format_float(abs(value) ** 2)}")
    return 0


def cmd_distribution(args) -> int:
    u = _load_unitary(args)
    inp = fock.parse_state(args.input_state)
    compute = fermionic.fermion_distribution if args.fermion else bosonic.output_distribution
    dist = compute(u, inp, cap=args.cap)
    if args.format == "json":
        print(render_json(_distribution_to_jsonable(dist)))
        return 0
    # CSV, written a block of outcomes at a time; + 0.0 prints -0.0 as 0, as format_float does
    print("state;probability")
    for lo in range(0, len(dist), permanents.OUTCOME_BLOCK):
        hi = lo + permanents.OUTCOME_BLOCK
        rows = zip(dist.states[lo:hi].tolist(), dist.probabilities[lo:hi].tolist())
        sys.stdout.write("".join(f"{','.join(map(str, s))};{p + 0.0:.17g}\n" for s, p in rows))
    return 0


def _distribution_to_jsonable(dist) -> dict:
    """Distribution payload: input state, then one record per outcome."""
    columns = zip(
        dist.states.tolist(),
        dist.probabilities.tolist(),
        dist.amplitudes.real.tolist(),
        dist.amplitudes.imag.tolist(),
    )
    return {
        "input": [int(r) for r in dist.input_state],
        "outcomes": [
            {"state": state, "probability": p, "amplitude": [re, im]}
            for state, p, re, im in columns
        ],
    }


def cmd_expect(args) -> int:
    u = _load_unitary(args)
    inp = fock.parse_state(args.input_state)
    if args.fermion:
        values = fermionic.fermion_mode_probabilities(u, inp)
    else:
        values = bosonic.mean_photon_numbers(u, inp)
    for k, value in enumerate(values, start=1):
        print(f"mode {k} = {format_float(value)}")
    print(f"total = {format_float(float(values.sum()))}")
    return 0


def cmd_sample(args) -> int:
    u = _load_unitary(args)
    inp = fock.parse_state(args.input_state)
    dist = bosonic.output_distribution(u, inp, cap=args.cap)
    counts = sampling.sample(dist, count=args.count, seed=args.seed)
    gof = sampling.chi_square_gof(counts, dist)
    expected = dist.probabilities * args.count
    # one template per outcome: a list of ints prints as its JSON array, as in render_json,
    # and + 0.0 prints -0.0 as 0, as format_float does
    records = ", ".join(
        f'{{"state": {state}, "observed": {observed}, '
        f'"expected": {value + 0.0:.17g}}}'
        for state, observed, value in zip(dist.states.tolist(), counts.tolist(), expected.tolist())
    )
    chi_square = render_json(
        {
            "statistic": gof.statistic,
            "p_value": gof.p_value,
            "degrees_of_freedom": gof.degrees_of_freedom,
            "bins": gof.bins,
        }
    )
    print(
        f'{{"input": {render_json(inp)}, "seed": {args.seed}, "count": {args.count}, '
        f'"counts": [{records}], "chi_square": {chi_square}}}'
    )
    return 0


def cmd_check(args) -> int:
    transforms.check_tolerance(args.tol)  # a bad --tol fails before anything is printed
    m = _load_matrix(args.matrix)
    unitary_dev = transforms.unitarity_deviation(m)
    real = transforms.realify(m)
    _, symp_dev = transforms.check_symplectic(real)
    _, orth_dev = transforms.check_orthogonal(real)
    print(f"unitarity deviation = {format_float(unitary_dev)}")
    print(f"symplectic deviation = {format_float(symp_dev)}")
    print(f"orthogonal deviation = {format_float(orth_dev)}")
    transforms.validate_unitary(m, tol=args.tol)
    print("ok")
    return 0


def cmd_random_unitary(args) -> int:
    u = transforms.random_haar_unitary(args.d, seed=args.seed)
    print(render_json(transforms.matrix_to_jsonable(u)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bosonsim",
        description="Exact linear-optics simulator: permanents, Fock distributions, "
        "and the determinant-based fermionic counterpart.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    tol = argparse.ArgumentParser(add_help=False)
    tol.add_argument(
        "--tol",
        type=float,
        default=transforms.DEFAULT_UNITARITY_TOL,
        help="unitarity tolerance (max-norm)",
    )
    cap = argparse.ArgumentParser(add_help=False)
    cap.add_argument("--cap", type=int, default=fock.DEFAULT_BASIS_CAP, help="basis size cap")

    p = subparsers.add_parser("permanent", help="permanent of a matrix JSON file")
    p.add_argument("matrix")
    p.add_argument("--naive", action="store_true", help="use the n! oracle kernel")
    p.set_defaults(func=cmd_permanent)

    p = subparsers.add_parser("basis", parents=[cap], help="list the canonical Fock basis")
    p.add_argument("--d", type=int, required=True, help="number of modes")
    p.add_argument("--n", type=int, required=True, help="number of particles")
    p.set_defaults(func=cmd_basis)

    p = subparsers.add_parser(
        "amplitude", parents=[tol], help="transition amplitude between Fock states"
    )
    p.add_argument("matrix")
    p.add_argument("--in", dest="input_state", required=True, metavar="R,R,...")
    p.add_argument("--out", dest="output_state", required=True, metavar="R,R,...")
    p.add_argument("--fermion", action="store_true", help="determinant amplitudes")
    p.set_defaults(func=cmd_amplitude)

    p = subparsers.add_parser("distribution", parents=[tol, cap], help="full output distribution")
    p.add_argument("matrix")
    p.add_argument("--in", dest="input_state", required=True, metavar="R,R,...")
    p.add_argument("--fermion", action="store_true")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_distribution)

    p = subparsers.add_parser("expect", parents=[tol], help="poly-time per-mode expectations")
    p.add_argument("matrix")
    p.add_argument("--in", dest="input_state", required=True, metavar="R,R,...")
    p.add_argument("--fermion", action="store_true")
    p.set_defaults(func=cmd_expect)

    p = subparsers.add_parser(
        "sample", parents=[tol, cap], help="seeded sampling with chi-square self-test"
    )
    p.add_argument("matrix")
    p.add_argument("--in", dest="input_state", required=True, metavar="R,R,...")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=cmd_sample)

    p = subparsers.add_parser(
        "check", parents=[tol], help="unitarity and symplectic/orthogonal report"
    )
    p.add_argument("matrix")
    p.set_defaults(func=cmd_check)

    p = subparsers.add_parser("random-unitary", help="emit a Haar-random unitary as JSON")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=cmd_random_unitary)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # a value past double range is refused rather than printed as inf or nan
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            code = args.func(args)
        sys.stdout.flush()  # a reader that has gone fails here, not in the flush at exit
        return code
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        # Python's own allocator raises it without a message
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    except (ValueError, OSError, OverflowError, FloatingPointError) as exc:
        if isinstance(exc, BrokenPipeError):
            # the reader is gone: drop what stdout still buffers, or the flush at exit fails too
            with open(os.devnull, "wb") as devnull:
                os.dup2(devnull.fileno(), sys.stdout.fileno())
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
