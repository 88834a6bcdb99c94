"""Command-line interface.

Subcommands cover the whole toolkit: permanents of matrices from JSON
files, Fock basis listing, bosonic/fermionic amplitudes, full output
distributions, poly-time per-mode expectations, seeded sampling with a
chi-square self-test, unitarity/symplectic checks, and Haar-random unitary
generation.

Exit codes: 0 on success, 2 on input errors (malformed files, dimension
mismatches, cap violations, requests too large to allocate), 3 on numerical
validation failures.
All floating-point output uses 17 significant digits so runs are
byte-for-byte reproducible.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass

from . import bosonic, fermionic, fock, sampling, transforms
from .errors import ValidationError
from .formatting import format_complex, format_float, render_json
from .permanents import permanent_glynn, permanent_naive


@dataclass(frozen=True)
class RunConfig:
    unitarity_tol: float = transforms.DEFAULT_UNITARITY_TOL
    basis_cap: int = fock.DEFAULT_BASIS_CAP
    output_format: str = "json"

    def __post_init__(self):
        # NaN fails every comparison, so it would silently disable validation
        if not 0 < self.unitarity_tol < math.inf:
            raise ValueError("unitarity tolerance must be positive and finite")
        if self.basis_cap < 1:
            raise ValueError("basis cap must be at least 1")
        if self.output_format not in ("json", "csv"):
            raise ValueError(f"unknown output format {self.output_format!r}")


def _config(args) -> RunConfig:
    return RunConfig(
        unitarity_tol=getattr(args, "tol", transforms.DEFAULT_UNITARITY_TOL),
        basis_cap=getattr(args, "cap", fock.DEFAULT_BASIS_CAP),
        output_format=getattr(args, "format", "json"),
    )


def _load_matrix(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: malformed JSON ({exc})") from exc
    return transforms.matrix_from_jsonable(payload)


def _load_unitary(path: str, config: RunConfig):
    return transforms.validate_unitary(_load_matrix(path), tol=config.unitarity_tol)


def _parse_state(text: str, d: int) -> tuple[int, ...]:
    state = fock.parse_state(text)
    if len(state) != d:
        raise ValueError(f"state {text!r} has {len(state)} modes, matrix has {d}")
    return state


def cmd_permanent(args) -> int:
    m = _load_matrix(args.matrix)
    kernel = permanent_naive if args.naive else permanent_glynn
    print(f"permanent = {format_complex(kernel(m))}")
    return 0


def cmd_basis(args) -> int:
    config = _config(args)
    basis = fock.enumerate_basis(args.d, args.n, cap=config.basis_cap)
    for state in basis:
        print(fock.format_state(state))
    return 0


def cmd_amplitude(args) -> int:
    config = _config(args)
    u = _load_unitary(args.matrix, config)
    inp = _parse_state(args.input_state, u.shape[0])
    out = _parse_state(args.output_state, u.shape[0])
    if args.fermion:
        value = fermionic.fermion_amplitude(u, inp, out)
    else:
        value = bosonic.transition_amplitude(u, inp, out).value
    print(f"amplitude = {format_complex(value)}")
    print(f"probability = {format_float(abs(value) ** 2)}")
    return 0


def _compute_distribution(u, inp, fermion: bool, config: RunConfig):
    if fermion:
        return fermionic.fermion_distribution(u, inp, cap=config.basis_cap)
    return bosonic.output_distribution(u, inp, cap=config.basis_cap)


def cmd_distribution(args) -> int:
    config = _config(args)
    u = _load_unitary(args.matrix, config)
    inp = _parse_state(args.input_state, u.shape[0])
    dist = _compute_distribution(u, inp, args.fermion, config)
    if config.output_format == "csv":
        sys.stdout.write(bosonic.distribution_to_csv(dist))
    else:
        print(render_json(bosonic.distribution_to_jsonable(dist)))
    return 0


def cmd_expect(args) -> int:
    config = _config(args)
    u = _load_unitary(args.matrix, config)
    inp = _parse_state(args.input_state, u.shape[0])
    if args.fermion:
        values = fermionic.fermion_mode_probabilities(u, inp)
    else:
        values = bosonic.mean_photon_numbers(u, inp)
    for k, value in enumerate(values, start=1):
        print(f"mode {k} = {format_float(value)}")
    print(f"total = {format_float(float(values.sum()))}")
    return 0


def cmd_sample(args) -> int:
    config = _config(args)
    u = _load_unitary(args.matrix, config)
    inp = _parse_state(args.input_state, u.shape[0])
    dist = _compute_distribution(u, inp, fermion=False, config=config)
    run = sampling.sample(dist, count=args.count, seed=args.seed)
    gof = sampling.chi_square_gof(run, dist)
    expected = dist.clamped_probabilities() * run.count
    # one template per outcome; + 0.0 prints -0.0 as 0, as format_float does
    records = ", ".join(
        f'{{"state": [{", ".join(map(str, state))}], "observed": {observed}, '
        f'"expected": {value + 0.0:.17g}}}'
        for state, observed, value in zip(dist.states, run.counts.tolist(), expected.tolist())
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
        f'{{"input": {render_json(inp)}, "seed": {run.seed}, "count": {run.count}, '
        f'"counts": [{records}], "chi_square": {chi_square}}}'
    )
    return 0


def cmd_check(args) -> int:
    config = _config(args)
    m = _load_matrix(args.matrix)
    unitary_dev = transforms.unitarity_deviation(m)
    real = transforms.realify(m)
    _, symp_dev = transforms.check_symplectic(real)
    _, orth_dev = transforms.check_orthogonal(real)
    print(f"unitarity deviation = {format_float(unitary_dev)}")
    print(f"symplectic deviation = {format_float(symp_dev)}")
    print(f"orthogonal deviation = {format_float(orth_dev)}")
    if unitary_dev > config.unitarity_tol:
        raise ValidationError(
            f"unitarity deviation {unitary_dev:.3e} exceeds tolerance {config.unitarity_tol:.3e}"
        )
    print("ok")
    return 0


def cmd_random_unitary(args) -> int:
    u = transforms.random_haar_unitary(args.d, seed=args.seed)
    print(render_json(transforms.matrix_to_jsonable(u)))
    return 0


def _add_common(sub, *, tol=False, cap=False):
    if tol:
        sub.add_argument(
            "--tol",
            type=float,
            default=transforms.DEFAULT_UNITARITY_TOL,
            help="unitarity tolerance (max-norm)",
        )
    if cap:
        sub.add_argument(
            "--cap", type=int, default=fock.DEFAULT_BASIS_CAP, help="basis size cap"
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bosonsim",
        description="Exact linear-optics simulator: permanents, Fock distributions, "
        "and the determinant-based fermionic counterpart.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    p = subparsers.add_parser("permanent", help="permanent of a matrix JSON file")
    p.add_argument("matrix")
    p.add_argument("--naive", action="store_true", help="use the n! oracle kernel")
    p.set_defaults(func=cmd_permanent)

    p = subparsers.add_parser("basis", help="list the canonical Fock basis")
    p.add_argument("--d", type=int, required=True, help="number of modes")
    p.add_argument("--n", type=int, required=True, help="number of particles")
    _add_common(p, cap=True)
    p.set_defaults(func=cmd_basis)

    p = subparsers.add_parser("amplitude", help="transition amplitude between Fock states")
    p.add_argument("matrix")
    p.add_argument("--in", dest="input_state", required=True, metavar="R,R,...")
    p.add_argument("--out", dest="output_state", required=True, metavar="R,R,...")
    p.add_argument("--fermion", action="store_true", help="determinant amplitudes")
    _add_common(p, tol=True)
    p.set_defaults(func=cmd_amplitude)

    p = subparsers.add_parser("distribution", help="full output distribution")
    p.add_argument("matrix")
    p.add_argument("--in", dest="input_state", required=True, metavar="R,R,...")
    p.add_argument("--fermion", action="store_true")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    _add_common(p, tol=True, cap=True)
    p.set_defaults(func=cmd_distribution)

    p = subparsers.add_parser("expect", help="poly-time per-mode expectations")
    p.add_argument("matrix")
    p.add_argument("--in", dest="input_state", required=True, metavar="R,R,...")
    p.add_argument("--fermion", action="store_true")
    _add_common(p, tol=True)
    p.set_defaults(func=cmd_expect)

    p = subparsers.add_parser("sample", help="seeded sampling with chi-square self-test")
    p.add_argument("matrix")
    p.add_argument("--in", dest="input_state", required=True, metavar="R,R,...")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    _add_common(p, tol=True, cap=True)
    p.set_defaults(func=cmd_sample)

    p = subparsers.add_parser("check", help="unitarity and symplectic/orthogonal report")
    p.add_argument("matrix")
    _add_common(p, tol=True)
    p.set_defaults(func=cmd_check)

    p = subparsers.add_parser("random-unitary", help="emit a Haar-random unitary as JSON")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=cmd_random_unitary)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
