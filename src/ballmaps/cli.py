"""Command-line surface: JSON in, JSON out.

Exit codes: 0 success, 2 malformed input, 3 verification failure,
4 capability exceeded.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys
from typing import Sequence

import numpy as np

from . import invariance, maps, realize
from .analysis import analyze_map, sphere_sample_check
from .hermitian import TAU_DIV, TAU_SIG, is_proper
from .invariance import CapabilityError, emit_invariance_system, membership
from .maps import BallAutomorphism, MapConstructionError, RationalMap
from .polynomials import Polynomial, TAU_EQ

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_VERIFY = 3
EXIT_CAPABILITY = 4


class CliInputError(ValueError):
    pass


# ---------------------------------------------------------------------------
# I/O helpers
# ---------------------------------------------------------------------------
def _read_json(path: str) -> dict:
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CliInputError(f"cannot read JSON from {path}: {exc}") from exc


def _write_json(data: dict, path: str | None) -> None:
    text = json.dumps(data, indent=2, sort_keys=False)
    if path is None or path == "-":
        print(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


def _load_map(path: str) -> RationalMap:
    data = _read_json(path)
    try:
        return RationalMap.from_dict(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise CliInputError(f"malformed map file {path}: {exc}") from exc


def _field(data: dict, key: str, path: str, parse=lambda value: value):
    """``parse(data[key])`` of the JSON read from ``path``; a missing key, or a
    value that ``parse`` rejects, is malformed input."""
    try:
        value = data[key]
    except (KeyError, TypeError) as exc:
        raise CliInputError(f"{path} has no {key!r} field") from exc
    try:
        return parse(value)
    except (KeyError, TypeError, ValueError) as exc:
        raise CliInputError(f"{path}: malformed {key!r} field: {exc}") from exc


def _polynomials(items) -> list[Polynomial]:
    return [Polynomial.from_dict(p) for p in items]


def _complex_vector(data) -> np.ndarray:
    try:
        return np.array([complex(float(x[0]), float(x[1])) for x in data])
    except (TypeError, IndexError, ValueError) as exc:
        raise CliInputError(f"malformed complex vector: {exc}") from exc


def _complex_matrix(data) -> np.ndarray:
    return np.array([_complex_vector(row) for row in data])


def _load_automorphism(args) -> BallAutomorphism:
    U = None
    a = None
    if args.unitary:
        U = _field(_read_json(args.unitary), "matrix", args.unitary, _complex_matrix)
    if args.center:
        a = _field(_read_json(args.center), "vector", args.center, _complex_vector)
    if U is None and a is None:
        raise CliInputError("supply --unitary and/or --center")
    if U is None:
        U = np.eye(len(a))
    try:
        return BallAutomorphism(U, a)
    except MapConstructionError as exc:
        raise CliInputError(str(exc)) from exc


def _parse_permutation(perm: Sequence[int], n: int) -> tuple[int, ...]:
    perm = [int(x) for x in perm]
    if len(perm) != n:
        raise CliInputError(f"permutation length {len(perm)} differs from n={n}")
    if 0 in perm:
        candidate = perm
    else:
        candidate = [x - 1 for x in perm]
    if sorted(candidate) != list(range(n)):
        raise CliInputError(f"{perm} is not a permutation of 1..{n} (or 0..{n - 1})")
    return tuple(candidate)


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------
def _cmd_analyze(args) -> int:
    f = _load_map(args.map)
    if args.strict_permutations and f.n > invariance.MAX_PERMUTATION_DIM:
        print(
            f"error: permutation enumeration requested strictly but n={f.n} "
            f"exceeds the cap {invariance.MAX_PERMUTATION_DIM}",
            file=sys.stderr,
        )
        return EXIT_CAPABILITY
    try:
        bundle = analyze_map(f, args.tol_eq, args.tol_div, args.tol_sig)
    except CapabilityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPABILITY
    _write_json(bundle.to_dict(), args.output)
    if args.require_proper and not bundle.proper.proper:
        print("error: map is not proper", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def _cmd_construct(args) -> int:
    kind = args.kind
    if kind == "tensor":
        result = maps.tensor(_load_map(args.f), _load_map(args.g))
    elif kind == "oplus":
        weights = None
        if args.weights:
            weights = (args.weights[0], args.weights[1])
        result = maps.oplus(_load_map(args.f), _load_map(args.g), weights)
    elif kind == "juxtapose":
        if args.lambdas:
            inputs = [_load_map(p) for p in args.maps]
            result = maps.juxtapose_lambda(inputs, args.lambdas)
        else:
            result = maps.juxtapose_theta(
                _load_map(args.f), _load_map(args.g), args.theta
            )
    elif kind == "descend":
        f = _load_map(args.f)
        g = _load_map(args.g) if args.g else maps.identity_map(f.n)
        if args.subspace:
            A = _field(
                _read_json(args.subspace), "vectors", args.subspace,
                lambda rows: maps.Subspace.from_vectors(f.target_dim, _complex_matrix(rows)),
            )
        else:
            A = maps.lowest_order_subspace(f)
        result = maps.descend(f, A, g)
    elif kind == "power":
        result = maps.tensor_power(args.n, args.m)
    elif kind == "whitney":
        result = maps.whitney_map(args.n)
    elif kind == "catalog":
        result = maps.catalog(args.name, theta=args.theta)
    else:  # pragma: no cover - argparse restricts choices
        raise CliInputError(f"unknown construction {kind}")
    return _finish_map(result, args)


def _cmd_compose(args) -> int:
    f = _load_map(args.map)
    gamma = _load_automorphism(args)
    if args.side == "source":
        result = maps.compose_source(f, gamma)
    else:
        result = maps.compose_target(f, gamma)
    return _finish_map(result, args)


def _finish_map(result: RationalMap, args) -> int:
    payload = result.to_dict()
    if not args.skip_proper_check:
        cert = is_proper(result, args.tol_div)
        payload["properness"] = {
            "proper": cert.proper,
            "residual": cert.residual,
            "tolerance": cert.tolerance,
        }
    _write_json(payload, args.output)
    return EXIT_OK


def _cmd_realize(args) -> int:
    if args.kind == "symmetric":
        result = (
            realize.symmetric_group_map_v2(args.n)
            if args.variant == 2
            else realize.symmetric_group_map(args.n)
        )
        group = (
            sorted(itertools.permutations(range(args.n)))
            if args.n <= invariance.MAX_PERMUTATION_DIM
            else None
        )
    elif args.kind == "subgroup":
        spec = _read_json(args.group)
        n = _field(spec, "n", args.group, int)
        generators = [_parse_permutation(g, n) for g in spec.get("generators", [])]
        if not generators:
            generators = [tuple(range(n))]
        group = realize.close_permutation_group(generators, n)
        try:
            result = realize.realize_subgroup(generators, n)
        except realize.RealizationError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_VERIFY
    else:  # from-invariants
        spec = _read_json(args.group)
        invariants = _field(spec, "invariants", args.group, _polynomials)
        gens = [_complex_matrix(m) for m in spec.get("generators", [])]
        try:
            matrices = invariance.group_closure(gens) if gens else []
            result = realize.realize_from_invariants(invariants, matrices)
        except (realize.RealizationError, invariance.GroupClosureError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_VERIFY
        group = None

    payload = result.to_dict()
    cert = is_proper(result, args.tol_div)
    summary = {
        "proper": cert.proper,
        "residual": cert.residual,
    }
    if group is not None and result.n <= invariance.MAX_PERMUTATION_DIM:
        stabilizer = invariance.permutation_stabilizer(result)
        summary["permutation_stabilizer"] = [list(p) for p in stabilizer]
        summary["matches_requested_group"] = sorted(stabilizer) == sorted(group)
        summary["diagonal_stabilizer_trivial"] = invariance.diagonal_stabilizer(
            result
        ).is_trivial
    payload["verification"] = summary
    _write_json(payload, args.output)
    if not cert.proper or summary.get("matches_requested_group") is False:
        return EXIT_VERIFY
    return EXIT_OK


def _cmd_pad(args) -> int:
    data = _read_json(args.polynomials)
    polys = _field(data, "components", args.polynomials, _polynomials)
    pad = realize.pad_to_proper(
        polys,
        epsilon=args.epsilon,
        omit_empty_degrees=args.omit_empty_degrees,
    )
    padded = realize.padded_map(polys, pad)
    cert = is_proper(padded, args.tol_div)
    _write_json(
        {
            "epsilon": pad.epsilon,
            "lambdas": list(pad.lambdas),
            "powers": list(pad.powers),
            "padding": [q.to_dict() for q in pad.components],
            "padded_map": padded.to_dict(),
            "proper": cert.proper,
            "residual": cert.residual,
        },
        args.output,
    )
    return EXIT_OK if cert.proper else EXIT_VERIFY


def _cmd_member(args) -> int:
    f = _load_map(args.map)
    gamma = _load_automorphism(args)
    result = membership(f, gamma, args.tol_eq)
    _write_json(
        {
            "member": result.member,
            "c_gamma": result.c_gamma,
            "deviation": result.deviation,
        },
        args.output,
    )
    return EXIT_OK if result.member else EXIT_VERIFY


def _cmd_emit_system(args) -> int:
    f = _load_map(args.map)
    _write_json(emit_invariance_system(f), args.output)
    return EXIT_OK


def _cmd_sample(args) -> int:
    if args.count < 1:
        raise CliInputError(f"--count must be at least 1, got {args.count}")
    f = _load_map(args.map)
    result = sphere_sample_check(f, args.count, args.tol, args.seed)
    _write_json(result.to_dict(), args.output)
    return EXIT_OK if result.passed else EXIT_VERIFY


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------
_TOLERANCES = {"eq": TAU_EQ, "div": TAU_DIV, "sig": TAU_SIG}


def _add_common(parser: argparse.ArgumentParser, *tolerances: str) -> None:
    """The output option and the ``--tol-*`` options the subcommand reads."""
    parser.add_argument("-o", "--output", default=None, help="output file (default stdout)")
    for name in tolerances:
        parser.add_argument(
            f"--tol-{name}", type=float, default=_TOLERANCES[name], dest=f"tol_{name}"
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ballmaps",
        description="Hermitian forms and invariant groups of proper maps between balls",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full structural analysis of a map")
    p.add_argument("map", help="map JSON file (or - for stdin)")
    p.add_argument("--require-proper", action="store_true")
    p.add_argument(
        "--strict-permutations",
        action="store_true",
        help="fail (exit 4) instead of skipping permutation steps above the cap",
    )
    _add_common(p, "eq", "div", "sig")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("construct", help="build maps from known constructions")
    p.add_argument(
        "kind",
        choices=["tensor", "oplus", "juxtapose", "descend", "power", "whitney", "catalog"],
    )
    p.add_argument("-f", help="first map file")
    p.add_argument("-g", help="second map file")
    p.add_argument("--maps", nargs="*", default=[], help="map files for juxtapose")
    p.add_argument("--lambdas", nargs="*", type=float, default=None)
    p.add_argument("--weights", nargs=2, type=float, default=None)
    p.add_argument("--theta", type=float, default=math.pi / 4)
    p.add_argument("--subspace", help="subspace JSON for descend (default lowest order)")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--name", default="faran-2")
    p.add_argument("--skip-proper-check", action="store_true")
    _add_common(p, "div")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("compose", help="compose with a ball automorphism")
    p.add_argument("side", choices=["source", "target"])
    p.add_argument("map")
    p.add_argument("--unitary", help="JSON file with a complex matrix")
    p.add_argument("--center", help="JSON file with a complex vector")
    p.add_argument("--skip-proper-check", action="store_true")
    _add_common(p, "div")
    p.set_defaults(func=_cmd_compose)

    p = sub.add_parser("realize", help="construct maps with prescribed symmetry")
    p.add_argument("kind", choices=["symmetric", "subgroup", "from-invariants"])
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--variant", type=int, choices=[1, 2], default=1)
    p.add_argument("--group", help="group spec JSON file")
    _add_common(p, "div")
    p.set_defaults(func=_cmd_realize)

    p = sub.add_parser("pad", help="pad a polynomial map to a proper map")
    p.add_argument("polynomials", help='JSON {"components": [Polynomial...]}')
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--omit-empty-degrees", action="store_true")
    _add_common(p, "div")
    p.set_defaults(func=_cmd_pad)

    p = sub.add_parser("member", help="test membership in the invariant group")
    p.add_argument("map")
    p.add_argument("--unitary")
    p.add_argument("--center")
    _add_common(p, "eq")
    p.set_defaults(func=_cmd_member)

    p = sub.add_parser("emit-system", help="emit the invariance equation system")
    p.add_argument("map")
    _add_common(p)
    p.set_defaults(func=_cmd_emit_system)

    p = sub.add_parser("sample", help="sphere-sampling properness oracle")
    p.add_argument("map")
    p.add_argument("--count", type=int, default=1000)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--seed", type=int, default=0)
    _add_common(p)
    p.set_defaults(func=_cmd_sample)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of :func:`main`, built on its first call and kept: building
    it costs more than most commands.  No command mutates a parsed default."""
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except CliInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except CapabilityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPABILITY
    except MapConstructionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
