"""Benchmark workloads: seeded inputs, jobs and the check of each job's output.

A workload is a list of job groups.  Each pass of the measurement loop runs
every group once, in an order drawn from the workload seed; the jobs inside a
group run in their listed order (a fixture's map file must be constructed
before the other CLI commands read it).  Only ``Job.run`` is timed.

Every library call goes through a module attribute looked up at call time
(``bm.realize_subgroup``, ``cli.main``) so that the traced run's wrappers,
which replace those attributes, see it.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

import ballmaps as bm
from ballmaps import cli
from ballmaps.maps import CATALOG_NAMES

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "catalog_reference.json")


class CheckFailed(AssertionError):
    """A job ran but its output is wrong."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Job:
    """One timed unit of work.

    ``run`` returns the output; ``check`` raises :class:`CheckFailed` when
    the output is wrong; ``sizes`` returns the size tags of the job's map
    (computed once per key, outside the timed region); ``files`` lists the
    JSON files the job reads and writes, whose byte count is recorded.
    """

    key: str
    run: Callable[[], Any]
    check: Callable[[Any], None]
    sizes: Callable[[Any], dict]
    files: tuple[str, ...] = field(default=())


def size_tags(f) -> dict:
    """n, N, degree, form basis size and division-simplex size of a map."""
    h = bm.form_of(f)
    simplex = math.comb(h.max_degree() + f.n, f.n) if h.size else 0
    return {
        "n": f.n,
        "N": f.target_dim,
        "degree": f.degree,
        "form_basis": h.size,
        "division_simplex": simplex,
    }


def haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def ball_center(rng: np.random.Generator, n: int) -> np.ndarray:
    a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return a / np.linalg.norm(a) * rng.uniform(0.2, 0.6)


def _write_json(path: str, data) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)


def _read_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _pairs(values) -> list:
    return [[float(v.real), float(v.imag)] for v in values]


# ---------------------------------------------------------------------------
# catalog-cli
# ---------------------------------------------------------------------------
def _torus(d: dict) -> dict:
    return {"torus_dim": d["torus_dim"], "finite_orders": d["finite_orders"]}


def decided_fields(command: str, code: int, out: dict) -> dict:
    """The decisions a CLI report carries, without its floating-point margins."""
    fields: dict = {"exit": code}
    if command == "construct":
        fields.update(
            n=out["n"], m=out["m"], l=out["l"],
            components=len(out["numerator"]), proper=out["properness"]["proper"],
        )
    elif command == "analyze":
        report = out["group_report"]
        strict = out["strict_stabilizer"]
        fields.update(
            proper=out["proper"]["proper"],
            signature={k: out["signature"][k] for k in ("positive", "negative", "zero")},
            hermitian_rank=out["hermitian_rank"],
            image_rank=out["image_rank"],
            consistent=out["consistent"],
            torus_invariant=report["torus_invariant"],
            full_unitary_invariant=report["full_unitary_invariant"],
            blocks=report["block_partition"]["blocks"],
            diagonal_stabilizer=_torus(report["diagonal_stabilizer"]),
            permutation_stabilizer=report["permutation_stabilizer"],
            source_rank_upper=report["source_rank_upper"],
            origin_moving_excluded=report["origin_moving_excluded"],
            strict_diagonal=_torus(strict["diagonal"]),
            strict_permutations=strict["permutations"],
            power_chain=out["power_chain"],
        )
    elif command == "emit-system":
        fields.update(
            n=out["n"], degree=out["degree"], equations=len(out["equations"]),
            metric_constraints=len(out["metric_constraints"]),
            determinant_terms=len(out["determinant_constraint"]["terms"]),
        )
    elif command.startswith("member"):
        fields.update(member=out["member"])
    elif command == "sample":
        fields.update(passed=out["pass"], count=out["count"])
    return fields


CLI_COMMANDS = ("construct", "analyze", "emit-system", "member-unitary", "member-moving", "sample")


def catalog_cli(seed: int, workdir: str, reference: dict | None = None) -> list[list[Job]]:
    """Each catalog fixture through the six CLI commands, JSON files in ``workdir``.

    With ``reference=None`` the reference captured with the benchmark is
    loaded; pass ``{}`` to skip the comparison (used when capturing it).
    """
    if reference is None:
        reference = _read_json(REFERENCE_PATH)
    rng = np.random.default_rng([seed, 11])
    groups = []
    for name in CATALOG_NAMES:
        f = bm.catalog(name)
        tags = size_tags(f)
        stem = os.path.join(workdir, name)
        map_path = stem + ".map.json"
        unitary = stem + ".unitary.json"
        moving_unitary = stem + ".moving-unitary.json"
        center = stem + ".center.json"
        _write_json(unitary, {"matrix": [_pairs(r) for r in haar_unitary(rng, f.n)]})
        _write_json(moving_unitary, {"matrix": [_pairs(r) for r in haar_unitary(rng, f.n)]})
        _write_json(center, {"vector": _pairs(ball_center(rng, f.n))})
        sample_seed = int(rng.integers(2**31))
        argvs = {
            "construct": ["construct", "catalog", "--name", name],
            "analyze": ["analyze", map_path],
            "emit-system": ["emit-system", map_path],
            "member-unitary": ["member", map_path, "--unitary", unitary],
            "member-moving": [
                "member", map_path, "--unitary", moving_unitary, "--center", center,
            ],
            "sample": ["sample", map_path, "--count", "1000", "--seed", str(sample_seed)],
        }
        inputs = {
            "construct": (),
            "analyze": (map_path,),
            "emit-system": (map_path,),
            "member-unitary": (map_path, unitary),
            "member-moving": (map_path, moving_unitary, center),
            "sample": (map_path,),
        }
        group = []
        for command in CLI_COMMANDS:
            key = f"{name}:{command}"
            out_path = map_path if command == "construct" else f"{stem}.{command}.json"
            argv = argvs[command] + ["-o", out_path]
            group.append(
                Job(
                    key,
                    run=lambda argv=argv: cli.main(argv),
                    check=_catalog_check(key, command, out_path, reference),
                    sizes=lambda _out, tags=tags: tags,
                    files=inputs[command] + (out_path,),
                )
            )
        groups.append(group)
    return groups


def _catalog_check(key: str, command: str, out_path: str, reference: dict):
    def check(code: int) -> None:
        # exit 3 from `member` is the verdict "not a member", not an error
        require(code == 0 or (code == 3 and command.startswith("member")), f"exit code {code}")
        got = decided_fields(command, code, _read_json(out_path))
        if reference:
            want = reference[key]
            diff = sorted(k for k in set(want) | set(got) if want.get(k) != got.get(k))
            require(not diff, f"differs from reference in {diff}: {got} vs {want}")

    return check


# ---------------------------------------------------------------------------
# s3-realize
# ---------------------------------------------------------------------------
S3_SUBGROUPS = {
    "trivial": [],
    "transposition-12": [(1, 0, 2)],
    "transposition-23": [(0, 2, 1)],
    "transposition-13": [(2, 1, 0)],
    "alternating": [(1, 2, 0)],
    "full": [(1, 2, 0), (1, 0, 2)],
}


def s3_realize(seed: int, workdir: str) -> list[list[Job]]:
    """Realize each subgroup of S_3 and verify it at the acceptance tolerances."""
    rng = np.random.default_rng([seed, 22])
    groups = []
    for name, gens in S3_SUBGROUPS.items():
        sample_seed = int(rng.integers(2**31))

        def run(gens=gens, sample_seed=sample_seed):
            f = bm.realize_subgroup(gens, 3)
            return {
                "map": f,
                "proper": bm.is_proper(f),
                "sample": bm.sphere_sample_check(f, 1000, 1e-9, sample_seed),
                "permutations": bm.permutation_stabilizer(f),
                "diagonal": bm.diagonal_stabilizer(f),
                "hermitian_rank": bm.hermitian_rank(f),
                "image_rank": bm.image_rank(f, check=False),
            }

        def check(out, gens=gens):
            cert = out["proper"]
            require(cert.proper and cert.residual <= 1e-8, f"residual {cert.residual}")
            require(out["sample"].passed, f"sampler {out['sample'].max_residual}")
            group = bm.close_permutation_group(gens, 3)
            require(sorted(out["permutations"]) == group, f"stabilizer {out['permutations']}")
            require(out["diagonal"].is_trivial, "diagonal stabilizer is not trivial")
            require(
                out["hermitian_rank"] == out["image_rank"] + 1,
                f"ranks {out['hermitian_rank']} vs {out['image_rank']}",
            )

        groups.append([Job(name, run, check, lambda out: size_tags(out["map"]))])
    return groups


# ---------------------------------------------------------------------------
# symmetric-structure
# ---------------------------------------------------------------------------
def symmetric_structure(seed: int, workdir: str) -> list[list[Job]]:
    """analyze_map on the S_4, S_5 and S_6 maps.

    The S_3 invariance system is not a job: the emitted system is wrong for
    maps with f(0) != 0 (see :func:`emit_s3_residuals`), and every job of a
    workload must pass its check.  An odd number of jobs per pass keeps the
    median latency on one job kind (S_5) instead of between two.
    """
    groups = []
    for n in (4, 5, 6):

        def check(bundle, n=n):
            require(bundle.proper.proper, "not proper")
            perms = bundle.report.permutation_stabilizer
            require(
                perms is not None and sorted(perms) == list(itertools.permutations(range(n))),
                f"permutation stabilizer of order {None if perms is None else len(perms)}",
            )
            require(bundle.consistent, "rank consistency violated")

        groups.append(
            [
                Job(
                    f"analyze-s{n}",
                    run=lambda n=n: bm.analyze_map(bm.symmetric_group_map(n)),
                    check=check,
                    sizes=lambda _out, n=n: size_tags(bm.symmetric_group_map(n)),
                )
            ]
        )
    return groups


def emit_s3_residuals() -> dict:
    """Residuals of the S_3 invariance system at members of its group.

    S_3 is the invariance group of ``symmetric_group_map(3)``, so the
    identity and every diag(P, 1) must satisfy the emitted system (residual
    at most 1e-9).  ``emit_invariance_system`` normalises by lambda(U), the
    form's value at the homogeneous origin row, which equals the other side
    only when f(0) = 0; this map has |p(0)|^2 ~ 0.0156, so even the identity
    leaves about 0.047.  ``bench/probe.py`` records these residuals.
    """
    system = bm.emit_invariance_system(bm.symmetric_group_map(3))
    residuals = {}
    for perm in itertools.permutations(range(3)):
        matrix = np.eye(4, dtype=complex)
        matrix[:3, :3] = np.eye(3)[list(perm)]
        residuals[str(perm)] = bm.evaluate_invariance_system(system, matrix)
    return {"equations": len(system["equations"]), "max_residual": max(residuals.values()), "residuals": residuals}


WORKLOADS = {
    "catalog-cli": catalog_cli,
    "s3-realize": s3_realize,
    "symmetric-structure": symmetric_structure,
}
