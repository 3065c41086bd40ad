"""Command-line front end: class tables, theorem verification, walk traces.

Exit codes: 0 all requested checks passed, 1 a verification failed
(a theorem-violation, the signal this artifact exists to catch), 2 usage or
configuration error, 3 a resource bound was hit (group too large for the
configured enumeration limit).

Reports are deterministic byte for byte for a fixed invocation: iteration
orders are fixed, walk start points and the tuple enumerator are offset by
--seed-index, and JSON is emitted with sorted keys.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import dataclass

from . import __version__
from .braid import good_min_element, verify_quasi_elliptic_divisibility
from .conjugacy import (approx_partition, enumerate_classes, path_graph,
                        strong_partition, verify_arrow_reduction,
                        verify_elliptic_approx, verify_tau_surjective)
from .coxeter import (Chamber, CoxeterMatrix, CoxeterSystem, DiagramTwist,
                      build_system, enumerate_twists, named_matrix,
                      TwistedElement)
from .eigen import eigen_decomposition
from .errors import (CoxminError, HypothesisFailed, NotFinite,
                     TheoremViolation, TooLarge)
from .walk import decompose_at_regular, descent_walk, special_length_formula

CHECK_NAMES = ("gp1", "gp2", "elliptic", "tau", "good", "quasi", "walk", "formulas")

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_BOUND = 3


@dataclass
class JobConfig:
    labels: list[str]
    matrices: list[CoxeterMatrix]
    twist: str
    checks: list[str]
    max_group_order: int | None
    out: str | None
    format: str
    seed_index: int


def _parse_matrix_file(path: str) -> CoxeterMatrix:
    with open(path) as fh:
        data = json.load(fh)
    if isinstance(data, dict):
        if "matrix" not in data:
            raise ValueError(f"{path}: no \"matrix\" key")
        data = data["matrix"]
    if not isinstance(data, list):
        raise ValueError(f"{path}: the Coxeter matrix must be a list of rows")
    return CoxeterMatrix(data)


def _config_from_args(args) -> JobConfig:
    labels, matrices = [], []
    if args.matrix:
        matrices.append(_parse_matrix_file(args.matrix))
        labels.append(os.path.basename(args.matrix))
    if args.type:
        for name in args.type.split(","):
            name = name.strip()
            matrices.append(named_matrix(name))
            labels.append(name)
    if not matrices:
        raise ValueError("one of --type or --matrix is required")
    # Each subcommand has only the options it reads; an absent one is unused.
    seed_index = getattr(args, "seed_index", 0)
    max_group_order = getattr(args, "max_group_order", None)
    for flag, value, least in (("--seed-index", seed_index, 0),
                               ("--max-group-order", max_group_order, 1)):
        if value is not None and value < least:
            raise ValueError(f"{flag} must be >= {least}, got {value}")
    checks = []
    for c in getattr(args, "checks", "").split(","):
        c = c.strip()
        if c:
            if c not in CHECK_NAMES:
                raise ValueError(f"unknown check {c!r}; known: {','.join(CHECK_NAMES)}")
            checks.append(c)
    if not checks:
        checks = list(CHECK_NAMES)
    return JobConfig(labels=labels, matrices=matrices, twist=args.twist,
                     checks=checks, max_group_order=max_group_order,
                     out=args.out, format=getattr(args, "format", "json"),
                     seed_index=seed_index)


def _twists_for(config: JobConfig, matrix: CoxeterMatrix) -> list[DiagramTwist]:
    if config.twist == "auto":
        return enumerate_twists(matrix)
    if config.twist == "id":
        return [DiagramTwist(matrix, tuple(range(matrix.rank)))]
    perm = tuple(int(x) - 1 for x in config.twist.split(","))
    return [DiagramTwist(matrix, perm)]


def _emit(config: JobConfig, payload: dict, csv_rows: list[dict] | None) -> None:
    if config.format == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(csv_rows[0].keys()) if csv_rows
                                else ["empty"], lineterminator="\n")
        writer.writeheader()
        writer.writerows(csv_rows)
        text = buf.getvalue()
    else:
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if config.out:
        with open(config.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# classes


def _class_rows(label: str, system: CoxeterSystem, twist: DiagramTwist,
                config: JobConfig) -> list[dict]:
    records = enumerate_classes(system, twist, max_order=config.max_group_order)
    rows = []
    for rec in records:
        graph = path_graph(rec.representative, rec.coset)
        rows.append({
            "type": label,
            "twist": ",".join(str(i + 1) for i in twist.perm),
            "class_id": rec.class_id,
            "size": rec.size,
            "min_length": rec.min_length,
            "elliptic": rec.elliptic,
            "quasi_elliptic": rec.quasi_elliptic,
            "num_approx_blocks": len(approx_partition(rec)),
            "num_strong_blocks": len(strong_partition(rec)),
            "tau_surjective": graph.surjective,
        })
    return rows


def cmd_classes(config: JobConfig) -> int:
    rows = []
    for label, matrix in zip(config.labels, config.matrices):
        twists = _twists_for(config, matrix)
        system = None
        for twist in twists:
            try:
                if system is None:  # bound |W| before the build, as table() words it
                    if matrix.group_order() > config.max_group_order:
                        raise TooLarge(f"group order {matrix.group_order()} exceeds "
                                       f"bound {config.max_group_order}")
                    system = build_system(matrix)
                rows.extend(_class_rows(label, system, twist, config))
            except TooLarge as exc:
                rows.append({"type": label,
                             "twist": ",".join(str(i + 1) for i in twist.perm),
                             "class_id": -1, "size": -1, "min_length": -1,
                             "elliptic": False, "quasi_elliptic": False,
                             "num_approx_blocks": -1, "num_strong_blocks": -1,
                             "tau_surjective": False, "skipped": str(exc)})
                _emit(config, {"schema": "coxmin/classes-v1", "rows": rows}, rows)
                return EXIT_BOUND
    _emit(config, {"schema": "coxmin/classes-v1", "rows": rows}, rows)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify


def _check_class(rec, checks: list[str], seed: int) -> list[dict]:
    """Run the selected checks on one class; one row per (class, check)."""
    rows = []

    def row(check: str, status: str, detail: str = "") -> None:
        rows.append({"class_id": rec.class_id, "check": check,
                     "status": status, "detail": detail})

    for check in checks:
        try:
            if check == "gp1":
                verify_arrow_reduction(rec)
                row(check, "pass", f"{rec.size} elements reach O_min")
            elif check == "gp2":
                blocks = strong_partition(rec)
                if len(blocks) != 1:
                    raise TheoremViolation(f"{len(blocks)} strong blocks")
                row(check, "pass", f"O_min of size {len(rec.o_min)} is one block")
            elif check == "elliptic":
                if not rec.elliptic:
                    row(check, "skip", "class is not elliptic")
                else:
                    verify_elliptic_approx(rec)
                    row(check, "pass", "O_min is a single approx block")
            elif check == "tau":
                if not rec.elliptic:
                    row(check, "skip", "class is not elliptic")
                else:
                    graph = verify_tau_surjective(rec.representative, rec.coset)
                    row(check, "pass",
                        f"|W_w|={graph.num_vertices} reached, "
                        f"|Z|={graph.centralizer_order} covered")
            elif check == "good":
                w_a, cert = good_min_element(rec, start_index=seed)
                row(check, "pass",
                    f"l={w_a.length()} subsets={[list(s) for s in cert.subsets]} "
                    f"exponents={list(cert.exponents)} very_good={cert.very_good}")
            elif check == "quasi":
                if not rec.quasi_elliptic:
                    row(check, "skip", "class is not quasi-elliptic")
                else:
                    verify_quasi_elliptic_divisibility(rec)
                    row(check, "pass", "w^d is left-divisible by Delta^2")
            elif check == "walk":
                system = rec.coset.system
                table = rec.coset.table
                rep = rec.representative
                done = 0
                for j in range(3):
                    idx = (rec.class_id * 7919 + j * 104729 + seed) % table.size
                    chamber = Chamber(system, table.element(idx))
                    result = descent_walk(rep, chamber, start_index=seed)
                    if not result.end_chamber.contains_in_closure(result.regular_point):
                        raise TheoremViolation(
                            f"walk from chamber {idx} ends in a chamber whose "
                            "closure misses the regular point")
                    done += 1
                row(check, "pass", f"{done} walks certified")
            elif check == "formulas":
                accepted = _formula_sweep(rec, seed)
                row(check, "pass", f"{accepted} formula instances verified")
        except TooLarge as exc:
            row(check, "skip", f"bound: {exc}")
        except (CoxminError, ArithmeticError) as exc:
            # Any other package fault, the scalar layer's included (its
            # ScalarDomainError is an ArithmeticError), fails this check
            # only; the other checks and classes still run.
            row(check, "fail", str(exc))
    return rows


def _formula_sweep(rec, seed: int) -> int:
    """Exercise the length formulas on inputs they accept for this class."""
    rep = rec.representative
    eig = eigen_decomposition(rep, dft_check=False)
    system = eig.system
    rep = eig.owner
    accepted = 0
    fund = Chamber.fundamental(system)
    for q, _, basis in eig.entries:
        try:
            special_length_formula(rep, basis, fund)
            accepted += 1
        except HypothesisFailed:
            pass
        try:
            decompose_at_regular(rep, fund, basis)
            accepted += 1
        except HypothesisFailed:
            pass
    # The walk endpoint always accepts the decomposition at K = V_w.
    result = descent_walk(rep, fund, start_index=seed)
    decompose_at_regular(rep, result.end_chamber, eig.v_wt)
    accepted += 1
    return accepted


def cmd_verify(config: JobConfig) -> int:
    all_rows = []
    had_fail = False
    had_bound_skip = False
    for label, matrix in zip(config.labels, config.matrices):
        twists = _twists_for(config, matrix)
        system = None
        for twist in twists:
            twist_label = ",".join(str(i + 1) for i in twist.perm)
            if matrix.group_order() > config.max_group_order:
                all_rows.append({"type": label, "twist": twist_label,
                                 "class_id": -1, "check": "all",
                                 "status": "skip",
                                 "detail": f"group order {matrix.group_order()} "
                                           f"exceeds bound {config.max_group_order}"})
                had_bound_skip = True
                continue
            if system is None:
                system = build_system(matrix)
            records = enumerate_classes(system, twist,
                                        max_order=config.max_group_order)
            for rec in records:
                for r in _check_class(rec, config.checks, config.seed_index):
                    r.update({"type": label, "twist": twist_label})
                    all_rows.append(r)
                    if r["status"] == "fail":
                        had_fail = True
    payload = {"schema": "coxmin/verify-v1", "version": __version__,
               "results": all_rows}
    _emit(config, payload, all_rows)
    if had_fail:
        return EXIT_VIOLATION
    if had_bound_skip:
        return EXIT_BOUND
    return EXIT_OK


# ---------------------------------------------------------------------------
# walk


def cmd_walk(config: JobConfig, word: str, chamber_word: str) -> int:
    if len(config.matrices) != 1:
        raise ValueError("walk needs exactly one --type or --matrix")
    if config.twist == "auto":
        raise ValueError("walk needs one twist: id or a permutation, not auto")
    matrix = config.matrices[0]
    system = build_system(matrix)
    (twist,) = _twists_for(config, matrix)

    def parse_word(text: str) -> list[int]:
        text = text.strip()
        if not text:
            return []
        letters = [int(x) - 1 for x in text.split(",")]
        if any(i < 0 or i >= matrix.rank for i in letters):
            raise ValueError(f"word letters must be in 1..{matrix.rank}")
        return letters

    body = system.element_from_word(parse_word(word))
    k = 1 if not twist.is_identity() else 0
    element = TwistedElement(system, twist, k, body)
    chamber = Chamber(system, system.element_from_word(parse_word(chamber_word)))
    result = descent_walk(element, chamber, start_index=config.seed_index)
    payload = result.to_json()
    payload["type"] = config.labels[0]
    payload["twist"] = ",".join(str(i + 1) for i in twist.perm)
    _emit(config, payload, None)
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coxmin",
        description="Exact engine for minimal length elements in finite "
                    "twisted Coxeter groups")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_classes = sub.add_parser("classes", help="emit the twisted class table")
    p_verify = sub.add_parser("verify", help="run theorem verifications")
    p_walk = sub.add_parser("walk", help="trace a gradient descent walk")
    for p in (p_classes, p_verify, p_walk):
        p.add_argument("--type", help="named type(s), comma separated: A3, B4, "
                                      "H3, I2(7), ...")
        p.add_argument("--matrix", help="JSON file with an explicit Coxeter matrix")
        p.add_argument("--twist", default="id",
                       help="id | auto | 1-indexed permutation like 2,1 "
                            "(walk takes one twist, so no auto)")
        p.add_argument("--out", help="output path (default stdout)")
    for p in (p_classes, p_verify):
        p.add_argument("--max-group-order", type=int, default=10 ** 6,
                       help="largest |W| (>= 1) to enumerate; beyond it exit 3")
        p.add_argument("--format", choices=("json", "csv"), default="json")
    for p in (p_verify, p_walk):
        p.add_argument("--seed-index", type=int, default=0,
                       help="offset (>= 0): a walk starts from the least t above "
                            "it; good elements skip that many enumerator tuples")
    p_verify.add_argument("--checks", default="",
                          help=f"comma separated subset of {','.join(CHECK_NAMES)}")
    p_walk.add_argument("--word", default="", help="element word, 1-indexed: 1,2,1")
    p_walk.add_argument("--chamber", default="", help="chamber word, 1-indexed")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _config_from_args(args)
        if args.command == "classes":
            return cmd_classes(config)
        if args.command == "verify":
            return cmd_verify(config)
        if args.command == "walk":
            return cmd_walk(config, args.word, args.chamber)
        raise ValueError(f"unknown command {args.command}")
    except (ValueError, OSError, NotFinite, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except TooLarge as exc:
        print(f"bound: {exc}", file=sys.stderr)
        return EXIT_BOUND
    except (TheoremViolation,) as exc:
        print(f"THEOREM VIOLATION: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    except CoxminError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VIOLATION


if __name__ == "__main__":
    sys.exit(main())
