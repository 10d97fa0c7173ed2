"""Command-line front end.

Selects a surface, a twisting bundle and a check suite, runs the
verifications and emits a text or JSON report.  Exit codes: 0 all
asserted identities hold, 1 on any mismatch, 2 on usage or configuration
errors (a descriptor that does not load included), 3 on structural
errors (non-constant localization sums, zero tangent weights, exhausted
specializations, non-integral values, case3 configurations whose
tangent has the wrong rank or a zero weight).

The JSON report is byte-identical for a fixed seed.  --workers is
validated here (at least 1) and used nowhere else: every check runs in
one process.  Wall-clock timings are zeroed there unless --timings is
given.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from .errors import NestHilbError, WrongCoefficientCount
from .toric import (
    EquivariantLineBundle,
    ToricSurfaceDescriptor,
    line_bundle,
    surface_from_file,
    surface_hirzebruch,
    surface_p1xp1,
    surface_p2,
)
from .verify import (
    CheckReport,
    case2_check,
    case3_check,
    theorem5_check,
    theorem7_check,
    zprod_table,
)

CHECK_NAMES = ("theorem7", "theorem5", "case2", "case3", "zprod")


class UsageError(Exception):
    pass


def parse_surface(selector: str) -> ToricSurfaceDescriptor:
    if selector == "p2":
        return surface_p2()
    if selector == "p1xp1":
        return surface_p1xp1()
    m = re.fullmatch(r"fa:(\d+)", selector)
    if m:
        return surface_hirzebruch(int(m.group(1)))
    m = re.fullmatch(r"file:(.+)", selector)
    if m:
        try:
            return surface_from_file(m.group(1))
        except (OSError, ValueError, NestHilbError) as exc:
            raise UsageError(f"cannot load surface file: {exc}") from exc
    raise UsageError(f"unknown surface selector {selector!r}")


def parse_bundle(S: ToricSurfaceDescriptor, selector: str) -> tuple[EquivariantLineBundle, list[int]]:
    """Divisor coefficient list (fan surfaces) or a bundle label."""
    if re.fullmatch(r"-?\d+(,-?\d+)*", selector):
        coeffs = [int(c) for c in selector.split(",")]
        try:
            return line_bundle(S, coeffs), coeffs
        except WrongCoefficientCount as exc:
            raise UsageError(str(exc)) from exc
    try:
        return S.bundle(selector), []
    except KeyError as exc:
        raise UsageError(str(exc)) from exc


def _merge(name: str, reports: list[CheckReport]) -> CheckReport:
    entries = tuple(e for r in reports for e in r.entries)
    return CheckReport(
        name=name,
        entries=entries,
        configs_evaluated=sum(r.configs_evaluated for r in reports),
        millis=sum(r.millis for r in reports),
        informational=any(r.informational for r in reports),
    )


def run_checks(
    S: ToricSurfaceDescriptor,
    M: EquivariantLineBundle,
    check: str,
    nmax: int,
    seed: int,
) -> list[CheckReport]:
    reports = []
    wanted = CHECK_NAMES if check == "all" else (check,)
    for name in wanted:
        if name == "theorem7":
            reports.append(theorem7_check(S, M, nmax, seed=seed))
        elif name == "theorem5":
            subs = [
                theorem5_check(S, M, n1, n2, seed=seed)
                for n1 in range(nmax + 1)
                for n2 in range(n1 + 1)
            ]
            reports.append(_merge("theorem5", subs))
        elif name == "case2":
            subs = [case2_check(S, M, n, seed=seed) for n in range(nmax + 1)]
            reports.append(_merge("case2", subs))
        elif name == "case3":
            reports.append(case3_check(S, nmax))
        elif name == "zprod":
            table = zprod_table(S, M, nmax, seed=seed)
            entries = tuple(
                (n1, n2, table.entries[(n1, n2)], table.entries[(n1, n2)])
                for n1, n2 in table.keys()
            )
            reports.append(
                CheckReport(name="zprod", entries=entries, configs_evaluated=table.configs)
            )
        else:
            raise UsageError(f"unknown check {name!r}")
    return reports


def report_json(
    S: ToricSurfaceDescriptor,
    bundle_coeffs: list[int],
    seed: int,
    reports: list[CheckReport],
    timings: bool,
) -> str:
    doc = {
        "surface": S.name,
        "bundle": bundle_coeffs,
        "seed": seed,
        "checks": [
            {
                "name": r.name,
                "entries": [
                    {"n1": n1, "n2": n2, "lhs": str(lhs), "rhs": str(rhs), "match": lhs == rhs}
                    for n1, n2, lhs, rhs in r.entries
                ],
                "pass": r.passed,
                "informational": r.informational,
                "configs_evaluated": r.configs_evaluated,
                "millis": r.millis if timings else 0,
            }
            for r in reports
        ],
        "pass": all(r.passed or r.informational for r in reports),
    }
    return json.dumps(doc, indent=2) + "\n"


def report_text(reports: list[CheckReport]) -> str:
    lines = []
    for r in reports:
        status = "PASS" if r.passed else ("INFO" if r.informational else "FAIL")
        lines.append(
            f"[{status}] {r.name}  "
            f"(entries={len(r.entries)}, configs={r.configs_evaluated}, {r.millis} ms)"
        )
        for n1, n2, lhs, rhs in r.entries:
            mark = "ok " if lhs == rhs else "BAD"
            lines.append(f"  {mark} (n1={n1}, n2={n2})  lhs={lhs}  rhs={rhs}")
    overall = "PASS" if all(r.passed or r.informational for r in reports) else "FAIL"
    lines.append(f"overall: {overall}")
    return "\n".join(lines) + "\n"


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="nesthilb",
        description="Verify nested Hilbert scheme identities by exact equivariant localization.",
    )
    p.add_argument("--surface", "-s", default="p2",
                   help="p2 | p1xp1 | fa:<a> | file:<path>")
    p.add_argument("--bundle", "-b", default="O",
                   help="divisor coefficients 'a1,a2,...' or a bundle label (default O)")
    p.add_argument("--check", "-c", default="all", help="|".join(CHECK_NAMES) + "|all")
    p.add_argument("--nmax", "-n", type=int, default=2, help="table truncation order")
    p.add_argument("--seed", type=int, default=0, help="specialization seed")
    p.add_argument("--workers", "-w", type=int, default=1,
                   help="validated (>= 1) and otherwise unused: every check runs in one process")
    p.add_argument("--output", "-o", choices=("text", "json"), default="text")
    p.add_argument("--out", default=None, help="write the report to this path")
    p.add_argument("--timings", action="store_true",
                   help="include wall-clock timings in JSON output")
    return p


def run(args: argparse.Namespace) -> int:
    try:
        if args.check != "all" and args.check not in CHECK_NAMES:
            raise UsageError(f"unknown check {args.check!r}")
        if args.nmax < 0:
            raise UsageError("nmax must be nonnegative")
        if args.workers < 1:
            raise UsageError("workers must be >= 1")
        S = parse_surface(args.surface)
        M, coeffs = parse_bundle(S, args.bundle)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        reports = run_checks(S, M, args.check, args.nmax, args.seed)
    except NestHilbError as exc:
        print(
            f"structural error on surface={args.surface} bundle={args.bundle}: {exc}",
            file=sys.stderr,
        )
        return 3

    if args.output == "json":
        text = report_json(S, coeffs, args.seed, reports, args.timings)
    else:
        text = report_text(reports)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write report to {args.out}: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return 0 if all(r.passed or r.informational for r in reports) else 1


def main(argv: list[str] | None = None) -> int:
    return run(build_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
