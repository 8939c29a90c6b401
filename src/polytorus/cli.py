"""Command-line front end.

Subcommands:
  generate moebius | minimal3k --k K | tube-complex --k K   -> complex file
  analyze COMPLEX                                            -> JSON report
  census --n N [--strategy a|b] [--verify-thm31 K] [--progress]
                                                             -> census + summary
  realize tube --knot F [--eps E] | complement --knot F | cyclic [--k K]
          [-o FILE [--format off|obj] [--precision P]]       -> OFF/OBJ + certificate
  knot det|gauss --knot F                                    -> determinant | Gauss code

Exit codes: 0 success, 1 verification failure, 2 usage error.
Identical arguments and inputs produce byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

from . import census as census_mod
from .cycles import analysis_report
from .diagrams import knot_determinant, project_diagram
from .errors import PolytorusError
from .generators import minimal_torus_3k, moebius_torus, tube_complex
from .knots import load_stick_knot
from .realization import (
    ExactRadius,
    complement_construction,
    core_curve,
    cyclic_polytope_realization,
    export_mesh,
    tube_construction,
)
from .surfaces import format_complex, load_complex, parse_int


def _write(text: str, path):
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _cmd_generate(args) -> int:
    k = 3 if args.k is None else args.k
    if args.kind == "moebius":
        T = moebius_torus()
    elif args.kind == "minimal3k":
        T = minimal_torus_3k(k)
    else:
        T = tube_complex(k)
    _write(format_complex(T), args.output)
    return 0


def _cmd_analyze(args) -> int:
    T = load_complex(args.complex)
    report = analysis_report(T)
    _write(json.dumps(report, indent=2, sort_keys=True) + "\n", args.output)
    return 0 if report["bound_satisfied"] and not report["layer_report"]["violated"] else 1


PROGRESS_INTERVAL_S = 0.25


def _census_progress(n):
    """enumerate_tori callback: the running class count on stderr, at most
    one line per PROGRESS_INTERVAL_S."""
    last = None

    def report(classes):
        nonlocal last
        now = time.monotonic()
        if last is None or now - last >= PROGRESS_INTERVAL_S:
            last = now
            sys.stderr.write(f"census --n {n}: {classes} classes so far\n")
    return report


def _cmd_census(args) -> int:
    if args.verify_thm31 is not None:
        census_mod.check_theorem31_k(args.verify_thm31)  # before any census runs
    progress = _census_progress(args.n) if args.progress else None
    records = census_mod.enumerate_tori(args.n, args.strategy, progress=progress)
    if progress is not None:
        sys.stderr.write(f"census --n {args.n}: {len(records)} classes, done\n")
    lines = []
    by_type: dict[str, int] = {}
    for rec in records:
        lines.append(" ".join(f"{a},{b},{c}" for a, b, c in rec.canonical_faces))
        by_type[rec.type_str] = by_type.get(rec.type_str, 0) + 1
    summary = {
        "schema": 1,
        "n": args.n,
        "count": len(records),
        "by_type": dict(sorted(by_type.items())),
    }
    out = "\n".join(lines) + ("\n" if lines else "")
    out += json.dumps(summary, sort_keys=True) + "\n"
    code = 0
    if args.verify_thm31 is not None:
        rep = census_mod.census_verify_theorem31(args.verify_thm31)
        out += json.dumps({
            "theorem31_k": rep.k,
            "below_counts": rep.below_counts,
            "minimal_count": rep.minimal_count,
            "matches_generator": rep.matches_generator,
            "ok": rep.ok,
        }, sort_keys=True) + "\n"
        code = 0 if rep.ok else 1
    _write(out, args.output)
    return code


def _cmd_realize(args) -> int:
    if args.what == "tube":
        K = load_stick_knot(args.knot)
        mesh = tube_construction(K, None if args.eps is None else ExactRadius.from_value(args.eps))
    elif args.what == "complement":
        K = load_stick_knot(args.knot)
        mesh = complement_construction(K)
    else:
        mesh = cyclic_polytope_realization(3 if args.k is None else args.k)
    cert = {
        "schema": 1,
        "kind": mesh.provenance.get("kind"),
        "vertices": mesh.complex.n_vertices,
        "faces": len(mesh.complex.faces),
        "embedded": mesh.embedding.ok,
    }
    if "knot" in mesh.provenance:
        cert["determinant"] = knot_determinant(core_curve(mesh))
    if "core_determinant" in mesh.provenance:
        cert["determinant"] = mesh.provenance["core_determinant"]
    if args.output is not None:
        export_mesh(mesh, args.output, args.format or "off",
                    12 if args.precision is None else args.precision)
        cert["output"] = args.output
    sys.stdout.write(json.dumps(cert, sort_keys=True) + "\n")
    return 0 if mesh.embedding.ok else 1


def _cmd_knot(args) -> int:
    K = load_stick_knot(args.knot)
    if args.invariant == "det":
        det = knot_determinant(K)
        sys.stdout.write(json.dumps({"schema": 1, "determinant": det}, sort_keys=True) + "\n")
    else:
        diagram = project_diagram(K)
        sys.stdout.write(" ".join(str(x) for x in diagram.gauss_code) + "\n")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="polytorus", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a named triangulation")
    g.add_argument("kind", choices=["moebius", "minimal3k", "tube-complex"])
    g.add_argument("--k", type=parse_int, help="parameter for minimal3k, tube-complex (default 3)")
    g.add_argument("-o", "--output", default="-")
    g.set_defaults(func=_cmd_generate)

    a = sub.add_parser("analyze", help="type, stick number, bound and layer report")
    a.add_argument("complex")
    a.add_argument("-o", "--output", default="-")
    a.set_defaults(func=_cmd_analyze)

    c = sub.add_parser("census", help="enumerate all n-vertex torus triangulations")
    c.add_argument("--n", type=parse_int, required=True)
    c.add_argument("--strategy", choices=["a", "b"], default="a")
    c.add_argument("--verify-thm31", type=parse_int, default=None, metavar="K")
    c.add_argument("--progress", action="store_true",
                   help="write the running class count to stderr")
    c.add_argument("-o", "--output", default="-")
    c.set_defaults(func=_cmd_census)

    r = sub.add_parser("realize", help="build an exact geometric realization")
    r.add_argument("what", choices=["tube", "complement", "cyclic"])
    r.add_argument("--knot", help="stick knot file (tube, complement)")
    r.add_argument("--k", type=parse_int, help="parameter for cyclic (default 3)")
    r.add_argument("--eps", help="tube radius override (rational)")
    r.add_argument("-o", "--output", help="mesh output file")
    r.add_argument("--format", choices=["off", "obj"], help="mesh format (default off)")
    r.add_argument("--precision", type=parse_int, help="mesh decimal digits (default 12)")
    r.set_defaults(func=_cmd_realize)

    k = sub.add_parser("knot", help="knot invariants")
    k.add_argument("invariant", choices=["det", "gauss"])
    k.add_argument("--knot", required=True)
    k.set_defaults(func=_cmd_knot)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "generate" and args.kind == "moebius" and args.k is not None:
        parser.error("--k does not apply to generate moebius")
    if args.command == "realize":
        if args.what in ("tube", "complement") and not args.knot:
            parser.error("realize tube/complement requires --knot")
        if args.what == "cyclic" and args.knot is not None:
            parser.error("--knot does not apply to realize cyclic")
        if args.what != "tube" and args.eps is not None:
            parser.error(f"--eps does not apply to realize {args.what}")
        if args.what != "cyclic" and args.k is not None:
            parser.error(f"--k does not apply to realize {args.what}")
        for option in ("format", "precision"):
            if args.output is None and getattr(args, option) is not None:
                parser.error(f"--{option} does not apply to realize without -o")
        if (args.precision or 0) < 0:
            parser.error("--precision must be >= 0")
    try:
        return args.func(args)
    except PolytorusError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except OSError as exc:
        sys.stderr.write(f"io error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
