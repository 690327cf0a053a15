"""Command-line front end.

Four subcommands: construct (build a starter and optionally its full cover
and witness certificate), verify (re-check fixture files), search
(exhaustive enumeration for small orders), and coverage (which criteria
certify an order).  Output is either human-oriented text or a single
machine-readable JSON document; both carry the same numeric content.

Exit codes are a stable contract: 0 = success/verified, 1 = a verification
failed, 2 = invalid or ineligible input.  `_finish` alone prints the JSON
envelope or the text lines and maps `verified` to the exit code; `main` maps
errors to 2 or 1.  Path data in text output uses the fixture format
(comma-separated labels, '#' comments), so emitted paths can be fed straight
back to `verify`.

Each subcommand imports the package modules it uses when it runs, so
building the parser loads none of them, `coverage` never loads the
construction, search or cover machinery, and `verify` loads the cover
module, and numpy with it, only for `--mode odc`.
"""

from __future__ import annotations

import argparse
import json
import sys

TYPE_CHECKING = False  # typing.TYPE_CHECKING, which type checkers take as True, without importing typing
if TYPE_CHECKING:
    from collections.abc import Callable, Iterable
    from typing import Any

    from .coverage import CoverageVerdict, FormTag
    from .pathcore import VertexPath

SCHEMA_VERSION = "1"

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_BAD_INPUT = 2


def _finish(args: argparse.Namespace, inputs: dict[str, Any], result: Any, verified: bool,
            lines: Iterable[str]) -> int:
    """Print the machine envelope, or the text lines (read only here, so they may be a
    generator); then the exit code: 0 when verified, 1 otherwise."""
    if args.format == "machine":
        doc = {"schema_version": SCHEMA_VERSION, "command": args.command, "inputs": inputs,
               "result": result, "verified": verified}
        print(json.dumps(doc, indent=2))
    else:
        for line in lines:
            print(line)
    return EXIT_OK if verified else EXIT_VERIFY_FAILED


# ---------------------------------------------------------------- construct


def _check_cover_fits(n: int) -> None:
    """Refuse (exit 2) an order above odc.MAX_ORDER, before any n x n array is made."""
    from . import odc

    if n > odc.MAX_ORDER:
        raise ValueError(f"n must be at most {odc.MAX_ORDER} so that its cover fits in memory, got {n}")


def cmd_construct(args: argparse.Namespace) -> int:
    from . import construction, odc, pathcore

    try:
        _check_cover_fits(args.n)
    except ValueError:
        construction.eligibility_modulus(args.n)  # an ineligible order keeps its own message
        raise
    # build_starter has already checked the terrace and starter properties;
    # a failure there raises RuntimeError, so only the cover is left to verify.
    inst = construction.build_starter(args.n, args.root)
    collection = odc.translates(inst.terrace)
    verified = odc.verify_odc(collection).ok

    lengths = pathcore.edge_lengths(inst.terrace)
    rows = collection.matrix.tolist() if args.emit in ("odc", "all") else None
    cert = construction.witness_certificate(inst) if args.emit in ("witnesses", "all") else None

    result: dict[str, Any] = {
        "n": inst.n,
        "root": inst.root,
        "modulus": inst.modulus,
        "starter": list(inst.terrace.vertices),
        "lengths": list(lengths),
        "distances": [[ell, k] for ell, k in enumerate(inst.profile, 1)],
    }
    if rows is not None:
        result["odc"] = rows
    if cert is not None:
        # json writes the edge tuples as arrays
        result["witnesses"] = [cert[k]._asdict() for k in sorted(cert)]

    def lines():
        yield (f"# construct n={inst.n} root={inst.root} modulus={inst.modulus} "
               f"verified={'true' if verified else 'false'}")
        yield f"# lengths {','.join(map(str, lengths))}"
        yield "# distances " + " ".join(f"{ell}->{k}" for ell, k in enumerate(inst.profile, 1))
        if args.emit in ("starter", "all"):
            yield pathcore.format_path(inst.terrace.vertices)
        if rows is not None:
            yield f"# odc {inst.n} rows"
            yield from map(pathcore.format_path, rows)
        if cert is not None:
            yield "# witnesses"
            for k in sorted(cert):
                w = cert[k]
                yield (f"# k={w.k} x={w.x} u={w.u} i={w.i} j={w.j} "
                       f"edge_i={w.edge_i[0]},{w.edge_i[1]} edge_j={w.edge_j[0]},{w.edge_j[1]} "
                       f"length={w.length} pos_i={w.edge_index_i} pos_j={w.edge_index_j}")

    inputs = {"n": args.n, "root": args.root, "emit": args.emit}
    return _finish(args, inputs, result, verified, lines())


# ------------------------------------------------------------------- verify


def _path_from_json(row: Any) -> VertexPath:
    from .pathcore import VertexPath

    # VertexPath itself rejects bools, floats and strings, naming the value
    if not isinstance(row, list):
        raise ValueError(f"a path must be a list of integers, got {row!r}")
    return VertexPath(tuple(row))


def _paths_from_text(text: str, mode: str) -> list[VertexPath]:
    """Fixture lines, or a machine JSON document (sniffed by its first byte)."""
    from .pathcore import parse_paths

    if not text.lstrip().startswith("{"):
        return parse_paths(text)
    result = json.loads(text).get("result", {})
    if not isinstance(result, dict):
        raise ValueError(f"'result' must be an object, got {result!r}")
    # the first key present wins: a cover is checked as a cover, and each other mode prefers the starter
    keys = ("odc", "starter", "starters") if mode == "odc" else ("starter", "odc", "starters")
    key = next((k for k in keys if k in result), None)
    if key is None:
        raise ValueError("machine document carries no paths")
    rows = [result[key]] if key == "starter" else result[key]
    if not isinstance(rows, list):
        raise ValueError(f"paths must be a list, got {rows!r}")
    return [_path_from_json(row) for row in rows]


def cmd_verify(args: argparse.Namespace) -> int:
    from . import pathcore

    with open(args.file, encoding="utf-8") as f:
        text = f.read()
    try:
        paths = _paths_from_text(text, args.mode)
    except RecursionError:  # a RuntimeError, raised by json.loads on deep nesting
        raise ValueError(f"{args.file} is nested too deeply to read") from None
    if not paths:
        raise ValueError(f"no paths in {args.file}")
    inputs = {"file": args.file, "mode": args.mode}
    head = f"# verify file={args.file} mode={args.mode} paths={len(paths)}"

    if args.mode == "odc":
        from . import odc  # the one mode that needs the cover module, and numpy

        _check_cover_fits(paths[0].n)
        collection = odc.OdcCollection(paths)  # wrong size/mixed orders -> bad input
        report = odc.verify_odc(collection)
        result = {
            "mode": "odc",
            "n": collection.n,
            "double_cover_ok": report.double_cover_ok,
            "orthogonality_ok": report.orthogonality_ok,
            "violations": [v._asdict() for v in report.violations],
        }

        def cover_lines():
            yield head
            yield f"double_cover: {'ok' if report.double_cover_ok else 'FAIL'}"
            yield f"orthogonality: {'ok' if report.orthogonality_ok else 'FAIL'}"
            for v in report.violations:
                yield f"violation: {v.kind} {v.subject[0]},{v.subject[1]} count={v.count}"

        return _finish(args, inputs, result, report.ok, cover_lines())

    rows = []
    ok_all = True
    for idx, p in enumerate(paths):
        if args.mode == "terrace":
            ok, counts = pathcore.is_terrace(p)
            # lengths that occur a wrong number of times first, then the absent ones
            bad = [[ell, c] for ell, c in enumerate(counts, 1) if c not in (0, 2)]
            bad.extend([ell, 0] for ell, c in enumerate(counts, 1) if c == 0)
            rows.append({"index": idx, "ok": ok, "bad_length_counts": bad})
        else:  # starter
            ok, profile = pathcore.is_odc_starter(p)
            row: dict[str, Any] = {"index": idx, "ok": ok}
            if profile is not None:
                row["distances"] = [[ell, k] for ell, k in enumerate(profile, 1)]
            rows.append(row)
        ok_all &= ok

    def path_lines():
        yield head
        for row in rows:
            if row["ok"]:
                yield f"path {row['index']}: ok"
            elif args.mode == "terrace":
                detail = " ".join(f"length {ell} count={c}" for ell, c in row["bad_length_counts"])
                yield f"path {row['index']}: FAIL not a terrace: {detail}"
            else:
                yield f"path {row['index']}: FAIL not a starter"

    return _finish(args, inputs, {"mode": args.mode, "paths": rows}, ok_all, path_lines())


# ------------------------------------------------------------------- search


def cmd_search(args: argparse.Namespace) -> int:
    from . import pathcore, search

    ceiling = search.DEFAULT_CEILING if args.ceiling is None else args.ceiling
    cfg = search.SearchConfig(
        n=args.n,
        canonicalize=not args.no_canonicalize,
        limit=args.limit,
        ceiling=ceiling,
    )
    # enumerate_starters runs the starter scan on every path and raises on a defect (exit 1)
    res = search.enumerate_starters(cfg)
    result = {
        "n": args.n,
        "count": len(res.starters),
        "nodes_explored": res.nodes_explored,
        "wall_time_s": res.wall_time,
        "starters": [list(p.vertices) for p in res.starters],
    }
    inputs = {"n": args.n, "canonicalize": not args.no_canonicalize, "limit": args.limit, "ceiling": ceiling}
    # An empty enumeration is a valid answer, not a failure.
    code = _finish(args, inputs, result, True, (pathcore.format_path(p.vertices) for p in res.starters))
    print(f"# search n={args.n} found={len(res.starters)} nodes={res.nodes_explored} time={res.wall_time:.3f}s",
          file=sys.stderr)
    return code


# ----------------------------------------------------------------- coverage


def _verdict_dict(v: CoverageVerdict, families: tuple[str, ...] | None = None) -> dict[str, Any]:
    cert = v.product_cert
    d: dict[str, Any] = {
        "n": v.n,
        "product": None
        if cert is None
        else {
            "base": cert.base,
            "base_form": cert.base_tag._asdict(),
            "factors": [[q, tag._asdict()] for q, tag in cert.factors],
        },
        "complement_prime": v.complement_prime,
        "is_new": v.is_new,
    }
    if families is not None:
        d["families"] = list(families)
    return d


def _verdict_line(v: CoverageVerdict, families: tuple[str, ...] | None = None) -> str:
    cert = v.product_cert
    if cert is None:
        product = "none"
    else:
        pieces = [f"{cert.base}[{cert.base_tag.kind}:{cert.base_tag.witness}]"]
        pieces.extend(f"{q}[{tag.kind}:{tag.witness}]" for q, tag in cert.factors)
        product = "*".join(pieces)
    line = (
        f"n={v.n} new={'yes' if v.is_new else 'no'} "
        f"complement_prime={'yes' if v.complement_prime else 'no'} product={product}"
    )
    if families is not None:
        line += f" families={','.join(families) if families else '-'}"
    return line


def _rederives(table: dict[int, FormTag | None], check: Callable[[int], FormTag | None], v: int,
               tag: FormTag) -> bool:
    """Whether check(v), kept in table after its first call, is the certificate's tag; a v
    that check refuses, such as a q that is no prime power, has no tag and fails."""
    if v not in table:
        try:
            table[v] = check(v)
        except ValueError:
            table[v] = None
    return table[v] is not None and table[v] == tag


def cmd_coverage(args: argparse.Namespace) -> int:
    from . import coverage

    if args.n is not None:
        if args.new_only:
            raise ValueError("--new-only needs --range")
        verdicts = [(coverage.classify(args.n), None)]
        inputs: dict[str, Any] = {"n": args.n}
    else:
        lo, hi = args.range
        if lo > hi:
            raise ValueError(f"--range needs LO <= HI, got LO={lo} HI={hi}")
        verdicts = list(coverage._range_verdicts(lo, hi, args.new_only))
        inputs = {"range": [lo, hi], "new_only": args.new_only}

    # Re-derive every certificate's tags in-process before reporting, through the public
    # checks, once per distinct base and q; each certificate compares its own tags.
    bases: dict[int, FormTag | None] = {}
    powers: dict[int, FormTag | None] = {}
    verified = all(
        cert.product == v.n
        and _rederives(bases, coverage.qualifies_base, cert.base, cert.base_tag)
        and all(_rederives(powers, coverage.qualifies_prime_power, q, tag) for q, tag in cert.factors)
        for v, _ in verdicts
        if (cert := v.product_cert) is not None
    )
    # only the envelope needs the verdict dicts
    result = {"verdicts": [_verdict_dict(v, fams) for v, fams in verdicts]} if args.format == "machine" else None
    return _finish(args, inputs, result, verified, (_verdict_line(v, fams) for v, fams in verdicts))


# ------------------------------------------------------------------ parsing


def _int(text: str) -> int:
    """Every integer flag's type: an optional '-' then ASCII digits.  int() alone also reads
    '٣', '1_1', ' 9' and '+9'; those get argparse's usual invalid-int error here (exit 2)."""
    digits = text.removeprefix("-")
    try:
        if digits.isascii() and digits.isdigit():
            return int(text)
    except ValueError:  # more digits than int() converts
        pass
    raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="odckit",
        description="Orthogonal double covers of K_n by Hamiltonian paths.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a starter from discrete logs mod 2n+1")
    p.add_argument("--n", type=_int, required=True, help="odd order with 2n+1 prime")
    p.add_argument("--root", type=_int, default=None, help="primitive root of 2n+1 (default: smallest)")
    p.add_argument("--emit", choices=["starter", "odc", "witnesses", "all"], default="starter")
    p.add_argument("--format", choices=["text", "machine"], default="text")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("verify", help="re-check paths from a fixture or machine file")
    p.add_argument("file", help="fixture file (one comma-separated path per line) or machine JSON")
    p.add_argument("--mode", choices=["terrace", "starter", "odc"], default="starter")
    p.add_argument("--format", choices=["text", "machine"], default="text")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("search", help="exhaustively enumerate starters for small n")
    p.add_argument("--n", type=_int, required=True)
    p.add_argument("--limit", type=_int, default=None, help="stop after this many starters")
    # None stands for search.DEFAULT_CEILING, read in cmd_search so the parser imports nothing
    p.add_argument("--ceiling", type=_int, default=None,
                   help="largest order the search will accept")
    p.add_argument("--no-canonicalize", action="store_true",
                   help="list every starter with first vertex 0, not one per class")
    p.add_argument("--format", choices=["text", "machine"], default="text")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("coverage", help="which criteria certify an odd order")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--n", type=_int, default=None)
    group.add_argument("--range", type=_int, nargs=2, metavar=("LO", "HI"), default=None)
    p.add_argument("--new-only", action="store_true",
                   help="only orders certified by the discrete-log route alone")
    p.add_argument("--format", choices=["text", "machine"], default="text")
    p.set_defaults(func=cmd_coverage)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse reports its own errors on stderr
        return EXIT_BAD_INPUT if exc.code else EXIT_OK
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # NotEligibleError and JSONDecodeError among them
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except RuntimeError as exc:
        print(f"verification defect: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAILED


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
