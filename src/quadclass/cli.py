"""Command-line front-end.

Subcommands: classnum, squarefree, witness, scan, check (cohn|hoque),
family (iizuka|cor5|cor7), search, group.  Each command builds one JSON
document for its result; --json prints it, and the aligned table (the
default) and --csv print rows projected from it.

Exit codes: 0 all requests satisfied; 1 a verified-false divisibility or a
failed asserted member (or a failed internal consistency check); 2 input
error, or output that cannot be written (a closed pipe, a full disk); 3
resource cap exceeded.

Math-valued fields in JSON are always decimal strings, regardless of size,
so the schema does not depend on magnitudes.  The QUADCLASS_CACHE environment
variable overrides --cache.  Every command runs sequentially and each
factorization draws from its own fixed-seed generator, so repeated runs are
byte-identical, with or without a cache.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

from . import cache as result_cache
from . import classgroup, families, intmath, qform, witness
from .errors import InconsistencyError, InputError, ResourceCapError
from .intmath import DEFAULT_FACTOR_BUDGET
from .qform import DEFAULT_DISC_CAP

EXIT_OK = 0
EXIT_FAILED_CHECK = 1
EXIT_INPUT = 2
EXIT_CAP = 3


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--json", action="store_true", help="emit one JSON document")
    parser.add_argument("--csv", action="store_true", help="emit CSV rows")
    parser.add_argument("--max-disc", type=int, default=DEFAULT_DISC_CAP,
                        help="enumeration cap on |discriminant|")
    parser.add_argument("--factor-budget", type=int, default=DEFAULT_FACTOR_BUDGET,
                        help="budget for the rho factoring stage: one unit per step "
                             "per started 64 bits of the number split; a primality test "
                             "above ~3.3e24 is charged its worst case first")
    parser.add_argument("--cache", metavar="PATH", default=None,
                        help="append-only result cache file (QUADCLASS_CACHE overrides)")
    parser.add_argument("--verify-cache", action="store_true",
                        help="recompute a sample of cache entries and compare")


class _Parser(argparse.ArgumentParser):
    def print_help(self, file=None):  # argparse drops a failed write
        (file or sys.stdout).write(self.format_help())


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="quadclass",
        description="Class groups of imaginary quadratic fields and class-number divisibility certificates",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classnum", help="class number of Q(sqrt(d)) for d < 0")
    p.add_argument("d", type=int, nargs="?", default=None, help="negative integer (use -- before it)")
    p.add_argument("--d", dest="d_flag", type=int, default=None, help="alternative to the positional d")
    _add_common(p)

    p = sub.add_parser("squarefree", help="square-free decomposition n = d * t^2")
    p.add_argument("n", type=int, nargs="?", default=None)
    p.add_argument("--n", dest="n_flag", type=int, default=None)
    _add_common(p)

    p = sub.add_parser("witness", help="order-n witness certificate for (x, y, n)")
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--y", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    _add_common(p)

    p = sub.add_parser("scan", help="sweep y over a range for fixed x and n")
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--from", dest="y_from", type=int, required=True)
    p.add_argument("--to", dest="y_to", type=int, required=True)
    p.add_argument("--variant", choices=("standard", "four"), default="standard",
                   help="standard: x^2 - y^n with witness; four: x^2 - 4y^n, divisibility only")
    _add_common(p)

    p = sub.add_parser("check", help="unconditional divisibility checks")
    csub = p.add_subparsers(dest="check_kind", required=True)
    pc = csub.add_parser("cohn", help="n | h(1 - V^n) outside (V, n) = (3, 5)")
    pc.add_argument("--V", type=int, required=True)
    pc.add_argument("--n", type=int, required=True)
    _add_common(pc)
    ph = csub.add_parser("hoque", help="3 | h(sf(-(3^m p^(2n) + r)))")
    ph.add_argument("--m", type=int, required=True)
    ph.add_argument("--p", type=int, required=True)
    ph.add_argument("--n", type=int, required=True)
    ph.add_argument("--r", type=int, required=True, choices=(-2, 4))
    _add_common(ph)

    p = sub.add_parser("family", help="explicit families of fields")
    fsub = p.add_subparsers(dest="family_kind", required=True)
    pi = fsub.add_parser("iizuka", help="m+1 successive fields at square offsets")
    pi.add_argument("--n", type=int, required=True)
    pi.add_argument("--m", type=int, required=True)
    pi.add_argument("--l", type=int, required=True)
    _add_common(pi)
    p5 = fsub.add_parser("cor5", help="pair d, d + 2k - 1")
    p5.add_argument("--n", type=int, required=True)
    p5.add_argument("--k", type=int, required=True)
    p5.add_argument("--l", type=int, required=True)
    _add_common(p5)
    p7 = fsub.add_parser("cor7", help="triple d, d+1, d+3 for divisibility by 3")
    p7.add_argument("--p", type=int, required=True)
    p7.add_argument("--k", type=int, required=True)
    p7.add_argument("--t", type=int, required=True)
    _add_common(p7)

    p = sub.add_parser("search", help="exhaustive search for offset patterns")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--offsets", type=str, required=True, help="distinct, comma-separated, e.g. 0,1,4")
    p.add_argument("--from", dest="d_from", type=int, required=True)
    p.add_argument("--to", dest="d_to", type=int, required=True)
    p.add_argument("--max-hits", type=int, default=1)
    p.add_argument("--largest-first", action="store_true",
                   help="scan from the most negative end instead of the smallest |d|")
    _add_common(p)

    p = sub.add_parser("group", help="class group structure for one discriminant")
    p.add_argument("disc", type=int, nargs="?", default=None)
    p.add_argument("--disc", dest="disc_flag", type=int, default=None)
    _add_common(p)

    return parser


def _check_common(args: argparse.Namespace) -> None:
    if args.json and args.csv:
        raise InputError("--json and --csv are mutually exclusive")
    if args.max_disc < 1 or args.factor_budget < 1:
        raise InputError("caps and budget must be positive")


# -- rendering ----------------------------------------------------------------


def _emit_json(doc) -> None:
    sys.stdout.write(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")


def _columns(rows: list[dict]) -> list[str]:
    """Every key of the rows, in first-seen order."""
    return list(dict.fromkeys(c for r in rows for c in r))


def _emit_table(rows: list[dict]) -> None:
    if not rows:
        print("(no rows)")
        return
    cols = _columns(rows)
    widths = {c: max(len(c), *(len(str(r.get(c, ""))) for r in rows)) for c in cols}
    print("  ".join(c.ljust(widths[c]) for c in cols))
    for r in rows:
        print("  ".join(str(r.get(c, "")).ljust(widths[c]) for c in cols))


def _emit_csv(rows: list[dict]) -> None:
    if not rows:
        return
    writer = csv.DictWriter(sys.stdout, fieldnames=_columns(rows))
    writer.writeheader()
    writer.writerows(rows)


def _emit(args, doc, rows: list[dict]) -> None:
    if args.json:
        _emit_json(doc)
    elif args.csv:
        _emit_csv(rows)
    else:
        _emit_table(rows)


def _witness_doc(rep: witness.WitnessReport) -> dict:
    return {
        "instance": {"x": str(rep.instance.x), "y": str(rep.instance.y), "n": str(rep.instance.n)},
        "d": str(rep.d),
        "t": str(rep.t),
        "delta": str(rep.disc),
        "h": str(rep.h),
        "alpha_form": str(rep.alpha_form),
        "alpha_order": str(rep.alpha_order),
        "cofactor_s": str(rep.cofactor_s),
        "n_divides_h": rep.n_divides_h,
        "alpha_n_principal": True,  # verify_instance raises unless alpha^n is principal
    }


def _witness_row(doc: dict) -> dict:
    """The row of a witness document: the instance flattened, two fields
    renamed and alpha_n_principal left out."""
    names = {"alpha_order": "order", "cofactor_s": "s"}
    row = dict(doc["instance"])
    row.update((names.get(k, k), v) for k, v in doc.items()
               if k not in ("instance", "alpha_n_principal"))
    return row


def _family_doc(rep: families.FamilyReport) -> dict:
    return {
        "family_kind": rep.family_kind,
        "parameters": {k: str(v) for k, v in sorted(rep.parameters.items())},
        "base_d": str(rep.base_d),
        "members": [
            {
                "offset": m.offset,
                "value": str(m.value),
                "d_sf": str(m.d_sf),
                "delta": str(m.disc),
                "h": str(m.h),
                "divisible": m.divisible,
                "asserted": m.asserted,
                "note": m.note,
            }
            for m in rep.members
        ],
        "all_asserted_pass": rep.all_asserted_pass,
    }


# -- commands -----------------------------------------------------------------


def _required_value(positional, flagged, what: str) -> int:
    if positional is not None and flagged is not None:
        raise InputError(f"give {what} either positionally or with the flag, not both")
    value = positional if positional is not None else flagged
    if value is None:
        raise InputError(f"missing {what}")
    return value


def cmd_classnum(args) -> int:
    d = _required_value(args.d, args.d_flag, "d")
    res = classgroup.class_number_of_field(d, args.max_disc, args.factor_budget)
    doc = {"d": str(d), "d_sf": str(res.d_sf), "delta": str(res.disc), "h": str(res.h)}
    _emit(args, doc, [doc])
    return EXIT_OK


def cmd_squarefree(args) -> int:
    n = _required_value(args.n, args.n_flag, "n")
    if n == 0:
        raise InputError("n must be nonzero")
    dec = intmath.squarefree_part(n, args.factor_budget)
    doc = {"n": str(n), "d": str(dec.d), "t": str(dec.t)}
    _emit(args, doc, [doc])
    return EXIT_OK


def cmd_witness(args) -> int:
    inst = witness.Instance(args.x, args.y, args.n)
    rep = witness.verify_instance(inst, args.max_disc, args.factor_budget)
    doc = _witness_doc(rep)
    _emit(args, doc, [_witness_row(doc)])
    return EXIT_OK if rep.n_divides_h else EXIT_FAILED_CHECK


def cmd_scan(args) -> int:
    records = witness.scan(
        args.x,
        args.n,
        args.y_from,
        args.y_to,
        variant=args.variant,
        max_disc=args.max_disc,
        budget=args.factor_budget,
    )
    rec_docs = []
    rows = []
    for r in records:
        doc = {"y": str(r.y), "status": r.status}
        if r.reason:
            doc["reason"] = r.reason
        row = dict(doc)
        if r.witness is not None:
            doc["witness"] = _witness_doc(r.witness)
            row.update((k, v) for k, v in _witness_row(doc["witness"]).items()
                       if k not in ("x", "y", "n"))
        elif r.four is not None:
            doc["four"] = {
                "d": str(r.four.d),
                "t": str(r.four.t),
                "delta": str(r.four.disc),
                "h": str(r.four.h),
                "divisible": r.four.divisible,
            }
            row.update(doc["four"])
        rec_docs.append(doc)
        rows.append(row)
    doc = {
        "command": "scan",
        "variant": args.variant,
        "x": str(args.x),
        "n": str(args.n),
        "records": rec_docs,
    }
    _emit(args, doc, rows)
    return EXIT_OK


def _without_check(doc: dict) -> dict:
    return {k: v for k, v in doc.items() if k != "check"}


def cmd_check(args) -> int:
    if args.check_kind == "cohn":
        res = families.cohn_check(args.V, args.n, args.max_disc, args.factor_budget)
        doc = {
            "check": "cohn",
            "V": str(args.V),
            "n": str(args.n),
            "h": str(res.h),
            "divisible": res.divisible,
            "is_exception": res.is_exception,
        }
        _emit(args, doc, [_without_check(doc)])
        return EXIT_OK if res.divisible or res.is_exception else EXIT_FAILED_CHECK
    res = families.hoque_check(
        args.m, args.p, args.n, args.r, args.max_disc, args.factor_budget
    )
    doc = {
        "check": "hoque",
        "m": str(args.m),
        "p": str(args.p),
        "n": str(args.n),
        "r": str(args.r),
        "d_sf": str(res.d_sf),
        "h": str(res.h),
        "divisible": res.divisible,
        "note": res.note,
    }
    _emit(args, doc, [_without_check(doc)])
    return EXIT_OK if res.divisible else EXIT_FAILED_CHECK


def cmd_family(args) -> int:
    kw = dict(max_disc=args.max_disc, budget=args.factor_budget)
    if args.family_kind == "iizuka":
        rep = families.iizuka_family(args.n, args.m, args.l, **kw)
    elif args.family_kind == "cor5":
        rep = families.cor5_family(args.n, args.k, args.l, **kw)
    else:
        rep = families.cor7_family(args.p, args.k, args.t, **kw)
    doc = _family_doc(rep)
    _emit(args, doc, doc["members"])
    return EXIT_OK if rep.all_asserted_pass else EXIT_FAILED_CHECK


def cmd_search(args) -> int:
    try:
        offsets = [int(tok) for tok in args.offsets.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise InputError(f"bad --offsets value {args.offsets!r}") from exc
    hits = families.search_successive(
        args.n,
        offsets,
        args.d_from,
        args.d_to,
        max_hits=args.max_hits,
        smallest_first=not args.largest_first,
        max_disc=args.max_disc,
        budget=args.factor_budget,
    )
    doc = {"command": "search", "n": str(args.n), "offsets": offsets,
           "hits": [_family_doc(h) for h in hits]}
    rows = [{"d": hit["base_d"], **m} for hit in doc["hits"] for m in hit["members"]]
    _emit(args, doc, rows)
    return EXIT_OK


def cmd_group(args) -> int:
    disc = _required_value(args.disc, args.disc_flag, "disc")
    info = classgroup.group_structure(disc, args.max_disc)
    doc = {
        "delta": str(info.discriminant),
        "h": str(info.h),
        "elementary_divisors": [str(d) for d in info.elementary_divisors],
        "generators": [str(g) for g in info.generators],
    }
    row = {
        "delta": doc["delta"],
        "h": doc["h"],
        "divisors": " ".join(doc["elementary_divisors"]) or "-",
        "generators": " ".join(doc["generators"]) or "-",
    }
    _emit(args, doc, [row])
    return EXIT_OK


def _entry_matches(cache: result_cache.ResultCache, key: str, args) -> bool:
    """Whether the entry under key equals a fresh computation; a key of a
    kind other than factor or h, one whose argument is no integer, or one
    that is no valid input, does not match."""
    kind, _, arg = key.partition(":")
    try:
        value = int(arg)
    except ValueError:
        return False
    try:
        if kind == "factor":
            fresh = intmath.factor(value, args.factor_budget, use_cache=False)
            return cache.get_factor(value) == (fresh.sign, fresh.factors)
        if kind == "h":
            return cache.get_h(value) == qform.count_reduced(value, args.max_disc)
    except InputError:
        pass
    return False


def _run_verify_cache(cache: result_cache.ResultCache, args) -> int:
    """Recompute a sample of cache entries from scratch and compare."""
    mismatches = [key for key in cache.sample_keys(16) if not _entry_matches(cache, key, args)]
    if mismatches:
        print(f"cache verification FAILED for: {', '.join(mismatches)}", file=sys.stderr)
        return EXIT_FAILED_CHECK
    print(f"cache verification ok ({len(cache)} entries, sample checked)", file=sys.stderr)
    return EXIT_OK


_COMMANDS = {
    "classnum": cmd_classnum,
    "squarefree": cmd_squarefree,
    "witness": cmd_witness,
    "scan": cmd_scan,
    "check": cmd_check,
    "family": cmd_family,
    "search": cmd_search,
    "group": cmd_group,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    cache = None
    try:
        _check_common(args)
        cache_path = os.environ.get("QUADCLASS_CACHE") or args.cache
        if cache_path:
            try:
                cache = result_cache.ResultCache(cache_path)
            except OSError as exc:
                raise InputError(f"cannot open cache {cache_path}: {exc.strerror or exc}") from exc
            result_cache.activate(cache)
        if args.verify_cache:
            if cache is None:
                raise InputError("--verify-cache needs --cache or QUADCLASS_CACHE")
            code = _run_verify_cache(cache, args)
            if code != EXIT_OK:
                return code
        return _COMMANDS[args.command](args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ResourceCapError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return EXIT_CAP
    except InconsistencyError as exc:
        print(f"consistency failure: {exc}", file=sys.stderr)
        return EXIT_FAILED_CHECK
    finally:
        if cache is not None:
            result_cache.activate(None)
            cache.close()


def entrypoint() -> None:
    """Run main and exit with its code.  Output that cannot be written (help
    too), to a closed pipe or a full disk, exits 2 with one error line."""
    try:
        try:
            code = main()
        except SystemExit as exc:  # argparse's exit after --help or a usage error
            code = exc.code
        sys.stdout.flush()
    except OSError as exc:
        # the interpreter flushes stdout again at exit: os.devnull takes
        # what the failed write left in its buffer
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print(f"error: cannot write output: {exc.strerror or exc}", file=sys.stderr)
        code = EXIT_INPUT
    raise SystemExit(code)


if __name__ == "__main__":
    entrypoint()
