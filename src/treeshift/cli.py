"""Command-line front end.

Subcommands: generate a counterexample artifact, verify an artifact file,
query dense definedness of a power, emit a verification report, and dump
series partial sums as CSV for external plotting.

Exit codes: 0 success, 1 failed verification, 2 usage error, 3 missing
certificate.  A document's exact numbers are rational strings; its table
enclosures are [lo, hi] pairs of "<m>e<k>" endpoints rounded outward.
Other decimals appear only in human-readable summaries (marked ~) and in
CSV rendering columns.
"""

import argparse
import csv
import io
import json
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

from .construct import (
    SCHEMA,
    CounterexampleRequest,
    approx_residual,
    build_rules,
    generate,
    verify,
)
from .errors import (
    NoCertificateError,
    SupNotWitnessedError,
    ThresholdNotReachedError,
    TreeshiftError,
    WidthNotReachedError,
)
from .rationals import MAX_RATIONAL_BITS, rat_to_decimal, rat_to_str
from .series import LINEAR_Q, MIXED_Q, SequenceSpec
from .shift import glowne_power_check
from .tree import INF, Window

# The most decimal digits the exact cells of one `partial-sums` file may
# hold, about 10 MB.
MAX_CSV_DIGITS = 10_000_000


def _parse_kappa(text: str):
    return INF if text in ("inf", "infinity") else int(text)


def _parse_q(text: str) -> SequenceSpec:
    if text == "linear":
        return LINEAR_Q
    if text == "mixed":
        return MIXED_Q
    raise argparse.ArgumentTypeError(f"unknown q family: {text!r} (use linear|mixed)")


def _window_from(args, base: Window) -> Window:
    return Window(
        base.max_trunk if args.max_trunk is None else args.max_trunk,
        base.max_branch if args.max_branch is None else args.max_branch,
        base.max_depth if args.max_depth is None else args.max_depth,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treeshift",
        description=(
            "Construct and verify subnormal weighted shifts on directed trees "
            "whose n-th power is densely defined while the (n+1)-th is not."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="run the counterexample pipeline")
    g.add_argument("--n", type=int, required=True, help="target power (S^n dense, S^(n+1) not)")
    g.add_argument("--kappa", type=_parse_kappa, default=0, help="trunk length (int or 'inf')")
    g.add_argument("--q", type=_parse_q, default=LINEAR_Q, help="base sequence: linear|mixed")
    g.add_argument("--width", type=Fraction, default=None, help="series enclosure width target")
    g.add_argument("--threshold", type=Fraction, default=None, help="divergence witness threshold")
    g.add_argument("--max-trunk", type=int, default=None)
    g.add_argument("--max-branch", type=int, default=None)
    g.add_argument("--max-depth", type=int, default=None)
    g.add_argument("--out", type=Path, required=True)

    v = sub.add_parser("verify", help="re-run all certificate checks on an artifact")
    v.add_argument("artifact", type=Path)

    d = sub.add_parser("domain-check", help="dense definedness of S^power")
    d.add_argument("artifact", type=Path)
    d.add_argument("--power", type=int, required=True)

    r = sub.add_parser("report", help="emit a verification report")
    r.add_argument("artifact", type=Path)
    r.add_argument("--format", choices=("json", "csv"), default="json")
    r.add_argument("--out", type=Path, default=None)

    p = sub.add_parser("partial-sums", help="CSV of series terms and partial sums")
    p.add_argument("artifact", type=Path)
    p.add_argument("--exponent", type=int, required=True, help="exponent l of sum alpha_i q_i^l")
    p.add_argument("--count", type=int, default=100, help="number of rows; exit 2 when an "
                   f"exact cell is over MAX_RATIONAL_BITS = {MAX_RATIONAL_BITS} bits, or the "
                   f"exact cells over MAX_CSV_DIGITS = {MAX_CSV_DIGITS} digits")
    p.add_argument("--out", type=Path, required=True)
    return parser


def _load_doc(path: Path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _load_rules(path: Path):
    """The uncertified artifact of a document's request; its tables are not
    read (`verify` is what checks them)."""
    doc = _load_doc(path)
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: not a JSON object")
    if doc.get("schema") != SCHEMA:
        raise ValueError(f"unknown artifact schema: {doc.get('schema')!r}")
    if "request" not in doc:
        raise ValueError(f"{path}: request: missing")
    return build_rules(CounterexampleRequest.from_json(doc["request"]))


def _cmd_generate(args) -> int:
    base = CounterexampleRequest(n=args.n, kappa=args.kappa, q=args.q)
    cert = base.cert
    if args.width is not None:
        cert = replace(cert, series_width=args.width)
    if args.threshold is not None:
        cert = replace(cert, divergence_threshold=args.threshold)
    request = CounterexampleRequest(
        n=args.n,
        kappa=args.kappa,
        q=args.q,
        cert=cert,
        window=_window_from(args, base.window),
    )
    artifact = generate(request)
    args.out.write_text(artifact.to_json(), encoding="utf-8")
    nd = artifact.certificates["nd"]
    c_mid = rat_to_decimal(artifact.c.mid(), 8)
    print(f"wrote {args.out}")
    print(f"  c ~ {c_mid}, nd({args.n}) {nd[args.n].verdict}, nd({args.n + 1}) {nd[args.n + 1].verdict}")
    return 0


def _cmd_verify(args) -> int:
    report = verify(_load_doc(args.artifact))
    for record in report.records:
        print(record.line())
    print(f"verification {'PASSED' if report.passed else 'FAILED'}")
    return 0 if report.passed else 1


def _cmd_domain_check(args) -> int:
    artifact = _load_rules(args.artifact)
    cert = glowne_power_check(artifact, args.power)
    print(json.dumps(cert.to_json(), sort_keys=True, indent=1))
    verdict = "densely defined" if cert.in_domain else "NOT densely defined"
    print(f"S^{args.power} is {verdict}")
    return 0


def _cmd_report(args) -> int:
    report = verify(_load_doc(args.artifact))
    if args.format == "json":
        payload = {
            "passed": report.passed,
            "consist6_residuals": {},
            "checks": [
                {
                    "name": r.name,
                    "passed": r.passed,
                    "vertex": r.vertex,
                    "residual": r.residual,
                    "detail": r.detail,
                }
                for r in report.records
            ],
        }
        if report.lemmas is not None:  # None when verify stopped before the identity records
            leaves = dict(leaf for lemma in report.lemmas for leaf in lemma.leaves)
            consist6 = leaves["consist6",]["max_residual"]
            (classes,) = (lemma.classes for lemma in report.lemmas if lemma.name == "consist6")
            payload.update(
                # one entry per class, each exact: v(1,1) stands for every branch vertex
                consist6_residuals={str(u): approx_residual(consist6) for u, _ in classes},
                cc_max_residual=rat_to_str(leaves["cc", "max_residual"]),
                cc_algebra_bound=rat_to_str(leaves["cc", "algebra_bound"]),
                h_positive_on_support=leaves["cc", "h_positive_on_support"],
                consist6_max_residual=rat_to_str(consist6),
            )
        text = json.dumps(payload, sort_keys=True, indent=1) + "\n"
    else:
        buffer = io.StringIO()
        rows = csv.writer(buffer, lineterminator="\n")  # quotes a field holding a comma
        rows.writerow(["name", "passed", "vertex", "residual", "detail"])
        rows.writerows((r.name, int(r.passed), r.vertex or "", r.residual or "", r.detail)
                       for r in report.records)
        text = buffer.getvalue()
    if args.out is None:
        sys.stdout.write(text)
    else:
        args.out.write_text(text, encoding="utf-8")
        print(f"wrote {args.out}")
    return 0 if report.passed else 1


def _cmd_partial_sums(args) -> int:
    artifact = _load_rules(args.artifact)
    alpha = artifact.alpha
    cells, total, digits = [], Fraction(0), 0
    for i in range(1, args.count + 1):  # every exact cell first: nothing is written past a cap
        alpha_i, q_i = alpha.value(i), alpha.q.value(i)
        (a, b), (u, v), e = alpha_i.as_integer_ratio(), q_i.as_integer_ratio(), args.exponent
        if e < 0:
            u, v, e = v, u, -e
        # in lowest terms alpha_i q_i^e has a numerator >= u^e/b and a denominator
        # >= v^e/a: a cell these bounds put over the cap is refused before any power
        least = max(e * (u.bit_length() - 1) - b.bit_length(),
                    e * (v.bit_length() - 1) - a.bit_length()) + 1
        if least > MAX_RATIONAL_BITS:
            bits = [least]
        else:
            term = alpha_i * q_i ** args.exponent
            total += term
            bits = [n.bit_length() for x in (term, total) for n in (x.numerator, x.denominator)]
        if max(bits) > MAX_RATIONAL_BITS:
            raise ValueError(f"row {i} has an exact cell over MAX_RATIONAL_BITS = "
                             f"{MAX_RATIONAL_BITS} bits; --count {i - 1} is the most rows")
        digits += sum(bits) * 30103 // 100000  # the exact cells' decimal digits, near enough
        if digits > MAX_CSV_DIGITS:
            raise ValueError(f"row {i} takes the exact cells past MAX_CSV_DIGITS = "
                             f"{MAX_CSV_DIGITS} digits; --count {i - 1} is the most rows")
        cells.append((term, total))
    lines = ["index,term,partial_sum,term_exact,partial_sum_exact"]
    lines += [f"{i},{rat_to_decimal(term)},{rat_to_decimal(total)},"
              f"{rat_to_str(term)},{rat_to_str(total)}" for i, (term, total) in enumerate(cells, 1)]
    args.out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(
        f"wrote {args.out} (series sum_i alpha_i*q_i^{args.exponent}; multiply by the "
        f"normalization constant c in {interval_note(artifact)} for the weighted series)"
    )
    return 0


def interval_note(artifact) -> str:
    return f"[{rat_to_decimal(artifact.c.lo, 8)}, {rat_to_decimal(artifact.c.hi, 8)}]"


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "generate": _cmd_generate,
        "verify": _cmd_verify,
        "domain-check": _cmd_domain_check,
        "report": _cmd_report,
        "partial-sums": _cmd_partial_sums,
    }
    try:
        return handlers[args.command](args)
    except (WidthNotReachedError, ThresholdNotReachedError) as exc:
        # a --width or --threshold out of reach, like a nonpositive one
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NoCertificateError, SupNotWitnessedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TreeshiftError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
