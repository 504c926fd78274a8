"""Command-line surface.

Subcommands: dist, classify, count, spectrum, verify, describe-field.
Data goes to stdout (or --output), diagnostics to stderr. Exit codes:
0 success, 1 verification mismatch, 2 usage or parameter error,
3 internal invariant violation. ``dist``, ``count``, ``spectrum`` and
``verify`` exit 2 at once when the largest number they would print (for
``verify``, build) exceeds ``MAX_OUTPUT_BITS`` bits; the check runs before
any big integer is built.

Coefficient text grammar (classify input and canonical output)::

    form  := "q=" INT " m=" INT ";" (WS coeff)*
    coeff := "c[" i "][" j "]=" INT

with 1 <= i <= j <= m and values given as element indices in [0, q).
Unlisted coefficients are zero; the zero form is rendered as ``0``. For
odd q the table is symmetric, so only i <= j entries are accepted, and a
cross coefficient c contributes 2c * x_i * x_j to the polynomial.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys

from .census import census_formula
from .codes import (
    DEFAULT_SYMBOL_BUDGET,
    code_dimension,
    code_parameters,
    distribution,
    weight_enumerator_text,
)
from .errors import (
    InconsistentRankType,
    InexactDivision,
    InternalInconsistency,
    NonDivisibleWeight,
    OutOfRange,
    QfrmError,
)
from .field import field_from_order
from .forms import (
    TYPE_LABELS,
    QuadraticForm,
    admissible_tags,
    canonical_form,
    classify,
    triangle_pairs,
    zero_count_formula,
)
from .spectra import DEFAULT_ORACLE_BUDGET, CosetQuery, spectrum_formula, spectrum_merged
from .verify import run_verification

_COEFF_RE = re.compile(r"c\[(\d+)\]\[(\d+)\]=(\d+)")
_HEAD_RE = re.compile(r"^\s*q=(\d+)\s+m=(\d+)\s*;(.*)$", re.DOTALL)

# Largest number, in bits, that dist, count, spectrum or verify may print or
# build. Decimal rendering dominates near this size (a table at the cap takes
# a second or two), and every table of the test suite and the benchmark stays
# inside it.
MAX_OUTPUT_BITS = 1 << 16


def _check_output_size(q: int, exponent: int) -> None:
    """Refuse a command whose largest printed number is about q**exponent
    when that exceeds MAX_OUTPUT_BITS; no power of q is built."""
    # log2 q in fixed point with 32 fractional bits, rounded up: the product
    # stays an int, so no exponent, however long, overflows a float
    log2_q = math.ceil(math.log2(q) * (1 << 32))
    bits = (exponent * log2_q + (1 << 32) - 1) >> 32
    if bits > MAX_OUTPUT_BITS:
        raise OutOfRange(
            f"output would hold numbers of about {bits} bits ({q}^{exponent}), "
            f"over the cap of {MAX_OUTPUT_BITS} bits"
        )


def _parse_coeff_body(body: str, q: int, m: int) -> QuadraticForm:
    field = field_from_order(q)
    entries = {}
    seen_len = 0
    for match in _COEFF_RE.finditer(body):
        i, j, value = int(match.group(1)), int(match.group(2)), int(match.group(3))
        seen_len += len(match.group(0))
        if not 1 <= i <= j <= m:
            raise QfrmError(f"coefficient index c[{i}][{j}] outside 1 <= i <= j <= {m}")
        if not 0 <= value < q:
            raise QfrmError(f"coefficient value {value} outside [0, {q})")
        entries[(i - 1, j - 1)] = value
    if seen_len != len(re.sub(r"\s+", "", body)):
        raise QfrmError("unparsed text in coefficient list")
    return QuadraticForm.from_entries(field, m, entries)


def parse_form_text(text: str) -> QuadraticForm:
    """Parse the full ``q=.. m=..; c[i][j]=..`` grammar."""
    match = _HEAD_RE.match(text)
    if not match:
        raise QfrmError("expected 'q=<q> m=<m>; c[i][j]=<v> ...'")
    q, m = int(match.group(1)), int(match.group(2))
    return _parse_coeff_body(match.group(3), q, m)


def format_coeffs(form: QuadraticForm) -> str:
    parts = [
        f"c[{i + 1}][{j + 1}]={form.coeff(i, j)}"
        for i, j in triangle_pairs(form.m)
        if form.coeff(i, j)
    ]
    return " ".join(parts) if parts else "0"


def _emit(args, text: str) -> None:
    if getattr(args, "output", None):
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    else:
        print(text)


def _cmd_dist(args) -> int:
    _check_output_size(args.q, code_dimension(args.family, args.q, args.m))
    wd = distribution(args.family, args.q, args.m)
    if args.format == "json":
        _emit(args, json.dumps(wd.to_json_dict()))
    elif args.format == "csv":
        _emit(args, wd.to_csv())
    else:
        _emit(args, weight_enumerator_text(wd))
    return 0


def _cmd_classify(args) -> int:
    if args.file:
        with open(args.file, encoding="utf-8") as handle:
            form = parse_form_text(handle.read())
    elif args.coeffs is not None:
        form = _parse_coeff_body(args.coeffs, args.q, args.m)
    else:
        raise QfrmError("classify needs --coeffs or --file")
    rt = classify(form)
    q, m = form.field.q, form.m
    zeros = zero_count_formula(rt.rank, rt.type_tag, q, m)
    canonical = canonical_form(form.field, m, rt.rank, rt.type_tag)
    if args.format == "json":
        _emit(args, json.dumps({
            "q": q,
            "m": m,
            "rank": rt.rank,
            "type": rt.label,
            "zero_count": str(zeros),
            "canonical": format_coeffs(canonical),
        }))
    else:
        _emit(args, "\n".join([
            f"rank={rt.rank}",
            f"type={rt.label}",
            f"zeros={zeros}",
            f"canonical={format_coeffs(canonical)}",
        ]))
    return 0


def _cmd_count(args) -> int:
    if args.m < 0:
        raise OutOfRange(f"m must be >= 0, got {args.m}")
    _check_output_size(args.q, args.m * (args.m + 1) // 2)
    table = census_formula(args.q, args.m)
    items = table.sorted_items()
    if args.rank is not None:
        labels = [label for (rank, label), _ in items if rank == args.rank]
        wanted = [label for label in labels if args.type in (None, label)]
        if len(wanted) != 1:
            raise InconsistentRankType(
                f"no single census class for rank={args.rank} type={args.type}; "
                f"rank {args.rank} has classes: {' '.join(labels) or 'none'}"
            )
        key = (args.rank, wanted[0])
        items = [(key, table.entries[key])]
        if args.format == "text":
            _emit(args, str(items[0][1]))
            return 0
    if args.format == "json":
        entries = [{"rank": r, "type": l, "count": str(c)} for (r, l), c in items]
        _emit(args, json.dumps({"q": table.q, "m": table.m, "entries": entries}))
    elif args.format == "csv":
        lines = ["rank,type,count"] + [f"{r},{l},{c}" for (r, l), c in items]
        _emit(args, "\n".join(lines))
    else:
        lines = [f"rank={r} type={l} count={c}" for (r, l), c in items]
        lines.append(f"total={sum(c for _, c in items)}")
        _emit(args, "\n".join(lines))
    return 0


def _infer_tag(q: int, rank: int, type_name: str | None):
    """The tag --type names, else the only admissible tag of the rank."""
    if type_name is not None:
        return next(tag for tag, label in TYPE_LABELS.items() if label == type_name)
    tags = admissible_tags(q, rank)
    if len(tags) > 1:
        raise QfrmError("this (q, rank) needs an explicit --type plus|minus")
    return tags[0]


def _cmd_spectrum(args) -> int:
    _check_output_size(args.q, args.m + 1)
    tag = _infer_tag(args.q, args.rank, args.type)
    if args.c_class == "merged":
        spectrum = spectrum_merged(args.q, args.m, args.rank, tag)
    else:
        spectrum = spectrum_formula(CosetQuery(args.q, args.m, args.rank, tag, args.c_class))
    if args.format == "json":
        _emit(args, json.dumps({
            "q": args.q,
            "m": args.m,
            "rank": args.rank,
            "type": TYPE_LABELS[tag],
            "c_class": args.c_class,
            "population": str(spectrum.population),
            "entries": spectrum.to_json_entries(),
        }))
    elif args.format == "csv":
        lines = ["value,multiplicity"] + [f"{v},{k}" for v, k in spectrum.sorted_items()]
        _emit(args, "\n".join(lines))
    else:
        lines = [f"population={spectrum.population}"]
        lines += [f"{v} {k}" for v, k in spectrum.sorted_items()]
        _emit(args, "\n".join(lines))
    return 0


def _parse_range(spec: str | None) -> list[int] | None:
    if spec is None:
        return None
    out = []
    for part in spec.split(","):
        part = part.strip()
        if "-" in part:
            lo, hi = part.split("-", 1)
            if not lo.isdigit() or not hi.isdigit() or int(lo) > int(hi):
                raise QfrmError(f"bad range {part!r}")
            out.extend(range(int(lo), int(hi) + 1))
        elif part.isdigit():
            out.append(int(part))
        else:
            raise QfrmError(f"bad range element {part!r}")
    return out


def _cmd_verify(args) -> int:
    qs = _parse_range(args.q)
    ms = _parse_range(args.m)
    if (qs is None) != (ms is None):
        raise QfrmError("give both --q and --m, or neither for the default grids")
    pairs = None
    if qs is not None:
        for q in qs:
            field_from_order(q)  # validates prime powers up front
        pairs = [(q, m) for q in qs for m in ms]
        for q, m in pairs:
            # no check builds or prints a power of q past q^((m+2)(m+3)/2): the
            # prm2 dimension (m+1)(m+2)/2 plus n <= q^(m+1) in a symbol count
            _check_output_size(q, (m + 2) * (m + 3) // 2)
    results = run_verification(
        args.scope, pairs, max_points=args.max_points, max_symbols=args.max_codewords
    )
    lines = []
    for res in results:
        line = f"{res.status} {res.name}"
        if res.detail:
            line += f" ({res.detail})"
        lines.append(line)
    passed = sum(1 for r in results if r.passed and not r.skipped)
    failed = sum(1 for r in results if not r.passed)
    skipped = sum(1 for r in results if r.skipped)
    lines.append(f"passed={passed} failed={failed} skipped={skipped}")
    _emit(args, "\n".join(lines))
    return 1 if failed else 0


def _cmd_describe_field(args) -> int:
    field = field_from_order(args.q)
    info = field.describe()
    if field.p == 2:
        extra = ("smallest_trace_one", field.smallest_trace_one())
    else:
        extra = ("smallest_nonsquare", field.smallest_nonsquare())
    if args.format == "json":
        payload = dict(info)
        payload[extra[0]] = extra[1]
        _emit(args, json.dumps(payload))
    else:
        lines = [
            f"q={info['q']}",
            f"p={info['p']}",
            f"e={info['e']}",
            "modulus=" + ",".join(str(c) for c in info["modulus"]),
            f"{extra[0]}={extra[1]}",
        ]
        _emit(args, "\n".join(lines))
    return 0


def _add_common(parser, fmt=True):
    if fmt:
        parser.add_argument("--format", choices=("text", "json", "csv"), default="text")
    parser.add_argument("--output", help="write data to this path instead of stdout")


# one parser per process: parse_args leaves it unchanged, and building it
# costs more than most in-process calls of main
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qfrm",
        description="Quadratic form classification and exact weight distributions "
        "of second-order evaluation codes over small finite fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dist", help="weight distribution of a code family")
    p.add_argument("--family", choices=("rm2", "hrm2", "prm2"), required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_dist)

    p = sub.add_parser("classify", help="rank/type of a quadratic form")
    p.add_argument("--q", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--coeffs", help="space-separated c[i][j]=v entries (needs --q/--m)")
    p.add_argument("--file", help="file holding the full 'q=.. m=..; ...' form text")
    _add_common(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("count", help="census of forms by rank and type")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--rank", type=int)
    p.add_argument("--type", choices=("plus", "minus"))
    _add_common(p)
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("spectrum", help="coset zero-count multisets")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--type", choices=("plus", "minus", "untyped"))
    p.add_argument(
        "--c-class",
        choices=("zero", "square", "nonsquare", "nonzero", "merged"),
        default="merged",
        dest="c_class",
    )
    _add_common(p)
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("verify", help="run formula-vs-oracle comparisons")
    p.add_argument("--scope", choices=("census", "spectra", "codes", "all"), required=True)
    p.add_argument("--q", help="value, comma list, or a-b range (with --m)")
    p.add_argument("--m", help="value, comma list, or a-b range (with --q)")
    p.add_argument("--max-points", type=int, default=DEFAULT_ORACLE_BUDGET)
    p.add_argument("--max-codewords", type=int, default=DEFAULT_SYMBOL_BUDGET)
    _add_common(p, fmt=False)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("describe-field", help="deterministic field construction data")
    p.add_argument("--q", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_describe_field)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # exact counts can run past CPython's default cap on int-to-decimal
    # conversion; lift it while this command renders, restore it after
    digit_cap = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        if args.command == "classify" and not args.file:
            if args.q is None or args.m is None:
                raise QfrmError("classify --coeffs needs --q and --m")
        if isinstance(getattr(args, "q", None), int):
            field_from_order(args.q)  # every integer q must be a prime power
        return args.func(args)
    except (InternalInconsistency, InexactDivision, NonDivisibleWeight) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except QfrmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        sys.set_int_max_str_digits(digit_cap)
