"""Command-line surface.

Subcommands: dist, classify, count, spectrum, verify, describe-field.
Data goes to stdout (or --output), diagnostics to stderr. Exit codes:
0 success, 1 verification mismatch, 2 usage or parameter error,
3 internal invariant violation. ``dist``, ``count``, ``spectrum`` and
``verify`` exit 2 at once when the largest number they would print (for
``verify``, build) exceeds ``MAX_OUTPUT_BITS`` bits; the check runs before
any big integer is built. ``classify`` exits 2 before it builds a form of
more than ``MAX_FORM_COEFFS`` coefficients, reads at most
``MAX_FILE_BYTES`` of a ``--file``, and refuses a number with more digits
than its cap before converting it.

Coefficient text grammar (classify input and canonical output)::

    form  := "q=" INT " m=" INT ";" (WS coeff)*
    coeff := "c[" i "][" j "]=" INT

with 1 <= i <= j <= m, each c[i][j] at most once, and values given as element
indices in [0, q). Unlisted coefficients are zero; the zero form is rendered as
``0``. For odd q the table is symmetric, so only i <= j entries are accepted,
and a cross coefficient c contributes 2c * x_i * x_j to the polynomial.
"""

from __future__ import annotations

import argparse
import decimal
import functools
import itertools
import json
import math
import re
import sys
from decimal import Decimal

from .census import census_formula
from .codes import (
    DEFAULT_STEP_BUDGET,
    code_dimension,
    distribution,
    weight_enumerator_text,
)
from .errors import (
    EXACT_CONTEXT,
    InconsistentRankType,
    InternalInconsistency,
    OutOfRange,
    QfrmError,
    count_text,
)
from .field import MAX_ORDER, field_from_order
from .forms import (
    TYPE_LABELS,
    TYPE_TAGS,
    QuadraticForm,
    admissible_tags,
    canonical_form,
    classify,
    triangle_pairs,
    triangle_size,
    zero_count_formula,
)
from .spectra import DEFAULT_ORACLE_BUDGET, CosetQuery, spectrum_formula
from .verify import run_verification

_COEFF_RE = re.compile(r"c\[(\d+)\]\[(\d+)\]=(\d+)")
_HEAD_RE = re.compile(r"^\s*q=(\d+)\s+m=(\d+)\s*;(.*)$", re.DOTALL)

# Largest number, in bits, that dist, count, spectrum or verify may print or
# build. The largest dist and count tables inside it take 0.05 to 0.14 s in
# process on a 2-core x86 box under CPython 3.11 (dist --family rm2 --q 3
# --m 285 prints 7.5 million characters),
# and every table of the test suite and the benchmark stays inside it.
MAX_OUTPUT_BITS = 1 << 16

# Largest coefficient table, m(m+1)/2 entries, that classify accepts: m up to
# 1023, where a sparse form classifies in about a second. The largest zero
# count classify prints, q^m for the zero form, then stays under
# MAX_OUTPUT_BITS for every field (20 * 1023 bits at q = 2^20).
MAX_FORM_COEFFS = 1 << 19
MAX_FORM_M = (math.isqrt(8 * MAX_FORM_COEFFS + 1) - 1) // 2  # 1023

# Largest classify --file read: a dense form at the coefficient cap,
# "c[i][j]=v " for i, j <= 1023 and v < 2^20, takes about 12 MB.
MAX_FILE_BYTES = 1 << 24


def _check_output_size(q: int, exponent: int) -> None:
    """Refuse a command whose largest printed number is about q**exponent
    when that exceeds MAX_OUTPUT_BITS; no power of q is built."""
    # log2 q in fixed point with 32 fractional bits, rounded up: the product
    # stays an int, so no exponent, however long, overflows a float
    log2_q = math.ceil(math.log2(q) * (1 << 32))
    bits = (exponent * log2_q + (1 << 32) - 1) >> 32
    if bits > MAX_OUTPUT_BITS:
        raise OutOfRange(
            f"output would hold numbers of about {count_text(bits)} bits "
            f"({q}^{count_text(exponent)}), over the cap of {MAX_OUTPUT_BITS} bits"
        )


def _number(digits: str, name: str, cap: int) -> int:
    """The value of a digit run whose value is at most ``cap``, refused
    unconverted (int() of n digits takes O(n^2) time) and unechoed when it
    has more significant digits than ``cap``."""
    if len(digits.lstrip("0")) > len(str(cap)):
        raise OutOfRange(f"{name} has more than {len(str(cap))} digits, past its cap {cap}")
    return int(digits)


def _parse_coeff_body(body: str, q: int, m: int) -> QuadraticForm:
    field = field_from_order(q)
    # refuse before the m(m+1)/2 coefficient table is allocated
    if triangle_size(m) > MAX_FORM_COEFFS:
        raise OutOfRange(
            f"a form in {m} variables has {triangle_size(m)} coefficients, "
            f"over the cap of {MAX_FORM_COEFFS}"
        )
    entries = {}
    # one token at a time, so a long --file never becomes a list of strings
    for token in re.finditer(r"\S+", body):
        match = _COEFF_RE.fullmatch(token.group())
        if match is None:
            raise QfrmError("unparsed text in coefficient list")
        i, j = (_number(match.group(k), "a coefficient index", MAX_FORM_M) for k in (1, 2))
        value = _number(match.group(3), "a coefficient value", MAX_ORDER - 1)
        if not 1 <= i <= j <= m:
            raise QfrmError(f"coefficient index c[{i}][{j}] outside 1 <= i <= j <= {m}")
        if not 0 <= value < q:
            raise QfrmError(f"coefficient value {value} outside [0, {q})")
        if (i - 1, j - 1) in entries:
            raise QfrmError(f"coefficient c[{i}][{j}] given twice")
        entries[(i - 1, j - 1)] = value
    return QuadraticForm.from_entries(field, m, entries)


def parse_form_text(text: str) -> QuadraticForm:
    """Parse the full ``q=.. m=..; c[i][j]=..`` grammar."""
    match = _HEAD_RE.match(text)
    if not match:
        raise QfrmError("expected 'q=<q> m=<m>; c[i][j]=<v> ...'")
    q, m = _number(match.group(1), "q", MAX_ORDER), _number(match.group(2), "m", MAX_FORM_M)
    return _parse_coeff_body(match.group(3), q, m)


def format_coeffs(form: QuadraticForm) -> str:
    pairs = zip(triangle_pairs(form.m), form.coeffs)
    parts = [f"c[{i + 1}][{j + 1}]={c}" for (i, j), c in pairs if c]
    return " ".join(parts) if parts else "0"


def _emit(args, text: str) -> None:
    if getattr(args, "output", None):
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    else:
        print(text)


def _emit_table(args, head: dict, columns: tuple[str, ...], rows) -> None:
    """The json or csv of a ``count`` or ``spectrum`` table: json is
    ``head`` plus one object per row under ``entries``, csv the column
    names, then one line per row."""
    if args.format == "json":
        _emit(args, json.dumps({**head, "entries": [dict(zip(columns, row)) for row in rows]}))
    else:
        _emit(args, "\n".join([",".join(columns)] + [",".join(map(str, row)) for row in rows]))


def _exact(command):
    """Run the command under the exact context; the caller's is restored.
    dist and count build their tables in Decimal, so the counts print in
    linear time, where str() of an int is quadratic in its digits."""

    @functools.wraps(command)
    def run(args) -> int:
        with decimal.localcontext(EXACT_CONTEXT):
            return command(args)

    return run


def _check_m_rank(m: int, rank: int | None) -> None:
    """Refuse a negative m, or a given rank outside [0, m], before any table is built."""
    if m < 0:
        raise OutOfRange(f"m must be >= 0, got {m}")
    if rank is not None and not 0 <= rank <= m:
        raise InconsistentRankType(f"rank {rank} outside [0, {m}]")


@_exact
def _cmd_dist(args) -> int:
    _check_output_size(args.q, code_dimension(args.family, args.q, args.m))
    wd = distribution(args.family, args.q, args.m, Decimal(1))
    if args.format == "json":
        _emit(args, json.dumps(wd.to_json_dict()))
    elif args.format == "csv":
        _emit(args, wd.to_csv())
    else:
        _emit(args, weight_enumerator_text(wd))
    return 0


def _cmd_classify(args) -> int:
    if args.file:
        with open(args.file, "rb") as handle:
            data = handle.read(MAX_FILE_BYTES + 1)
        if len(data) > MAX_FILE_BYTES:
            raise OutOfRange(f"{args.file} holds more than {MAX_FILE_BYTES} bytes")
        # a byte that is not UTF-8 becomes U+FFFD, which the grammar refuses
        form = parse_form_text(data.decode("utf-8", errors="replace"))
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
            "zero_count": count_text(zeros),
            "canonical": format_coeffs(canonical),
        }))
    else:
        _emit(args, "\n".join([
            f"rank={rt.rank}",
            f"type={rt.label}",
            f"zeros={count_text(zeros)}",
            f"canonical={format_coeffs(canonical)}",
        ]))
    return 0


@_exact
def _cmd_count(args) -> int:
    if args.type is not None and args.rank is None:
        raise QfrmError("count --type needs --rank")
    _check_m_rank(args.m, args.rank)
    _check_output_size(args.q, triangle_size(args.m))
    table = census_formula(args.q, args.m, Decimal(1))
    total = table.total()
    items = table.sorted_items()
    if args.rank is not None:
        labels = [label for (rank, label), _ in items if rank == args.rank]
        wanted = [label for label in labels if args.type in (None, label)]
        if len(wanted) != 1:
            asked = f"rank={args.rank}" + (f" type={args.type}" if args.type else "")
            raise InconsistentRankType(
                f"no single census class for {asked}; rank {args.rank} has classes: {' '.join(labels)}"
            )
        key = (args.rank, wanted[0])
        items = [(key, table.entries[key])]
        if args.format == "text":
            _emit(args, count_text(items[0][1]))
            return 0
    rows = [(r, l, count_text(c)) for (r, l), c in items]
    if args.format == "text":
        lines = [f"rank={r} type={l} count={c}" for r, l, c in rows]
        lines.append(f"total={count_text(total)}")
        _emit(args, "\n".join(lines))
    else:
        _emit_table(args, {"q": table.q, "m": table.m}, ("rank", "type", "count"), rows)
    return 0


def _infer_tag(q: int, rank: int, type_name: str | None):
    """The tag --type names, else the only admissible tag of the rank."""
    if type_name is not None:
        return TYPE_TAGS[type_name]
    tags = admissible_tags(q, rank)
    if len(tags) > 1:
        raise QfrmError("this (q, rank) needs an explicit --type plus|minus")
    return tags[0]


def _cmd_spectrum(args) -> int:
    _check_m_rank(args.m, args.rank)
    _check_output_size(args.q, args.m + 1)
    tag = _infer_tag(args.q, args.rank, args.type)
    spectrum = spectrum_formula(CosetQuery(args.q, args.m, args.rank, tag, args.c_class))
    population = count_text(spectrum.population)
    rows = [(count_text(v), count_text(k)) for v, k in spectrum.sorted_items()]
    if args.format == "text":
        _emit(args, "\n".join([f"population={population}"] + [f"{v} {k}" for v, k in rows]))
    else:
        head = {"q": args.q, "m": args.m, "rank": args.rank, "type": TYPE_LABELS[tag],
                "c_class": args.c_class, "population": population}
        _emit_table(args, head, ("value", "multiplicity"), rows)
    return 0


def _parse_range(spec: str | None) -> list[range] | None:
    """The values of a ``1,3-5`` list as unexpanded ranges, in order. A
    bound is capped at sys.maxsize, which refuses no run (every q past
    MAX_ORDER and every m past MAX_OUTPUT_BITS is refused later anyway)
    but leaves a long digit run unconverted."""
    if spec is None:
        return None
    out = []
    for part in spec.split(","):
        part = part.strip()
        lo, dash, hi = part.partition("-")
        if not dash:
            hi = lo
        if not lo.isdigit() or not hi.isdigit():
            raise QfrmError(f"bad range {part!r}" if dash else f"bad range element {part!r}")
        lo, hi = (_number(d, "a range bound", sys.maxsize) for d in (lo, hi))
        if lo > hi:
            raise QfrmError(f"bad range {part!r}")
        out.append(range(lo, hi + 1))
    return out


def _cmd_verify(args) -> int:
    for flag, budget in (("--max-points", args.max_points), ("--max-codewords", args.max_codewords)):
        if budget < 0:
            raise QfrmError(f"{flag} must be >= 0, got {budget}")
    qs = _parse_range(args.q)
    ms = _parse_range(args.m)
    if (qs is None) != (ms is None):
        raise QfrmError("give both --q and --m, or neither for the default grids")
    pairs = None
    if qs is not None:
        # the ranges are walked lazily, so a huge one stops at its first
        # refused value and no list is built until every pair has passed
        for q in itertools.chain(*qs):
            field_from_order(q)  # validates prime powers up front
        for q in itertools.chain(*qs):
            for m in itertools.chain(*ms):
                # no check builds or prints a number past q^((m+2)(m+3)/2): the
                # largest, the transform steps of a codes SKIP line, is under
                # m q^((m+1)(m+2)/2 + 1), one factor q past the prm2 dimension
                _check_output_size(q, (m + 2) * (m + 3) // 2)
        pairs = [(q, m) for q in itertools.chain(*qs) for m in itertools.chain(*ms)]
    results = run_verification(
        args.scope, pairs, max_points=args.max_points, max_steps=args.max_codewords
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


def _add_common(parser, formats=("text", "json", "csv")):
    if formats:
        parser.add_argument("--format", choices=formats, default="text")
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
    _add_common(p, formats=("text", "json"))
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
    p.add_argument("--max-points", type=int, default=DEFAULT_ORACLE_BUDGET,
                   help="coset-spectrum oracle budget, in transform steps per form (default 2^24)")
    p.add_argument("--max-codewords", type=int, default=DEFAULT_STEP_BUDGET,
                   help="codeword oracle budget, in transform steps over all the quadratic "
                   "parts of a code (default 2^31)")
    _add_common(p, formats=())
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("describe-field", help="deterministic field construction data")
    p.add_argument("--q", type=int, required=True)
    _add_common(p, formats=("text", "json"))
    p.set_defaults(func=_cmd_describe_field)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "classify" and args.file:
            # refused before the file is read or --q is checked
            given = [f"--{name}" for name in ("coeffs", "q", "m") if getattr(args, name) is not None]
            if given:
                raise QfrmError(f"classify --file takes no {' '.join(given)}: the file holds q, m and the coefficients")
        elif args.command == "classify" and (args.q is None or args.m is None):
            raise QfrmError("classify --coeffs needs --q and --m")
        if isinstance(getattr(args, "q", None), int):
            field_from_order(args.q)  # every integer q must be a prime power
        return args.func(args)
    except InternalInconsistency as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except decimal.DecimalException as exc:
        print(f"error: exact decimal arithmetic failed ({type(exc).__name__})", file=sys.stderr)
        return 3
    except QfrmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
