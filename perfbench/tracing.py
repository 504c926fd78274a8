"""Spans around qfrm's public functions, recorded from outside the program.

qfrm's modules import one another's functions by name, so a function is
wrapped at every name its callers look up (``qfrm.census.classify``,
``qfrm.codes.count_even_rank``, ...), not only where it is defined. A span is
``[name, start, end, parent, count]``: the parent is the index of the span
open when it started (-1 for none) and ``count`` is the work the call was
asked to do, worked out from its arguments. Spans stay in memory until the
run ends.
"""

from __future__ import annotations

import functools
import time

from workloads import code_dimension


class Patcher:
    """Replaces attributes of modules and classes and puts them back."""

    def __init__(self):
        self._saved = []

    def patch(self, owner, attr, make):
        """Replace ``owner.attr`` by ``make(original function)``."""
        orig = vars(owner)[attr]
        if isinstance(orig, functools.cached_property):
            new = functools.cached_property(make(orig.func))
            new.__set_name__(owner, attr)
        else:
            new = make(orig)
        setattr(owner, attr, new)
        self._saved.append((owner, attr, orig))

    def restore(self):
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)


class Tracer(Patcher):
    def __init__(self):
        super().__init__()
        self.spans: list[list] = []
        self._open: list[int] = []

    def span(self, name, count=None):
        """Wrapper factory for ``patch``; ``name`` and ``count`` may be
        functions of the call's arguments."""
        spans, open_, clock = self.spans, self._open, time.perf_counter

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                rec = [
                    name(*args, **kwargs) if callable(name) else name,
                    0.0,
                    0.0,
                    open_[-1] if open_ else -1,
                    count(*args, **kwargs) if count else 0,
                ]
                open_.append(len(spans))
                spans.append(rec)
                rec[1] = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    rec[2] = clock()
                    open_.pop()

            return wrapper

        return make


def _code_work(family, q, m, *args, **kwargs):
    """q^k codewords times n symbols for brute_force_distribution."""
    n = (q ** (m + 1) - 1) // (q - 1) if family == "prm2" else q ** m
    return q ** code_dimension(family, q, m) * n


def _oracle_evals(form, c_class, *args, **kwargs):
    q = form.field.q
    size = {"zero": 1, "nonzero": q - 1, "all": q}.get(c_class, (q - 1) // 2)
    return q ** (2 * form.m) * size


def install(tracer: Tracer, qfrm) -> None:
    """Wrap the public functions of field, forms, census, spectra, codes,
    verify and cli at the names their callers use."""
    from qfrm import census, cli, codes, field, forms, spectra, verify

    def classify_name(form, *args, **kwargs):
        return "forms.classify_even" if form.field.q % 2 == 0 else "forms.classify_odd"

    targets = [
        (field, "field_new", "field.build", None),
        *[(field.FiniteField, a, "field.build", None) for a in ("_exp_log", "add_array", "mul_array", "_add_rows")],
        *[(mod, "field_from_order", "field.lookup", None) for mod in (qfrm, cli, census, codes, spectra, verify)],
        *[(mod, "classify", classify_name, None) for mod in (qfrm, census, cli)],
        (forms, "zero_count_exhaustive", "forms.enum", lambda form, *a, **k: form.field.q ** form.m),
        *[(mod, "canonical_form", "forms.canonical", None) for mod in (verify, cli)],
        (verify, "census_exhaustive", "census.exhaustive", lambda q, m, *a, **k: q ** (m * (m + 1) // 2)),
        *[(mod, "census_formula", "census.formula", None) for mod in (verify, cli, codes)],
        *[(mod, f, "census.count", None) for mod in (census, codes) for f in ("count_even_rank", "count_odd_rank")],
        (verify, "merged_oracle", "spectra.merged_oracle", None),
        *[(mod, "spectrum_oracle", "spectra.oracle", _oracle_evals) for mod in (verify, spectra)],
        *[(verify, f, "spectra.formula", None) for f in ("spectrum_formula", "spectrum_merged")],
        (codes, "coset_weight_multiset", "spectra.formula", None),
        (verify, "brute_force_distribution", "codes.brute", _code_work),
        *[(verify, f, "codes.table", None) for f in (
            "distribution", "rm2_distribution", "hrm2_distribution", "prm2_distribution", "coset_assembled_distribution")],
        (qfrm, "coset_assembled_distribution", "codes.table", None),
        (cli, "distribution", "codes.table", None),
        (codes, "hrm2_distribution", "codes.table", None),
        (cli, "weight_enumerator_text", "codes.render", None),
        (codes, "format_enumerator", "codes.render", None),
        *[(codes.WeightDistribution, f, "codes.render", None) for f in ("to_json_dict", "to_csv")],
        (cli, "run_verification", "verify.run", None),
        (cli, "main", "cli.main", None),
    ]
    for owner, attr, name, count in targets:
        tracer.patch(owner, attr, tracer.span(name, count))


# -- per-layer metrics ------------------------------------------------------------------------

PER_LAYER = {
    "field.build_ms": "ms",
    "forms.classify_even_ms": "ms",
    "forms.classify_odd_ms": "ms",
    "forms.enum_points": "point",
    "census.exhaustive_ms": "ms",
    "census.forms_per_s": "form/s",
    "census.count_calls": "call",
    "census.count_ms": "ms",
    "spectra.oracle_ms": "ms",
    "spectra.evals_per_s": "eval/s",
    "codes.brute_ms": "ms",
    "codes.symbols_per_s": "symbol/s",
    "codes.table_ms": "ms",
    "codes.render_ms": "ms",
    "verify.self_ms": "ms",
    "cli.self_ms": "ms",
}


def per_layer(spans, window_start: float, window_end: float, passes: int) -> dict[str, float]:
    """Per-layer metrics from the spans of one run.

    Times and counts are per pass of the timed window, except
    ``field.build_ms``, which is the field layer's time during set-up,
    where every field is built. A group's time counts only spans with no
    ancestor in the same group, so nested calls are not counted twice.
    """
    n = len(spans)
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * n
    for s, d in zip(spans, dur):
        if s[3] >= 0:
            child[s[3]] += d
    in_window = [window_start <= s[1] and s[2] <= window_end for s in spans]

    def outer_ms(names, window=True):
        nested = [False] * n
        total = 0.0
        for i, s in enumerate(spans):
            p = s[3]
            nested[i] = p >= 0 and (nested[p] or spans[p][0] in names)
            if s[0] in names and not nested[i] and in_window[i] == window:
                total += dur[i]
        return 1000 * total / (passes if window else 1)

    def select(name):
        return [i for i, s in enumerate(spans) if s[0] == name and in_window[i]]

    def per_pass_count(name):
        return sum(spans[i][4] for i in select(name)) / passes

    def rate(name):
        idx = select(name)
        busy = sum(dur[i] for i in idx)
        return sum(spans[i][4] for i in idx) / busy if busy else 0.0

    def self_ms(name):
        return 1000 * sum(dur[i] - child[i] for i in select(name)) / passes

    return {
        "field.build_ms": outer_ms({"field.build", "field.lookup"}, window=False),
        "forms.classify_even_ms": outer_ms({"forms.classify_even"}),
        "forms.classify_odd_ms": outer_ms({"forms.classify_odd"}),
        "forms.enum_points": per_pass_count("forms.enum"),
        "census.exhaustive_ms": outer_ms({"census.exhaustive"}),
        "census.forms_per_s": rate("census.exhaustive"),
        "census.count_calls": len(select("census.count")) / passes,
        "census.count_ms": outer_ms({"census.count"}),
        "spectra.oracle_ms": outer_ms({"spectra.oracle", "spectra.merged_oracle"}),
        "spectra.evals_per_s": rate("spectra.oracle"),
        "codes.brute_ms": outer_ms({"codes.brute"}),
        "codes.symbols_per_s": rate("codes.brute"),
        "codes.table_ms": outer_ms({"codes.table"}),
        "codes.render_ms": outer_ms({"codes.render"}),
        "verify.self_ms": self_ms("verify.run"),
        "cli.self_ms": self_ms("cli.main"),
    }
