"""Spans around calls into matcon's layers, and the per-layer metrics
derived from them.

The tracer wraps public functions from outside the program: every module
attribute in ``matcon`` that is bound to a traced function is replaced by
one wrapper, so a call through any binding (``matcon.montecarlo.
analytic_second_moments``, ``matcon.bounds.brute_force_expected_norm``, the
package re-exports, ...) records a span.  Methods are wrapped on their
class.  A span is ``(id, parent id, name, start, end, meta)``; spans stay
in memory and are written once when the pass ends.

Span names are metric groups, not function names: every function of one
group shares a name, so a nested call of the same group (``make_example``
calling ``make_model``, ``gaussians`` calling ``counter_words``) adds no
time twice.
"""

from __future__ import annotations

import functools
import math
import statistics
import threading
import time

KINDS = (
    "heinz",
    "gm_am_trace",
    "sum_squares",
    "trace_product",
    "monotonicity",
    "diff_powers",
    "double_factorial",
    "dilation_square",
)

# meta(args, kwargs, result) -> counts recorded on the span


def _summands(args, kwargs, model) -> dict:
    return {"summands": model.n_summands}


def _one_case(args, kwargs, case) -> dict:
    return {"cases": 1}


def _combinations(args, kwargs, value) -> dict:
    from matcon.oracles import as_finite_summand

    return {"combinations": math.prod(as_finite_summand(s).support_size for s in args[0])}


def _fact_name(args, kwargs) -> str:
    return "oracles.facts." + (args[0] if args else kwargs["kind"])


# (module, function, span name, meta or None)
FUNCTIONS = (
    ("matcon.cli", "main", "cli.main", None),
    ("matcon.models", "make_example", "models.build", _summands),
    ("matcon.models", "make_model", "models.build", _summands),
    ("matcon.models", "model_from_json", "models.build", _summands),
    ("matcon.models", "analytic_second_moments", "models.moments", None),
    ("matcon.models", "analytic_max_sq", "models.max_sq", None),
    ("matcon.rng", "counter_words", "rng", lambda a, k, out: {"words": out.size}),
    ("matcon.rng", "uniform_halfopen", "rng", None),
    ("matcon.rng", "uniform_positive", "rng", None),
    ("matcon.rng", "signs", "rng", None),
    ("matcon.rng", "gaussians", "rng", None),
    ("matcon.montecarlo", "collect_samples", "montecarlo.collect",
     lambda a, k, out: {"samples": len(out[0])}),
    ("matcon.montecarlo", "estimate_max_summand_sq", "montecarlo.max_sq_estimate", None),
    ("matcon.montecarlo", "bound_report", "montecarlo.report", None),
    ("matcon.linalg", "spectral_norm", "linalg.spectral_norm", None),
    ("matcon.oracles", "case_rng", "oracles.case_gen", None),
    ("matcon.oracles", "symmetrization_rng", "oracles.case_gen", None),
    ("matcon.oracles", "random_fact_case", "oracles.case_gen", _one_case),
    ("matcon.oracles", "random_zero_mean_summands", "oracles.case_gen", _one_case),
    ("matcon.oracles", "random_hermitian_family", "oracles.case_gen", _one_case),
    ("matcon.oracles", "verify_fact", "oracles.check", None),
    ("matcon.oracles", "symmetrization_check", "oracles.check", None),
    ("matcon.oracles", "sweep_fact_kind", _fact_name, None),
    ("matcon.oracles", "sweep_symmetrization", "oracles.symmetrization", None),
    ("matcon.oracles", "brute_force_expected_norm", "oracles.enum", _combinations),
    ("matcon.bounds", "sweep_rademacher_domination", "bounds.domination",
     lambda a, k, out: {"cases": len(out)}),
)

# (module, class, method, span name, meta)
METHODS = (
    ("matcon.models", "SamplerPlan", "__init__", "models.plan", None),
    ("matcon.models", "SamplerPlan", "realize", "models.realize",
     lambda a, k, out: {"bytes": out[0].nbytes}),
    ("matcon.linalg", "HermitianMatrix", "__init__", "linalg.hermitian", None),
)


class Tracer:
    """Collects spans; one stack of open spans per thread."""

    def __init__(self):
        self.spans: list = []
        self.bindings: list[str] = []
        self._local = threading.local()

    def wrap(self, fn, name, meta=None):
        spans = self.spans
        local = self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            label = name(args, kwargs) if callable(name) else name
            out = None
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                t1 = time.perf_counter()
                stack.pop()
                info = meta(args, kwargs, out) if meta is not None and out is not None else None
                spans[sid] = (sid, parent, label, t0, t1, info)

        return traced

    def install(self, modules: dict) -> None:
        """Wrap every binding of the traced functions in `modules`
        (module name -> module object, all of matcon)."""
        for mod_name, attr, name, meta in FUNCTIONS:
            original = getattr(modules[mod_name], attr)
            wrapper = self.wrap(original, name, meta)
            for holder_name, holder in modules.items():
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapper)
                        self.bindings.append(f"{holder_name}.{key}")
        for mod_name, cls_name, attr, name, meta in METHODS:
            cls = getattr(modules[mod_name], cls_name)
            setattr(cls, attr, self.wrap(getattr(cls, attr), name, meta))
            self.bindings.append(f"{mod_name}.{cls_name}.{attr}")


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

# name -> unit; the order is the order of the printed table
LAYER_METRICS = {
    "models.moments_s": "s",
    "models.max_sq_s": "s",
    "models.realize_s": "s",
    "models.realize_calls": "count",
    "models.realize_bytes_computed": "bytes",
    "models.plan_s": "s",
    "models.build_s": "s",
    "models.summands": "count",
    "rng.s": "s",
    "rng.words": "count",
    "rng.words_per_s": "1/s",
    "montecarlo.collect_s": "s",
    "montecarlo.norm_s": "s",
    "montecarlo.samples": "count",
    "montecarlo.samples_per_s": "1/s",
    "montecarlo.norm_use_ratio": "ratio",
    "montecarlo.report_s": "s",
    "cli.self_s": "s",
    "cli.ops": "count",
    "linalg.hermitian_s": "s",
    "linalg.hermitian_calls": "count",
    "linalg.spectral_norm_s": "s",
    "linalg.spectral_norm_calls": "count",
    "oracles.case_gen_s": "s",
    "oracles.cases": "count",
    "oracles.check_s": "s",
    **{f"oracles.facts.{kind}_s": "s" for kind in KINDS},
    "oracles.enum_s": "s",
    "oracles.enum_combinations": "count",
    "oracles.symmetrization_s": "s",
    "bounds.domination_s": "s",
    "bounds.domination_cases": "count",
    "process.cpu_s": "s",
    "trace.overhead_s": "s",
}


def layer_metrics(spans: list) -> dict[str, float]:
    """Per-layer metrics of one traced pass, from its spans.

    A group's time is the total duration of its spans that have no ancestor
    of the same group.  A span's self time is its duration minus the
    durations of its direct children.  process.cpu_s and trace.overhead_s
    come from the pass records, not from spans; they are filled by the
    caller.
    """
    by_id = {s[0]: s for s in spans}
    children: dict[int, float] = {}
    for sid, parent, _, t0, t1, _ in spans:
        if parent >= 0:
            children[parent] = children.get(parent, 0.0) + (t1 - t0)

    def ancestors(span):
        parent = span[1]
        while parent >= 0:
            span = by_id[parent]
            yield span
            parent = span[1]

    time_of: dict[str, float] = {}
    count_of: dict[str, int] = {}
    self_of: dict[str, float] = {}
    meta_of: dict[str, float] = {}
    computed = consumed = 0
    for span in spans:
        sid, _, name, t0, t1, info = span
        duration = t1 - t0
        count_of[name] = count_of.get(name, 0) + 1
        self_of[name] = self_of.get(name, 0.0) + duration - children.get(sid, 0.0)
        above = [a[2] for a in ancestors(span)]
        if name not in above:
            time_of[name] = time_of.get(name, 0.0) + duration
        for key, value in (info or {}).items():
            if key == "summands" and name in above:
                continue
            meta_of[f"{name}.{key}"] = meta_of.get(f"{name}.{key}", 0) + value
        if name == "montecarlo.collect":
            computed += info["samples"]
            if "montecarlo.max_sq_estimate" not in above:
                consumed += info["samples"]

    def t(name: str) -> float:
        return time_of.get(name, 0.0)

    def rate(work: float, seconds: float) -> float:
        return work / seconds if seconds > 0 else 0.0

    return {
        "models.moments_s": t("models.moments"),
        "models.max_sq_s": t("models.max_sq"),
        "models.realize_s": t("models.realize"),
        "models.realize_calls": count_of.get("models.realize", 0),
        "models.realize_bytes_computed": meta_of.get("models.realize.bytes", 0),
        "models.plan_s": t("models.plan"),
        "models.build_s": t("models.build"),
        "models.summands": meta_of.get("models.build.summands", 0),
        "rng.s": t("rng"),
        "rng.words": meta_of.get("rng.words", 0),
        "rng.words_per_s": rate(meta_of.get("rng.words", 0), t("rng")),
        "montecarlo.collect_s": t("montecarlo.collect"),
        "montecarlo.norm_s": self_of.get("montecarlo.collect", 0.0),
        "montecarlo.samples": computed,
        "montecarlo.samples_per_s": rate(computed, t("montecarlo.collect")),
        "montecarlo.norm_use_ratio": consumed / computed if computed else 1.0,
        "montecarlo.report_s": t("montecarlo.report"),
        "cli.self_s": self_of.get("cli.main", 0.0),
        "cli.ops": count_of.get("cli.main", 0),
        "linalg.hermitian_s": t("linalg.hermitian"),
        "linalg.hermitian_calls": count_of.get("linalg.hermitian", 0),
        "linalg.spectral_norm_s": t("linalg.spectral_norm"),
        "linalg.spectral_norm_calls": count_of.get("linalg.spectral_norm", 0),
        "oracles.case_gen_s": t("oracles.case_gen"),
        "oracles.cases": meta_of.get("oracles.case_gen.cases", 0),
        "oracles.check_s": t("oracles.check"),
        **{f"oracles.facts.{k}_s": t(f"oracles.facts.{k}") for k in KINDS},
        "oracles.enum_s": t("oracles.enum"),
        "oracles.enum_combinations": meta_of.get("oracles.enum.combinations", 0),
        "oracles.symmetrization_s": t("oracles.symmetrization"),
        "bounds.domination_s": t("bounds.domination"),
        "bounds.domination_cases": meta_of.get("bounds.domination.cases", 0),
    }


def median_metrics(per_pass: list[dict]) -> dict[str, float]:
    """Metric-wise median over passes."""
    return {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
