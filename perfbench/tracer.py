"""Outside-in spans around the entry points of each cpstrata layer.

The spans are installed from the benchmark's side: every module attribute
of a loaded ``cpstrata`` module that holds a target function is replaced
by one wrapper, so a layer that bound the target by name (``chambers``
does ``from .exactlp import feasible_point``) is traced as well.  Two
methods are patched on their class.  Spans are aggregated in memory per
name: calls, inclusive seconds (outermost activation only, so recursion
is not counted twice) and self seconds (inclusive minus wrapped children).

Per-call hooks collect machine-independent counts at the same boundaries.
Time spent in hooks is subtracted from every open span, so the counts do
not inflate the layer timings.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

# (module, attribute): module-level functions that get a span named
# "<module>.<attribute>"
FUNCTIONS = (
    ("lattice", "enumerate_exceptional"),
    ("lattice", "negative_wall_classes"),
    ("exactlp", "feasible_point"),
    ("chambers", "enumerate_chambers"),
    ("chambers", "is_admissible"),
    ("chambers", "chamber_signature"),
    ("dga", "cohomology_ranks"),
    ("dga", "differential"),
    ("dga", "verify_presentation"),
    ("kriz", "kriz_model"),
    ("ballmodels", "iemb_model"),
    ("ballmodels", "ab_isomorphism_check"),
    ("confgeom", "stratum"),
    ("verify", "run_suite"),
    ("cli", "main"),
)

# (module, class, method, span name): methods patched on their class
METHODS = (
    ("gradedalg", "PresentedAlgebra", "graded_basis", "gradedalg.graded_basis"),
    ("dga", "_QuotientDifferential", "columns", "dga.differential_columns"),
)


def cpstrata_modules() -> list:
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "cpstrata" or name.startswith("cpstrata."))
    ]


def targets() -> list:
    """The original target functions, after importing every layer."""
    import cpstrata.cli  # noqa: F401  (loads all ten modules)

    out = [getattr(sys.modules[f"cpstrata.{mod}"], attr) for mod, attr in FUNCTIONS]
    for mod, cls, meth, _ in METHODS:
        out.append(vars(getattr(sys.modules[f"cpstrata.{mod}"], cls))[meth])
    return out


class Tracer:
    """Span and count registry; install() wraps, uninstall() restores."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.inclusive: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.distinct: defaultdict = defaultdict(set)
        self.paused = False
        self._stack: list = []  # [name, start, child seconds, excluded at start]
        self._active: Counter = Counter()
        self._excluded = 0.0  # seconds spent in hooks, kept out of spans
        self._saved: list = []  # (owner, attribute, original)
        self._spans: list = []  # every span name, so idle layers report 0

    # ------------------------------------------------------------ spans

    def _wrap(self, name, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            span = name
            after = None
            if hook is not None:
                t0 = time.perf_counter()
                span, after = hook(tracer, args, kwargs)
                tracer._excluded += time.perf_counter() - t0
            frame = [span, time.perf_counter(), 0.0, tracer._excluded]
            tracer._stack.append(frame)
            tracer._active[span] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds = time.perf_counter() - frame[1] - (tracer._excluded - frame[3])
                tracer._stack.pop()
                tracer._active[span] -= 1
                tracer.calls[span] += 1
                if not tracer._active[span]:
                    tracer.inclusive[span] += seconds
                tracer.self_time[span] += seconds - frame[2]
                if tracer._stack:
                    tracer._stack[-1][2] += seconds
            if after is not None:
                t0 = time.perf_counter()
                after(result)
                tracer._excluded += time.perf_counter() - t0
            return result

        return wrapper

    def install(self) -> None:
        originals = targets()
        modules = cpstrata_modules()
        suites = sys.modules["cpstrata.verify"].SUITES
        self._spans = [f"{mod}.{attr}" for mod, attr in FUNCTIONS if attr != "run_suite"]
        self._spans += [f"verify.run_suite.{name}" for name in suites]
        self._spans += [name for *_, name in METHODS]
        for (mod, attr), fn in zip(FUNCTIONS, originals):
            name = f"{mod}.{attr}"
            wrapper = self._wrap(name, fn, _HOOKS.get(name))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        self._saved.append((module, key, value))
                        setattr(module, key, wrapper)
        for (mod, cls, meth, name), fn in zip(METHODS, originals[len(FUNCTIONS):]):
            owner = getattr(sys.modules[f"cpstrata.{mod}"], cls)
            self._saved.append((owner, meth, fn))
            setattr(owner, meth, self._wrap(name, fn, _HOOKS.get(name)))

    def uninstall(self) -> None:
        while self._saved:
            owner, key, value = self._saved.pop()
            setattr(owner, key, value)

    # ---------------------------------------------------------- metrics

    def metrics(self) -> dict:
        """Flat per-layer values: span calls/s/self_s, counts and ratios."""
        out: dict = {}
        for span in self._spans:
            out[f"{span}.calls"] = self.calls[span]
            out[f"{span}.s"] = self.inclusive[span]
            out[f"{span}.self_s"] = self.self_time[span]
        for name in ("chambers.records", "gradedalg.frames_built", "gradedalg.frame_monomials",
                     "gradedalg.ideal_rank", "gradedalg.complement_dim", "dga.matrix_entries",
                     "verify.checks"):
            out[name] = self.counts[name]

        def ratio(num, den):
            return num / den if den else 0.0

        lp_calls = self.calls["exactlp.feasible_point"]
        infeasible = self.counts["exactlp.feasible_point.infeasible"]
        out["exactlp.feasible_point.infeasible"] = infeasible
        out["exactlp.feasible_point.feasible_ratio"] = ratio(lp_calls - infeasible, lp_calls)
        out["exactlp.feasible_point.rows_mean"] = ratio(
            self.counts["exactlp.feasible_point.rows"], lp_calls
        )
        for span in ("dga.cohomology_ranks", "ballmodels.iemb_model"):
            out[f"{span}.distinct_ratio"] = ratio(len(self.distinct[span]), self.calls[span])
        return out


# ------------------------------------------------------------------ hooks
# Each hook runs before the call and returns (span name, after-callback).


def _hook_feasible_point(tracer, args, kwargs):
    ineqs = args[0] if args else kwargs["ineqs"]
    tracer.counts["exactlp.feasible_point.rows"] += len(ineqs)

    def after(result):
        if result is None:
            tracer.counts["exactlp.feasible_point.infeasible"] += 1

    return "exactlp.feasible_point", after


def _hook_enumerate_chambers(tracer, args, kwargs):
    def after(result):
        tracer.counts["chambers.records"] += len(result)

    return "chambers.enumerate_chambers", after


def _hook_graded_basis(tracer, args, kwargs):
    algebra = args[0]
    q = args[1] if len(args) > 1 else kwargs["q"]
    if q in algebra._frames:
        return "gradedalg.graded_basis", None

    def after(frame):
        tracer.counts["gradedalg.frames_built"] += 1
        tracer.counts["gradedalg.frame_monomials"] += len(frame.monomials)
        tracer.counts["gradedalg.ideal_rank"] += frame.ideal_dimension
        tracer.counts["gradedalg.complement_dim"] += frame.quotient_dimension

    return "gradedalg.graded_basis", after


def _hook_columns(tracer, args, kwargs):
    quot = args[0]
    q = args[1] if len(args) > 1 else kwargs["q"]
    if q in quot._columns:
        return "dga.differential_columns", None

    def after(cols):
        tracer.counts["dga.matrix_entries"] += sum(1 for col in cols for v in col if v)

    return "dga.differential_columns", after


def _hook_cohomology_ranks(tracer, args, kwargs):
    D = args[0] if args else kwargs["D"]
    key = (
        D.table,
        D.algebra.relations,
        tuple(sorted(D.values.items())),
        D.degree_cap,
    )
    tracer.distinct["dga.cohomology_ranks"].add(key)
    return "dga.cohomology_ranks", None


def _hook_iemb_model(tracer, args, kwargs):
    tracer.distinct["ballmodels.iemb_model"].add(repr((args, sorted(kwargs.items()))))
    return "ballmodels.iemb_model", None


def _hook_run_suite(tracer, args, kwargs):
    name = args[0] if args else kwargs["name"]

    def after(report):
        tracer.counts["verify.checks"] += len(report.checks)

    return f"verify.run_suite.{name}", after


_HOOKS = {
    "exactlp.feasible_point": _hook_feasible_point,
    "chambers.enumerate_chambers": _hook_enumerate_chambers,
    "gradedalg.graded_basis": _hook_graded_basis,
    "dga.differential_columns": _hook_columns,
    "dga.cohomology_ranks": _hook_cohomology_ranks,
    "ballmodels.iemb_model": _hook_iemb_model,
    "verify.run_suite": _hook_run_suite,
}
