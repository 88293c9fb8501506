"""Spans around the public functions of each routegame layer, installed from outside.

Nothing under src/ is edited: `install` replaces each target function at every
module attribute that refers to it, so a name a module re-imports (for example
`engine.eval_u`, which is `pricing.eval_u`) is wrapped too and calls made
inside the package are counted. A target that no longer exists is skipped, and
its counts read 0.

A span has a name, a start, an end, a parent span and the id of the job that
made it. Spans are kept in memory (in columns) and written out by `write_spans`
after the run. Self time is a span's duration minus the durations of its child
spans; it is accumulated per span name as spans close.
"""

from __future__ import annotations

import gzip
import math
import sys
import time
from array import array
from collections import Counter, defaultdict

# (span name, defining module, attribute; "Class.method" for a method)
TARGETS = (
    ("cli.main", "routegame.cli", "main"),
    ("model.parse", "routegame.model", "parse_scenario"),
    ("model.validate", "routegame.model", "validate_instance"),
    ("model.prepare", "routegame.model", "prepare"),
    ("model.enumerate_paths", "routegame.model", "enumerate_paths"),
    ("model.edge", "routegame.model", "GameInstance.edge"),
    ("pricing.eval_u", "routegame.pricing", "eval_u"),
    ("engine.edge_loads", "routegame.engine", "edge_loads"),
    ("engine.unit_path_cost", "routegame.engine", "unit_path_cost"),
    ("engine.social_cost", "routegame.engine", "social_cost"),
    ("engine.potential", "routegame.engine", "potential"),
    ("engine.is_equilibrium", "routegame.engine", "is_equilibrium"),
    ("engine.best_response", "routegame.engine", "best_response"),
    ("engine.dynamics", "routegame.engine", "run_best_response_dynamics"),
    ("oracle.find_all_equilibria", "routegame.oracle", "find_all_equilibria"),
    ("oracle.worst_equilibrium", "routegame.oracle", "worst_equilibrium"),
    ("oracle.optimal_profile", "routegame.oracle", "optimal_profile"),
    ("braess.experiment", "routegame.braess", "edge_addition_experiment"),
)

ORACLE_SCANS = (
    "oracle.find_all_equilibria",
    "oracle.worst_equilibrium",
    "oracle.optimal_profile",
)


def _instance_arg(args, kwargs):
    return kwargs["instance"] if "instance" in kwargs else args[0]


def _profiles(instance) -> int:
    return math.prod(len(p) for p in instance.paths)


def _count_paths(work, args, kwargs, result):
    work["paths"] += len(result)


def _count_moves(work, args, kwargs, result):
    work["moves"] += len(result.moves)


def _count_all_equilibria(work, args, kwargs, result):
    work["profiles"] += _profiles(_instance_arg(args, kwargs))
    work["equilibria"] += len(result)


def _count_worst_equilibrium(work, args, kwargs, result):
    work["profiles"] += _profiles(_instance_arg(args, kwargs))
    work["equilibria"] += result[2]


def _count_optimum(work, args, kwargs, result):
    work["profiles"] += _profiles(_instance_arg(args, kwargs))


def _count_cli_exit(work, args, kwargs, result):
    if result != 0:
        work["cli_nonzero"] += 1


# Work counters read from a call's arguments and result, after it returns.
COUNTERS = {
    "cli.main": _count_cli_exit,
    "model.enumerate_paths": _count_paths,
    "engine.dynamics": _count_moves,
    "oracle.find_all_equilibria": _count_all_equilibria,
    "oracle.worst_equilibrium": _count_worst_equilibrium,
    "oracle.optimal_profile": _count_optimum,
}


class Tracer:
    """Collects spans and per-name totals for one traced pass."""

    def __init__(self) -> None:
        self.job = 0
        self.names = [name for name, _, _ in TARGETS]
        self.calls: Counter = Counter()
        self.errors: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.total_s: defaultdict = defaultdict(float)
        self.work: Counter = Counter()
        self.col_job = array("q")
        self.col_id = array("q")
        self.col_parent = array("q")
        self.col_name = array("q")
        self.col_start = array("d")
        self.col_end = array("d")
        self._stack: list[list] = []
        self._next_id = 0

    def wrap(self, name: str, fn):
        name_id = self.names.index(name)
        count = COUNTERS.get(name)
        stack = self._stack
        clock = time.perf_counter
        calls, errors, self_s, total_s = self.calls, self.errors, self.self_s, self.total_s
        cols = (
            self.col_job, self.col_id, self.col_parent,
            self.col_name, self.col_start, self.col_end,
        )

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id = span_id + 1
            parent = stack[-1] if stack else None
            frame = [span_id, 0.0]  # id, time covered by child spans
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errors[name] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[1] += duration
                calls[name] += 1
                total_s[name] += duration
                self_s[name] += duration - frame[1]
                cols[0].append(self.job)
                cols[1].append(span_id)
                cols[2].append(-1 if parent is None else parent[0])
                cols[3].append(name_id)
                cols[4].append(start)
                cols[5].append(end)
            if count is not None:
                count(self.work, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    @property
    def span_count(self) -> int:
        return len(self.col_id)

    def write_spans(self, path: str) -> None:
        """Write every span as CSV (gzip): job, span, parent, name, start, end."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("job,span,parent,name,start_s,end_s\n")
            names = self.names
            for row in zip(
                self.col_job, self.col_id, self.col_parent,
                self.col_name, self.col_start, self.col_end,
            ):
                fh.write(
                    f"{row[0]},{row[1]},{row[2]},{names[row[3]]},{row[4]!r},{row[5]!r}\n"
                )


def _resolve(module_name: str, attr: str):
    """(owner, attribute name, function) for a target, or None if it is gone."""
    module = sys.modules.get(module_name)
    if module is None:
        return None
    owner = module
    *outer, last = attr.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    fn = owner.__dict__.get(last) if isinstance(owner, type) else getattr(owner, last, None)
    if fn is None or not callable(fn):
        return None
    return owner, last, fn


def install(tracer: Tracer):
    """Wrap every target that exists; return a function that undoes it."""
    replaced: list[tuple[object, str, object]] = []
    modules = [
        m for n, m in list(sys.modules.items())
        if m is not None and (n == "routegame" or n.startswith("routegame."))
    ]
    for name, module_name, attr in TARGETS:
        found = _resolve(module_name, attr)
        if found is None:
            continue
        owner, last, fn = found
        wrapper = tracer.wrap(name, fn)
        if isinstance(owner, type):
            replaced.append((owner, last, fn))
            setattr(owner, last, wrapper)
            continue
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is fn:
                    replaced.append((module, key, fn))
                    setattr(module, key, wrapper)

    def uninstall() -> None:
        for owner, key, fn in reversed(replaced):
            setattr(owner, key, fn)

    return uninstall


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(t: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass, as name -> (value, unit).

    A `*_s` metric is self time summed over the pass. A `*_per_s` rate divides
    work by the inclusive (wall) time of the spans that do that work.
    """
    c, s, w = t.calls, t.self_s, t.work
    scan_calls = sum(c[n] for n in ORACLE_SCANS)
    scan_total = sum(t.total_s[n] for n in ORACLE_SCANS)
    best_responses = c["engine.best_response"]
    return {
        "cli.calls": (c["cli.main"], "count"),
        "cli.self_s": (s["cli.main"], "s"),
        "cli.errors": (t.errors["cli.main"] + w["cli_nonzero"], "count"),
        "model.parse_s": (s["model.parse"], "s"),
        "model.validate_s": (s["model.validate"], "s"),
        "model.prepare_s": (s["model.prepare"] + s["model.enumerate_paths"], "s"),
        "model.paths_enumerated": (w["paths"], "count"),
        "model.paths_per_s": (_ratio(w["paths"], t.total_s["model.enumerate_paths"]), "1/s"),
        "model.edge_lookups": (c["model.edge"], "count"),
        "model.edge_lookup_s": (s["model.edge"], "s"),
        "pricing.eval_u_calls": (c["pricing.eval_u"], "count"),
        "pricing.eval_u_s": (s["pricing.eval_u"], "s"),
        "engine.edge_loads_calls": (c["engine.edge_loads"], "count"),
        "engine.edge_loads_s": (s["engine.edge_loads"], "s"),
        "engine.potential_calls": (c["engine.potential"], "count"),
        "engine.potential_s": (s["engine.potential"], "s"),
        "engine.best_response_calls": (best_responses, "count"),
        "engine.moves": (w["moves"], "count"),
        "engine.move_yield": (_ratio(w["moves"], best_responses), "ratio"),
        "engine.dynamics_s": (s["engine.dynamics"], "s"),
        "engine.moves_per_s": (_ratio(w["moves"], t.total_s["engine.dynamics"]), "1/s"),
        "engine.unit_path_cost_calls": (c["engine.unit_path_cost"], "count"),
        "engine.unit_path_cost_s": (s["engine.unit_path_cost"], "s"),
        "engine.social_cost_calls": (c["engine.social_cost"], "count"),
        "engine.is_equilibrium_calls": (c["engine.is_equilibrium"], "count"),
        "oracle.scan_calls": (scan_calls, "count"),
        "oracle.profiles_scanned": (w["profiles"], "count"),
        "oracle.scan_s": (sum(s[n] for n in ORACLE_SCANS), "s"),
        "oracle.profiles_per_s": (_ratio(w["profiles"], scan_total), "1/s"),
        "oracle.equilibria_found": (w["equilibria"], "count"),
        "oracle.errors": (sum(t.errors[n] for n in ORACLE_SCANS), "count"),
        "braess.experiments": (c["braess.experiment"], "count"),
        "braess.experiment_self_s": (s["braess.experiment"], "s"),
    }


def count_metrics(metrics: dict[str, tuple[float, str]]) -> dict[str, float]:
    """The metrics that must repeat exactly between two traced passes."""
    return {k: v for k, (v, unit) in metrics.items() if unit == "count"}
