"""Span tracer installed from outside the ar1quad package.

Each traced function is replaced, in every ar1quad module namespace that
binds it (the package re-exports, and `from .x import f` copies in
closed_form, oracle, verify and cli), by a wrapper that records one span:
id, parent span id, name, start and end (perf_counter_ns), the benchmark
operation it belongs to, and a work count derived from its arguments.
Spans stay in memory until the run ends.  A function that no longer exists
is listed in `absent` and its metrics read zero.
"""

from __future__ import annotations

import gzip
import inspect
import sys
from array import array
from collections import defaultdict
from time import perf_counter_ns

TARGETS = [
    "spectral.roots", "spectral.sequence_ratios", "spectral.domain_check",
    "closed_form.constants", "closed_form.transform", "closed_form.normalized_transform",
    "closed_form.ergodic_constants", "closed_form.fit_convergence_rate",
    "oracle.unconditional_transform", "oracle.matrix_mgf", "oracle.monte_carlo_mgf",
    "model.conditional_covariance",
    "cli.main", "cli.run_sweep",
    "verify.check_spectral_identities", "verify.check_wronskian", "verify.check_sigma_recursion",
    "verify.check_matrix_oracle", "verify.check_monte_carlo", "verify.check_convergence_rate",
    "verify.check_exactness_anchors",
]


def _work_counters(package):
    """name -> (argument names, work(**args)): the countable work of one call.

    cf_steps: iterations of the continued fraction in sequence_ratios, which
    runs for t <= RECURRENCE_MAX_T (read here, on the traced path only).
    flops: Cholesky t^3/3 + two triangular solves 2t^2 + the dot product 2t.
    bytes: the t x t float64 covariance matrix; the n x t float64 normals.
    """
    limit = getattr(getattr(package, "spectral", None), "RECURRENCE_MAX_T", -1)
    return {
        "spectral.sequence_ratios": (("t",), lambda t: t if t <= limit else 0),
        "oracle.matrix_mgf": (("t",), lambda t: t**3 / 3 + 2 * t * t + 2 * t),
        "model.conditional_covariance": (("t",), lambda t: 8 * t * t),
        "oracle.monte_carlo_mgf": (("t", "n"), lambda t, n: 8 * n * t),
    }


class Tracer:
    def __init__(self, package):
        self.names: list[str] = []
        self.absent: list[str] = []
        self.ids, self.parents, self.name_idx = array("q"), array("q"), array("q")
        self.starts, self.ends, self.ops = array("q"), array("q"), array("q")
        self.work = array("d")
        self.stack = [0]
        self.next_id = 1
        self.op = -1
        self._patches = []  # (module, attribute, original, wrapper)
        counters = _work_counters(package)
        modules = [m for n, m in sys.modules.items() if n == package.__name__ or n.startswith(package.__name__ + ".")]
        for target in TARGETS:
            mod_name, fn_name = target.split(".")
            original = getattr(getattr(package, mod_name, None), fn_name, None)
            if original is None:
                self.absent.append(target)
                continue
            wrapper = self._wrap(len(self.names), original, counters.get(target))
            self.names.append(target)
            for mod in modules:
                for attr, value in vars(mod).items():
                    if value is original:
                        self._patches.append((mod, attr, original, wrapper))

    def _wrap(self, idx, original, counter):
        stack, ids, parents, names = self.stack, self.ids, self.parents, self.name_idx
        starts, ends, ops, work = self.starts, self.ends, self.ops, self.work
        extract = None
        if counter is not None:
            arg_names, fn = counter
            params = list(inspect.signature(original).parameters)
            positions = [params.index(a) for a in arg_names]

            def extract(args, kwargs):
                return fn(*(args[p] if p < len(args) else kwargs[a] for p, a in zip(positions, arg_names)))

        tracer = self

        def wrapper(*args, **kwargs):
            sid = tracer.next_id
            tracer.next_id = sid + 1
            parent = stack[-1]
            stack.append(sid)
            start = perf_counter_ns()
            try:
                return original(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                ids.append(sid)
                parents.append(parent)
                names.append(idx)
                starts.append(start)
                ends.append(end)
                ops.append(tracer.op)
                work.append(extract(args, kwargs) if extract else 0.0)

        return wrapper

    def install(self):
        for mod, attr, _, wrapper in self._patches:
            setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, original, _ in self._patches:
            setattr(mod, attr, original)

    def summary(self, scale=None):
        """name -> {calls, self_ns, work, children: {child name: count}}.

        Self time is a span's duration minus the durations of its direct
        child spans (single-threaded, so children never overlap), times
        scale[op] for the operation the span belongs to, when given."""
        child_ns = defaultdict(int)
        name_of = {}
        for sid, parent, idx, start, end in zip(self.ids, self.parents, self.name_idx, self.starts, self.ends):
            child_ns[parent] += end - start
            name_of[sid] = idx
        out = {name: {"calls": 0, "self_ns": 0, "work": 0.0, "children": defaultdict(int)} for name in self.names}
        for sid, parent, idx, start, end, op, w in zip(
            self.ids, self.parents, self.name_idx, self.starts, self.ends, self.ops, self.work
        ):
            entry = out[self.names[idx]]
            entry["calls"] += 1
            entry["self_ns"] += (end - start - child_ns[sid]) * (scale[op] if scale else 1.0)
            entry["work"] += w
            if parent:
                out[self.names[name_of[parent]]]["children"][self.names[idx]] += 1
        return out

    def write(self, path):
        """All spans as gzipped CSV: id, parent, name, start_ns, end_ns, op, work."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id,parent,name,start_ns,end_ns,op,work\n")
            for row in zip(self.ids, self.parents, self.name_idx, self.starts, self.ends, self.ops, self.work):
                fh.write(f"{row[0]},{row[1]},{self.names[row[2]]},{row[3]},{row[4]},{row[5]},{row[6]:g}\n")
