"""In-memory tracing of sdelab's layers, installed from outside the package.

Every public function of a layer is replaced, where its caller looks it up,
by a wrapper that times the call: `sdelab.runner.euler_solve` for the
simulate runner, `sdelab.solver.euler_solve` for `strong_convergence`,
`CadlagPath.value_at` on the class.  No file of the package changes.

Calls at layer boundaries are recorded as spans (name, start, end, parent).
Hot leaf calls (path queries, coefficient calls, clock calls) are counted
and their time summed instead, so tracing stays affordable.  Each thread
keeps its own stack, totals and spans, merged only when the run is over, so
the counts stay exact under the runner's thread pool without a lock on the
hot path.
"""

from __future__ import annotations

import threading
import time
from collections import Counter

CLOCK = time.perf_counter


class _ThreadState:
    def __init__(self, index: int):
        self.index = index
        self.stack = []       # frames: [time covered by nested calls, span id or None]
        self.stats = {}       # name -> [calls, total seconds, self seconds]
        self.spans = []       # (span id, parent span id, name, start, end)
        self.counts = Counter()


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[_ThreadState] = []
        self._undo = []
        self._root = None     # parent of spans that start on an otherwise idle worker thread

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            with self._lock:
                st = _ThreadState(len(self._threads))
                self._threads.append(st)
            self._local.state = st
            return st

    def wrap(self, name: str, fn, *, span: bool = False, root: bool = False, count=None):
        """Timed stand-in for fn.  count(counts, args, kwargs, result) adds work counters."""
        state = self._state
        span = span or root

        def traced(*args, **kwargs):
            st = state()
            stack = st.stack
            frame = [0.0, None]
            if span:
                parent = next((f[1] for f in reversed(stack) if f[1] is not None), self._root)
                frame[1] = (st.index, len(st.spans))
                st.spans.append(None)          # reserve the slot so ids stay in start order
                if root:
                    outer_root, self._root = self._root, frame[1]
            stack.append(frame)
            t0 = CLOCK()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = CLOCK()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][0] += dur
                agg = st.stats.get(name)
                if agg is None:
                    agg = st.stats[name] = [0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += dur
                agg[2] += dur - frame[0]
                if span:
                    st.spans[frame[1][1]] = (frame[1], parent, name, t0, t1)
                    if root:
                        self._root = outer_root
            if count is not None:
                count(st.counts, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, name: str, **kw):
        """Replace owner.attr by its traced wrapper until uninstall()."""
        orig = getattr(owner, attr)
        self._undo.append((owner, attr, orig))
        setattr(owner, attr, self.wrap(name, orig, **kw))

    def substitute(self, owner, attr: str, replacement):
        """Replace owner.attr by replacement(original) until uninstall()."""
        orig = getattr(owner, attr)
        self._undo.append((owner, attr, orig))
        setattr(owner, attr, replacement(orig))

    def uninstall(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    # -- results ---------------------------------------------------------

    def stats(self) -> dict:
        """name -> (calls, total seconds, self seconds), summed over threads."""
        out = {}
        for st in self._threads:
            for name, (calls, total, own) in st.stats.items():
                c, t, s = out.get(name, (0, 0.0, 0.0))
                out[name] = (c + calls, t + total, s + own)
        return out

    def counts(self) -> Counter:
        out = Counter()
        for st in self._threads:
            out.update(st.counts)
        return out

    def spans(self) -> list:
        return [sp for st in self._threads for sp in st.spans if sp is not None]


def uncovered_time(spans: list, root_name: str) -> float:
    """Seconds of each root span not covered by its direct children, summed over roots.

    Children may run on several threads at once, so coverage is the union of
    their intervals, not the sum of their durations.
    """
    children = {}
    for sp in spans:
        children.setdefault(sp[1], []).append(sp)
    total = 0.0
    for sid, _, name, t0, t1 in spans:
        if name != root_name:
            continue
        covered, reach = 0.0, t0
        for _, _, _, c0, c1 in sorted(children.get(sid, []), key=lambda s: s[3]):
            c0, c1 = max(c0, reach), min(c1, t1)
            if c1 > c0:
                covered += c1 - c0
                reach = c1
        total += (t1 - t0) - covered
    return total


def _euler_steps(counts, args, kwargs, result):
    n = args[2] if len(args) > 2 else kwargs["n"]
    T = args[3] if len(args) > 3 else kwargs["T"]
    counts["solver.steps"] += round(n * T)


def _noise_work(counts, args, kwargs, real):
    counts["noise.cells"] += real.grid.size - 1
    counts["noise.events"] += real.event_times.size


def _jumps_copied(counts, args, kwargs, path):
    counts["paths.freeze_jumps_copied"] += len(path.jump_times)


def _condition_work(counts, args, kwargs, report):
    counts["conditions.samples"] += report.samples
    counts["conditions.violations"] += len(report.violations)


def instrument(tracer: Tracer):
    """Patch every traced boundary of sdelab; undo with tracer.uninstall()."""
    from sdelab import conditions, gronwall, paths, runner, solver

    def traced_models(build_model):
        def build(*args, **kwargs):
            model = build_model(*args, **kwargs)
            model.drift = tracer.wrap("models.drift", model.drift)
            model.jump = tracer.wrap("models.jump", model.jump)
            if model.compensator is not None:
                model.compensator = tracer.wrap("models.compensator", model.compensator)
            return model

        return build

    tracer.substitute(runner, "build_model", traced_models)

    # solver
    for owner in (runner, solver):
        tracer.patch(owner, "euler_solve", "solver.euler_solve", span=True, count=_euler_steps)
    tracer.patch(runner, "strong_convergence", "solver.strong_convergence", span=True)
    tracer.patch(solver, "coarsen_noise", "solver.coarsen_noise", span=True)

    # noise
    tracer.patch(solver, "sample_noise", "noise.sample_noise", span=True, count=_noise_work)

    # paths
    for method in ("value_at", "left_limit", "window_sup"):
        tracer.patch(paths.CadlagPath, method, f"paths.{method}")
    tracer.patch(paths.PathBuilder, "freeze", "paths.freeze", count=_jumps_copied)
    for owner in (solver, conditions):
        tracer.patch(owner, "sup_distance", "paths.sup_distance")

    # gronwall
    for fn in ("gbm_squared_ensemble", "counterexample_ensemble", "brownian_square_pairs"):
        tracer.patch(runner, fn, f"gronwall.{fn}", span=True)
    tracer.patch(gronwall.GronwallEnsemble, "__post_init__", "gronwall.validate", span=True)
    tracer.patch(gronwall.MonotoneFunction, "__call__", "gronwall.clock")
    tracer.patch(runner, "verify_gronwall", "gronwall.verify_gronwall", span=True)
    for fn in ("lenglart_moment", "lenglart_tail"):
        tracer.patch(runner, fn, f"gronwall.{fn}", span=True)

    # conditions
    tracer.patch(runner, "check_condition", "conditions.check_condition", span=True, count=_condition_work)
