"""Per-layer tracing for the traced benchmark run.

Two instruments, both used only when the benchmark runs with ``--trace 1``:

- :class:`SpanRecorder` wraps the public entry points of the worldbuild,
  snapshot and sweep layers (module attributes and class methods, swapped
  in at install time and restored afterwards) and records one span per
  call: name, start, end and parent.  A span's *self* time is its
  duration minus the time its child spans cover.
- :func:`layer_profile` folds a :mod:`cProfile` run into self time and
  exact call counts per ``repro`` layer.  Time spent in builtins and the
  standard library is charged to the layer that called it, split over
  the callers in proportion to the time each call edge accounts for.

Nothing here edits the program's files; the wrappers live only in the
benchmark process and only while a traced phase runs.
"""

import time
from functools import wraps

#: ``src/repro`` module path prefix -> layer name; the first match wins,
#: so sub-packages are listed before their parents.
LAYER_OF_MODULE = (
    ("lisp/control/", "lisp.control"),
    ("lisp/", "lisp"),
    ("sim/", "sim"),
    ("net/", "net"),
    ("core/", "core"),
    ("dns/", "dns"),
    ("traffic/", "traffic"),
    ("experiments/workload.py", "traffic"),
    ("experiments/scenario.py", "worldbuild"),
    ("experiments/worldbuild.py", "worldbuild"),
    ("experiments/sweep.py", "sweep"),
    ("experiments/e9_failover.py", "sweep"),
    ("metrics/", "sweep"),
)

#: Layers whose profiled self time counts towards the traced run's coverage.
LAYERS = ("sim", "net", "lisp", "lisp.control", "core", "dns", "traffic",
          "worldbuild", "sweep")

#: Profiled functions whose exact call counts are reported, keyed by metric:
#: ``(module path suffix, function name)``; every match is summed.
CALL_COUNTS = {
    "net.link_sends": ("repro/net/link.py", "send"),
    "net.fib_lookups": ("repro/net/fib.py", "lookup"),
    "net.size_bytes_calls": ("repro/net/packet.py", "size_bytes"),
    "net.fluid_posts": ("repro/net/link.py", "post_fluid"),
    "sim.processes_started": ("repro/sim/engine.py", "process"),
}


def layer_of(filename):
    """The layer a source file belongs to, ``"bench"`` for this benchmark's
    own files, or None for code outside the project (stdlib, builtins)."""
    filename = filename.replace("\\", "/")
    marker = filename.rfind("/repro/")
    if marker >= 0:
        module = filename[marker + len("/repro/"):]
        for prefix, layer in LAYER_OF_MODULE:
            if module.startswith(prefix):
                return layer
        return "other"
    if "/perfbench/" in filename:
        return "bench"
    return None


def layer_profile(stats):
    """Self time per layer plus the call-count metrics of a profile.

    *stats* is ``pstats.Stats(profile).stats``: ``{func: (cc, nc, tt, ct,
    callers)}`` with ``callers = {caller: (cc, nc, tt, ct)}``.  Returns
    ``(self_seconds_by_layer, counts, cumulative_seconds)`` where
    ``counts``/``cumulative_seconds`` are keyed by :data:`CALL_COUNTS`
    metric name.
    """
    shares = {}  # func -> {layer: fraction of its self time}

    def share_of(func, visiting):
        cached = shares.get(func)
        if cached is not None:
            return cached
        layer = layer_of(func[0])
        if layer is not None:
            result = {layer: 1.0}
        else:
            callers = stats[func][4] if func in stats else {}
            edges = {caller: edge[2] for caller, edge in callers.items()
                     if caller != func and caller not in visiting}
            total = sum(edges.values())
            if not edges:
                result = {"unattributed": 1.0}
            else:
                result = {}
                visiting.add(func)
                for caller, weight in edges.items():
                    fraction = (weight / total if total > 0
                                else 1.0 / len(edges))
                    for layer_name, part in share_of(caller, visiting).items():
                        result[layer_name] = (result.get(layer_name, 0.0)
                                              + fraction * part)
                visiting.discard(func)
        shares[func] = result
        return result

    self_seconds = {}
    for func, (_cc, _nc, tottime, _ct, _callers) in stats.items():
        for layer, part in share_of(func, set()).items():
            self_seconds[layer] = self_seconds.get(layer, 0.0) + tottime * part
    counts = {name: 0 for name in CALL_COUNTS}
    cumulative = {name: 0.0 for name in CALL_COUNTS}
    for func, (_cc, ncalls, _tt, cumtime, _callers) in stats.items():
        filename = func[0].replace("\\", "/")
        for name, (suffix, function) in CALL_COUNTS.items():
            if func[2] == function and filename.endswith(suffix):
                counts[name] += ncalls
                cumulative[name] += cumtime
    return self_seconds, counts, cumulative


class Span:
    __slots__ = ("name", "start", "end", "parent")

    def __init__(self, name, start, parent):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent

    @property
    def duration(self):
        return self.end - self.start


class SpanRecorder:
    """Records spans around wrapped callables while :attr:`active`.

    ``install`` swaps ``owner.attribute`` for a wrapper; ``uninstall``
    puts every original back.  Spans nest through a stack, so a span's
    parent is whichever wrapped call was running when it started.  An
    optional *observer* is called with a recorded call's arguments before
    the call and returns a callable that receives its result.
    """

    def __init__(self):
        self.spans = []
        self.active = False
        self._stack = []
        self._installed = []

    def install(self, owner, attribute, name, observer=None):
        original = getattr(owner, attribute)
        recorder = self

        @wraps(original)
        def wrapper(*args, **kwargs):
            if not recorder.active:
                return original(*args, **kwargs)
            finish = observer(args) if observer is not None else None
            parent = recorder._stack[-1] if recorder._stack else None
            span = Span(name, time.perf_counter(), parent)
            recorder._stack.append(span)
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                recorder._stack.pop()
                recorder.spans.append(span)
            if finish is not None:
                finish(result)
            return result

        self._installed.append((owner, attribute, original))
        setattr(owner, attribute, wrapper)

    def uninstall(self):
        while self._installed:
            owner, attribute, original = self._installed.pop()
            setattr(owner, attribute, original)

    def take(self):
        """The spans recorded so far (and forget them)."""
        spans, self.spans = self.spans, []
        return spans


def self_times(spans):
    """``{span: self seconds}``: duration minus the direct children's."""
    child_time = {}
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] = (child_time.get(span.parent, 0.0)
                                       + span.duration)
    return {span: span.duration - child_time.get(span, 0.0) for span in spans}


def within(span, name):
    """True when *span* runs inside a span called *name*."""
    parent = span.parent
    while parent is not None:
        if parent.name == name:
            return True
        parent = parent.parent
    return False
