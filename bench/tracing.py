"""Spans around the calls into each ``sbcurves`` layer, recorded from here.

A traced query is the real ``cli.main(argv)`` under a ``cli.main`` span.
While tracing is installed, the layers' public functions (``load_config`` /
``parse_config_text``, the family builders, ``report`` / ``is_pgon``,
``standard_embedding``, ``twist_cohomology`` / ``smoothing_hypotheses``,
``enumerate_profiles``) are replaced by wrappers that open a span.  They
are replaced wherever ``sbcurves`` bound them: on their own modules, on
every ``sbcurves`` module that imported them by name (``sbcurves.cli``
does), and in ``cli._FAMILIES``.  ``LineConfig.__init__`` and
``EmbeddedConfig.__init__`` are wrapped on their classes.  So the spans are
the program's own calls, and calls a layer makes into another layer
(``parse_config_text`` building a ``LineConfig``, ``smoothing_hypotheses``
calling ``twist_cohomology``, ``reducible_case`` building an n-gon) become
child spans.  All spans of one query share its id.

A span's self time is its duration minus its children's, so ``cli.main``'s
self time is argparse plus rendering.  ``numpoly`` and ``constraints`` are
only called from inside ``classify`` and are counted in its span.
"""

from __future__ import annotations

import operator
import sys
import time
from collections import Counter
from contextlib import contextmanager

from sbcurves import classify, cli, cohomology, configfile, lineconfig

LAYERS = ("cli", "classify", "cohomology", "configfile", "lineconfig")

# (module, public names, span name)
WRAPPED = (
    (lineconfig, ("ngon", "cube", "complete", "disjoint_lines"), "lineconfig.build"),
    (lineconfig, ("report",), "lineconfig.report"),
    (lineconfig, ("is_pgon",), "lineconfig.pgon"),
    (cohomology, ("standard_embedding",), "cohomology.embed"),
    (cohomology, ("twist_cohomology",), "cohomology.twist"),
    (cohomology, ("smoothing_hypotheses",), "cohomology.smoothing"),
    (configfile, ("load_config", "parse_config_text"), "configfile.parse"),
    (classify, ("enumerate_profiles",), "classify.enumerate"),
)
WRAPPED_INIT = (
    (lineconfig.LineConfig, "lineconfig.build"),
    (cohomology.EmbeddedConfig, "cohomology.embed"),
)
# public name -> (counter, amount from the call's arguments and result)
COUNTED = {
    "enumerate_profiles": ("classify.profiles", lambda args, result: len(result)),
    "parse_config_text": ("configfile.lines", lambda args, result: args[0].count("\n")),
}


class Recorder:
    """Spans in memory: ``(query id, name, start, end, parent index)``.

    ``scale`` maps a query id to the factor that turns its wall times into
    reference-speed times (see run.py); queries without one count as 1.
    """

    def __init__(self):
        self.spans = []
        self.scale = {}
        self.counts = Counter()
        self.failed = Counter()
        self.query = None
        self._stack = []
        self._last_exc = None

    def fail(self, name, exc):
        # count an exception once, in the layer that raised it
        if exc is not self._last_exc:
            self._last_exc = exc
            self.failed[name.split(".")[0]] += 1

    @contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append([self.query, name, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        except Exception as exc:
            self.fail(name, exc)
            raise
        finally:
            self.spans[self._stack.pop()][3] = time.perf_counter()

    def self_times(self) -> Counter:
        """Seconds of self time per span name, over all spans."""
        totals = Counter()
        for query, name, start, end, parent in self.spans:
            length = (end - start) * self.scale.get(query, 1.0)
            totals[name] += length
            if parent is not None:
                totals[self.spans[parent][1]] -= length
        return totals


def _wrap(recorder, name, fn, counted=None):
    def wrapper(*args, **kwargs):
        with recorder.span(name):
            result = fn(*args, **kwargs)
        if counted is not None:
            counter, amount = counted
            recorder.counts[counter] += amount(args, result)
        return result

    return wrapper


def _wrap_init(recorder, name, init):
    def wrapper(self, *args, **kwargs):
        with recorder.span(name):
            init(self, *args, **kwargs)
        if name == "lineconfig.build":
            recorder.counts["lineconfig.edges"] += len(self.edges)

    return wrapper


@contextmanager
def installed(recorder):
    """Wrap the layer functions wherever sbcurves bound them, for the block."""
    wrappers = {}  # id of an original function -> its wrapper
    for module, names, span in WRAPPED:
        for attr in names:
            fn = getattr(module, attr)
            wrappers[id(fn)] = _wrap(recorder, span, fn, COUNTED.get(attr))
    saved = []  # (setter, owner, key, original), undone in reverse

    def replace(setter, owner, key, original, new):
        saved.append((setter, owner, key, original))
        setter(owner, key, new)

    try:
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "sbcurves"]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    replace(setattr, module, attr, value, wrappers[id(value)])
        for family, (builder, sized) in list(cli._FAMILIES.items()):
            if id(builder) in wrappers:
                replace(operator.setitem, cli._FAMILIES, family, (builder, sized),
                        (wrappers[id(builder)], sized))
        for cls, span in WRAPPED_INIT:
            replace(setattr, cls, "__init__", cls.__init__, _wrap_init(recorder, span, cls.__init__))
        yield recorder
    finally:
        for setter, owner, key, original in reversed(saved):
            setter(owner, key, original)
