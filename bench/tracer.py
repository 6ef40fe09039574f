"""Outside-in tracer for the nilorbit package.

The package is left untouched: the tracer wraps the public functions of each
module from outside and rebinds every name that refers to them.  Modules
import names directly (``from .gfmat import mat_mul``) and also call through
module attributes (``gfmat.rank``), so patching the defining module alone
would miss most calls; instead every namespace of the package is scanned and
each reference to an original function is replaced by its wrapper.

Every wrapped function is aggregated into calls, inclusive time and self time
(its inclusive time minus the time spent in wrapped callees).  Kernels such
as ``gfmat.mat_mul`` run about a million times per workload, so only the
entry points in ``SPANNED`` also get one span per call, each with its parent.
A wrapped generator function returns at once, so the time spent iterating
its generator counts to the caller.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

MODULES = ("partitions", "gfmat", "pairs", "counting", "flags", "symplectic", "verify", "cli")

# Public methods wrapped besides the module-level functions.
METHODS = (
    ("pairs", "MixedClassifier", "__init__"),
    ("pairs", "MixedClassifier", "invariant"),
    ("gfmat", "Subspace", "from_vectors"),
)

# Entry points recorded as parented spans; each runs at most a few thousand
# times per workload.
SPANNED = frozenset(
    {
        "cli.main",
        "verify.run_suites",
        "verify.enhanced_suite",
        "verify.springer_suite",
        "verify.exotic_suite",
        "verify.slice_report",
        "verify.exotic_orbit_report",
        "pairs.census",
        "pairs.orbit_size",
        "flags.count_fiber",
        "flags.springer_report",
        "flags.slice_count",
        "flags.galois_degree_check",
        "counting.interpolate",
        "symplectic.h_orbit",
        "symplectic.iotheta_set",
        "symplectic.isotropic_flags",
        "symplectic.twisted_coset_set",
        "symplectic.exotic_fiber_count",
        "symplectic.exotic_slice_count",
        "symplectic.z_variety_count",
        "symplectic.root_identity_check",
    }
)


class Tracer:
    """Wraps the package on install() and puts every original back on restore()."""

    def __init__(self) -> None:
        # key -> [calls, inclusive_s, self_s, open frames]
        self.stats: dict[str, list] = {}
        # [name, parent span index or -1, start, end]
        self.spans: list[list] = []
        self._child = [0.0]  # wrapped-callee time of each open frame
        self._open = [-1]  # index of each open span
        self._patches: list[tuple[object, str, object]] = []

    def install(self, package: str) -> None:
        pkg = importlib.import_module(package)
        mods = {name: importlib.import_module(f"{package}.{name}") for name in MODULES}
        wrappers: dict[int, tuple[object, object]] = {}
        for name, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                ):
                    wrappers[id(obj)] = (obj, self._wrap(f"{name}.{attr}", obj))
        for namespace in (pkg, *mods.values()):
            for attr, obj in list(vars(namespace).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(namespace, attr, hit[1])
        for modname, clsname, meth in METHODS:
            owner = getattr(mods[modname], clsname)
            raw = vars(owner)[meth]
            key = f"{modname}.{clsname}.{meth}"
            if isinstance(raw, staticmethod):
                self._patch(owner, meth, staticmethod(self._wrap(key, raw.__func__)))
            else:
                self._patch(owner, meth, self._wrap(key, raw))

    def restore(self) -> None:
        """Put every original back and check that none is left wrapped."""
        patches, self._patches = self._patches, []
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)
        stale = [f"{owner!r}.{attr}" for owner, attr, original in patches
                 if vars(owner)[attr] is not original]
        if stale:
            raise RuntimeError(f"tracer left wrapped names: {stale}")

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _wrap(self, key: str, fn):
        stat = self.stats.setdefault(key, [0, 0.0, 0.0, 0])
        child = self._child
        clock = time.perf_counter

        if key not in SPANNED:

            def wrapper(*args, **kwargs):
                stat[0] += 1
                stat[3] += 1
                child.append(0.0)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    stat[3] -= 1
                    if not stat[3]:
                        stat[1] += elapsed
                    stat[2] += elapsed - child.pop()
                    child[-1] += elapsed

            return functools.wraps(fn)(wrapper)

        spans, opened = self.spans, self._open

        def spanned(*args, **kwargs):
            stat[0] += 1
            stat[3] += 1
            child.append(0.0)
            span = [key, opened[-1], 0.0, 0.0]
            opened.append(len(spans))
            spans.append(span)
            start = span[2] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = span[3] = clock()
                elapsed = end - start
                opened.pop()
                stat[3] -= 1
                if not stat[3]:
                    stat[1] += elapsed
                stat[2] += elapsed - child.pop()
                child[-1] += elapsed

        return functools.wraps(fn)(spanned)

    def report(self) -> dict:
        """Plain-data summary: per-name stats and the recorded spans."""
        return {
            "stats": {
                key: {"calls": s[0], "inclusive_s": s[1], "self_s": s[2]}
                for key, s in self.stats.items()
                if s[0]
            },
            "spans": self.spans,
        }
