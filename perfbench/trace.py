"""Per-layer spans wrapped around the package's public functions from outside.

``Tracer.install`` replaces each traced function under every name by which a
module of the package holds it (the defining module, the modules that import
it, the package namespace), so calls are counted whichever route they take.
A function that a later refactor removes is still reported, with 0 calls.
Each span adds its duration to the span that encloses it, which gives the
self time of the solver entry points.  The package itself is not modified.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# (metric name, defining module, attribute); a class is traced at its constructor
FUNCTIONS = (
    ("densmat.partial_trace", "ensembleq.densmat", "partial_trace"),
    ("densmat.embed_at_site", "ensembleq.densmat", "embed_at_site"),
    ("densmat.matrix_function", "ensembleq.densmat", "matrix_function"),
    ("densmat.von_neumann_entropy", "ensembleq.densmat", "von_neumann_entropy"),
    ("densmat.trace_norm", "ensembleq.densmat", "trace_norm"),
    ("densmat.DensityMatrix", "ensembleq.densmat", "DensityMatrix"),
    ("ensemble.holevo", "ensembleq.ensemble", "holevo"),
    ("ensemble.is_broadcastable", "ensembleq.ensemble", "is_broadcastable"),
    ("ensemble.classical_broadcast", "ensembleq.ensemble", "classical_broadcast"),
    ("extopt.chi_q", "ensembleq.extopt", "chi_q"),
    ("extopt.fidelity_q", "ensembleq.extopt", "fidelity_q"),
    ("accinfo.accessible_information", "ensembleq.accinfo", "accessible_information"),
    ("recovery.au_feasible", "ensembleq.recovery", "au_feasible"),
    ("recovery.petz_map", "ensembleq.recovery", "petz_map"),
)
# (metric name, module, attributes) at the numpy and scipy boundary
FOREIGN = (
    ("numpy.eigh", "numpy.linalg", ("eigh", "eigvalsh")),
    ("numpy.kron", "numpy", ("kron",)),
    ("scipy.minimize", "scipy.optimize", ("minimize",)),
)
SELF_TIMED = ("extopt.chi_q", "extopt.fidelity_q", "accinfo.accessible_information")
COUNTERS = (
    "extopt.restarts",
    "extopt.iterations",
    "extopt.converged",
    "accinfo.restarts_used",
    "accinfo.restarts_at_best",
    "scipy.minimize.nfev",
)
# a restart counts as reaching the best value when it is this close to it
AT_BEST_TOL = 1e-9


class Tracer:
    def __init__(self):
        # name -> [calls, seconds, seconds inside enclosed spans]
        self.spans = {name: [0, 0.0, 0.0] for name, _, _ in FUNCTIONS + FOREIGN}
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._open = []  # enclosed-span seconds of each open span
        self._patches = []

    def _wrap(self, name, fn, on_result=None):
        stats = self.spans[name]
        open_spans = self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            open_spans.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                inner = open_spans.pop()
                if open_spans:
                    open_spans[-1] += elapsed
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += inner
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _on_report(self, report):
        self.counters["extopt.restarts"] += len(report.restart_values)
        self.counters["extopt.iterations"] += report.iterations
        self.counters["extopt.converged"] += int(report.converged)

    def _on_acc_report(self, report):
        self.counters["accinfo.restarts_used"] += report.restarts_used
        self.counters["accinfo.restarts_at_best"] += sum(
            v >= report.value - AT_BEST_TOL for v in report.mutual_info_per_restart
        )

    def _on_minimize(self, result):
        self.counters["scipy.minimize.nfev"] += int(result.nfev)

    def install(self):
        hooks = {
            "extopt.chi_q": self._on_report,
            "extopt.fidelity_q": self._on_report,
            "accinfo.accessible_information": self._on_acc_report,
            "scipy.minimize": self._on_minimize,
        }
        package = [m for key, m in sys.modules.items()
                   if key == "ensembleq" or key.startswith("ensembleq.")]
        for name, module_name, attr in FUNCTIONS:
            original = getattr(sys.modules.get(module_name), attr, None)
            if original is None:
                continue
            if isinstance(original, type):
                self._patch(original, "__init__", self._wrap(name, original.__init__))
            else:
                self._replace(original, self._wrap(name, original, hooks.get(name)), package)
        for name, module_name, attrs in FOREIGN:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                continue
            for attr in attrs:
                original = getattr(module, attr)
                traced = self._wrap(name, original, hooks.get(name))
                self._replace(original, traced, [module, *package])

    def _replace(self, original, traced, modules):
        """Bind ``traced`` to every name under which ``modules`` hold ``original``."""
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, key, traced)

    def uninstall(self):
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    def metrics(self) -> dict:
        """Totals since construction as {name: (value, unit)}."""
        out = {}
        for name, (calls, seconds, inner) in self.spans.items():
            out[f"{name}.calls"] = (calls, "count")
            out[f"{name}.s"] = (seconds, "s")
            if name in SELF_TIMED:
                out[f"{name}.self_s"] = (seconds - inner, "s")
        for name, value in self.counters.items():
            out[name] = (value, "count")
        return out
