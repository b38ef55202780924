"""Layer tracing for the benchmark, installed from outside the package.

While a ``Tracer`` is active it replaces the public functions and methods
listed in ``FUNCTIONS`` and ``METHODS`` with wrappers that record one span
per call: name, start, end and parent span.  Leaving the ``with`` block
puts the originals back, so untraced passes run the package unchanged.

A function is replaced under every name bound to it in the ``nefbandit``
modules (``bandit`` imports ``fit_mle`` from ``glm``, ``cli`` imports
``run_ofu_glb`` from ``bandit``, ...), so a call is traced whichever
module makes it.  ``distributions.quad`` counts the ``scipy.integrate.quad``
calls made by the ``distributions`` module, through a proxy that stands in
for its ``integrate`` reference.

Self time is a span's duration minus the time covered by its child spans.
"""

from __future__ import annotations

import collections
import functools
import math
import sys
import time

from nefbandit import distributions, errors

# (module, function) pairs traced as ``<module>.<function>``
FUNCTIONS = [
    ("glm", "fit_mle"), ("glm", "loss"), ("glm", "hessian"), ("glm", "gradient_map"),
    ("bandit", "run_ofu_glb"), ("bandit", "optimistic_choice"),
    ("bandit", "exact_membership"), ("bandit", "relaxed_membership"),
    ("bandit", "make_instance"),
    ("distributions", "gamma_ratio"),
    ("selfconcordance", "build_certificate"), ("selfconcordance", "verify_dominance"),
    ("tailbounds", "run_tail_suite"), ("tailbounds", "measured_tilted_mgf"),
    ("config", "parse_config"), ("config", "build_instance"),
    ("cli", "rounds_to_csv"),
    ("rng", "replicate_stream"),
]
# distribution methods traced as ``distributions.<method>`` on every class defining them
METHODS = ["sample_tilted", "mean_at"]
SPAN_NAMES = ([f"{mod}.{fn}" for mod, fn in FUNCTIONS]
              + [f"distributions.{method}" for method in METHODS] + ["distributions.quad"])
_GLM_ROW_FUNCTIONS = {"glm.fit_mle", "glm.loss", "glm.hessian", "glm.gradient_map"}


class _IntegrateProxy:
    """Stands in for ``scipy.integrate`` inside ``distributions``; wraps ``quad``."""

    def __init__(self, module, quad):
        self._module = module
        self.quad = quad

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    """Records spans and event counts while installed as a context manager."""

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.events: collections.Counter = collections.Counter()
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------
    def _wrap(self, name: str, fn):
        names, parents, starts, ends, stack = (self.names, self.parents, self.starts,
                                               self.ends, self._stack)
        observe = self._observer(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                ends[idx] = clock()
                stack.pop()
                if observe is not None:
                    observe(args, kwargs, None, exc)
                raise
            ends[idx] = clock()
            stack.pop()
            if observe is not None:
                observe(args, kwargs, result, None)
            return result

        return traced

    def _observer(self, name: str):
        """Event counts taken at the call boundary, beyond calls and time."""
        ev = self.events
        if name in _GLM_ROW_FUNCTIONS:
            def rows(args, kwargs, result, exc):
                data = args[1] if len(args) > 1 else kwargs["data"]
                ev["glm.rows"] += data.n
                ev["glm.row_calls"] += 1
                if name == "glm.fit_mle":
                    if exc is None:
                        ev["glm.fit_mle.returned"] += 1
                        ev["glm.fit_mle.newton_iters"] += result.newton_iters
                    elif isinstance(exc, errors.DomainError):
                        ev["glm.fit_mle.domain_fallbacks"] += 1
            return rows
        if name == "tailbounds.measured_tilted_mgf":
            def nonfinite(args, kwargs, result, exc):
                if exc is None and not math.isfinite(result):
                    ev["tailbounds.measured_tilted_mgf.nonfinite"] += 1
            return nonfinite
        return None

    # -- installation -------------------------------------------------------
    def _replace(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                           else getattr(owner, attr)))
        setattr(owner, attr, new)

    def __enter__(self) -> "Tracer":
        try:
            self._install()
        except BaseException:
            self.__exit__()
            raise
        return self

    def _install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if n == "nefbandit" or n.startswith("nefbandit.")]
        for mod_name, fn_name in FUNCTIONS:
            original = getattr(sys.modules[f"nefbandit.{mod_name}"], fn_name)
            wrapped = self._wrap(f"{mod_name}.{fn_name}", original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._replace(mod, attr, wrapped)
        for cls in vars(distributions).values():
            if isinstance(cls, type) and cls.__module__ == distributions.__name__:
                for method in METHODS:
                    if method in cls.__dict__:
                        self._replace(cls, method,
                                      self._wrap(f"distributions.{method}", cls.__dict__[method]))
        integrate = distributions.integrate
        self._replace(distributions, "integrate",
                      _IntegrateProxy(integrate, self._wrap("distributions.quad", integrate.quad)))

    def __exit__(self, *exc_info) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------------
    def layer_totals(self) -> dict[str, dict[str, int]]:
        """Per span name: exact call count and total self time in nanoseconds."""
        n = len(self.names)
        child = [0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        totals: dict[str, dict[str, int]] = collections.defaultdict(
            lambda: {"calls": 0, "self_ns": 0})
        for i in range(n):
            t = totals[self.names[i]]
            t["calls"] += 1
            t["self_ns"] += self.ends[i] - self.starts[i] - child[i]
        return dict(totals)
