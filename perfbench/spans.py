"""Span tracer for the kho modules, installed from outside the package.

`Tracer.install()` replaces the public functions of each kho module, and the
public methods and properties of the classes they define, with wrappers
that record one span per call.  Module globals are the module's attributes,
so calls inside a module (fock.evolve calling floquet) are traced too.
Names imported into another module (fock's `classify`) are wrapped there
as well and keep the name of the module that defines them.

A span is (span id, parent span id, name, start ns, end ns, self ns); the
trace id is shared by every span of one replay.  Self time is the span's
duration minus the durations of its child spans.  Spans stay in memory
until the replay ends.  Pool workers forked during a replay inherit the
wrappers, but their spans stay in the worker and are not collected.
"""

from __future__ import annotations

import enum
import functools
import importlib
import inspect
import os
import time
import types
from collections import Counter

LAYERS = ("specfun", "model", "fock", "lattice", "output", "verify", "cli")
PRIVATE_TRACED = {"cli": ("_map_points", "_spectrum_point", "_energy_scan_point")}
BESSEL = ("specfun.bessel_table", "specfun.bessel_j", "specfun.bessel_range")

COMPLEX_BYTES = 16
KICK_FLOPS_PER_ELEMENT = 8  # complex multiply-add


def _bound(fn, args, kwargs) -> dict:
    ba = inspect.signature(fn).bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


def _count_kicks(counters, dim, kicks):
    counters["fock.kicks"] += kicks
    counters["fock.kick_bytes_computed"] += kicks * COMPLEX_BYTES * dim * dim
    counters["fock.kick_flops_computed"] += kicks * KICK_FLOPS_PER_ELEMENT * dim * dim


def _after_evolve(counters, a, result):
    _count_kicks(counters, a["state"].dim, a["n_kicks"])


def _after_kicks_to_energy(counters, a, result):
    _count_kicks(counters, a["dim"], len(result.energies) - 1)


def _after_spectrum(counters, a, result):
    counters["fock.quasienergy_spectrum.n_discarded"] += result.n_discarded


def _after_q_function(counters, a, result):
    n_re, n_im = a["resolution"]
    counters["fock.q_function.terms"] += n_re * n_im * a["state"].dim


def _after_step(counters, a, result):
    counters["lattice.step.coeffs"] += len(a["state"].coeffs)


def _after_write(counters, a, result):
    counters["output.bytes"] += os.path.getsize(a["path"])


def _before_doubling(counters, a):
    observable = a["observable"]

    def counted(dim):
        counters["fock.doubling_rule.evals"] += 1
        return observable(dim)

    a["observable"] = counted


# span name -> hook(counters, bound arguments, result), run after the call
AFTER = {
    "fock.evolve": _after_evolve,
    "fock.kicks_to_energy": _after_kicks_to_energy,
    "fock.quasienergy_spectrum": _after_spectrum,
    "fock.q_function": _after_q_function,
    "lattice.step": _after_step,
    "output.write_csv": _after_write,
    "output.write_qgrid": _after_write,
}
# span name -> hook(counters, bound arguments) that may replace arguments
BEFORE = {"fock.doubling_rule": _before_doubling}


class Tracer:
    """Records spans and counters for calls into the kho modules."""

    def __init__(self):
        self.trace_id = ""
        self.spans: list[tuple[int, int, str, int, int, int]] = []
        self.counters: Counter = Counter()
        self._stack: list[list] = []  # [span id, child ns] per open span
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name: str, fn):
        after, before = AFTER.get(name), BEFORE.get(name)
        stack, spans, counters = self._stack, self.spans, self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before or after:
                bound = _bound(fn, args, kwargs)
                if before:
                    before(counters, bound)
                    args, kwargs = (), bound
            self._next_id += 1
            frame = [self._next_id, 0]
            parent = stack[-1] if stack else None
            stack.append(frame)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[1] += duration
                spans.append((frame[0], parent[0] if parent else 0, name,
                              start, end, duration - frame[1]))
            if after:
                after(counters, bound, result)
            return result

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap_class(self, cls, layer: str) -> None:
        """Wrap the public methods and properties, and __post_init__."""
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__post_init__":
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(value, types.FunctionType):
                self._patch(cls, attr, self._wrap(name, value))
            elif isinstance(value, property) and value.fget is not None:
                self._patch(cls, attr, property(self._wrap(name, value.fget),
                                                value.fset, value.fdel, value.__doc__))

    def install(self, trace_id: str) -> None:
        """Wrap every kho layer; spans recorded from now on carry trace_id."""
        self.trace_id = trace_id
        modules = {layer: importlib.import_module(f"kho.{layer}") for layer in LAYERS}
        for layer, mod in modules.items():
            for attr, value in list(vars(mod).items()):
                origin = getattr(value, "__module__", "") or ""
                if not origin.startswith("kho."):
                    continue
                home = origin.rsplit(".", 1)[1]
                if isinstance(value, type):
                    if (home == layer and not attr.startswith("_")
                            and not issubclass(value, (enum.Enum, BaseException))):
                        self._wrap_class(value, layer)
                    continue
                if not callable(value):
                    continue
                if attr.startswith("_") and attr not in PRIVATE_TRACED.get(layer, ()):
                    continue
                self._patch(mod, attr, self._wrap(f"{home}.{value.__name__}", value))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def reset(self) -> None:
        self.spans.clear()
        self.counters.clear()
        self._stack.clear()

    # -- aggregation --------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Self seconds per span name."""
        out: Counter = Counter()
        for _, _, name, _, _, self_ns in self.spans:
            out[name] += self_ns
        return {k: v / 1e9 for k, v in out.items()}

    def calls(self) -> Counter:
        return Counter(name for _, _, name, _, _, _ in self.spans)

    def outer_calls(self, family: tuple[str, ...]) -> int:
        """Calls into `family` whose parent span is outside it."""
        names = {sid: name for sid, _, name, _, _, _ in self.spans}
        return sum(1 for _, parent, name, _, _, _ in self.spans
                   if name in family and names.get(parent) not in family)

    def durations(self, name: str) -> list[float]:
        return [(end - start) / 1e9 for _, _, n, start, end, _ in self.spans if n == name]

    def export(self) -> dict:
        """Spans as rows, with span names replaced by indices into `names`."""
        names = sorted({s[2] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        return {"trace_id": self.trace_id,
                "fields": ["span_id", "parent_id", "name", "start_ns", "end_ns", "self_ns"],
                "names": names,
                "spans": [[a, b, index[n], c, d, e] for a, b, n, c, d, e in self.spans],
                "counters": dict(self.counters)}
