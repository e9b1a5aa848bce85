"""In-memory spans around finpow's layers, recorded from outside the program.

The tracer replaces public functions at the names the program calls them by
(``finpow.driver.truncate``, ``numpy.linalg.eigh``, ...) with wrappers that
record a span: name, start, end, parent span and a size.  Spans stay in a
list until the run ends; ``restore`` puts the original functions back, so an
untraced pass runs the program unchanged.
"""

from __future__ import annotations

import json
from time import perf_counter

# (span name, module path, attribute, what to record as the span's size)
LAYERS = (
    ("core.truncate", "finpow.driver", "truncate", "window"),
    ("core.validate", "finpow.driver", "validate_truncation", None),
    ("powers.finite_power", "finpow.driver", "finite_power", None),
    ("series.depth", "finpow.driver", "truncation_depth", None),
    ("certificates.certify", "finpow.driver", "certify", None),
    ("certificates.tail_bound", "finpow.certificates", "tail_bound", None),
    ("linalg.eigh", "numpy.linalg", "eigh", "matrix"),
    ("linalg.eigvalsh", "numpy.linalg", "eigvalsh", "matrix"),
    ("config.load", "finpow.cli", "load_config", None),
    ("lattice.dispersion", "finpow.cli", "dispersion_integral_element", None),
)

ANSWER = "answer"


def _size(kind, args):
    if kind == "window":
        return args[1].dim
    if kind == "matrix":
        return int(args[0].shape[-1])
    return None


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, size]
        self.rows_generated = 0
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, name, fn, size_kind=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, _size(size_kind, args)]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()

        return traced

    def _count_rows(self, generator):
        def counted(m):
            self.rows_generated += 1
            return generator(m)

        return counted

    def _set(self, owner, attr, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, modules: dict, specs=()):
        """Wrap every layer of ``modules`` (import path -> module) and the row
        generators of ``specs``."""
        for name, module, attr, size_kind in LAYERS:
            owner = modules[module]
            original = getattr(owner, attr)
            if name == "config.load":
                original = self._counting_loader(original)
            self._set(owner, attr, self._wrap(name, original, size_kind))
        for spec in specs:
            self._set(spec, "row_generator", self._count_rows(spec.row_generator))

    def count_rows_of(self, spec):
        """Count the row generator calls of a spec built during a traced pass."""
        spec.row_generator = self._count_rows(spec.row_generator)

    def _counting_loader(self, load):
        def load_counted(path):
            model = load(path)
            model.spec.row_generator = self._count_rows(model.spec.row_generator)
            return model

        return load_counted

    def restore(self):
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()

    def answer(self, fn, *args, **kwargs):
        """Call ``fn`` as the root span of one answer."""
        return self._wrap(ANSWER, fn)(*args, **kwargs)

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def summary(self, answers: int) -> dict:
        """Per-answer figures of every layer, keyed by metric name."""
        per = max(answers, 1)
        own = self.self_times()
        ms: dict[str, float] = {}
        calls: dict[str, int] = {}
        dims: list[int] = []
        dim3 = 0
        for (name, _, _, _, size), t in zip(self.spans, own):
            ms[name] = ms.get(name, 0.0) + t
            calls[name] = calls.get(name, 0) + 1
            if name == "core.truncate":
                dims.append(size)
            elif name.startswith("linalg."):
                dim3 += size**3
        windows = calls.get("core.truncate", 0)

        def per_ms(name):
            return 1e3 * ms.get(name, 0.0) / per

        def per_call(name):
            return calls.get(name, 0) / per

        return {
            "driver.windows": windows / per,
            "driver.window_yield": answers / windows if windows else 0.0,
            "driver.dim_max": max(dims, default=0),
            "driver.self_ms": per_ms(ANSWER),
            "powers.finite_power_ms": per_ms("powers.finite_power"),
            "powers.finite_power_calls": per_call("powers.finite_power"),
            "linalg.eigh_ms": per_ms("linalg.eigh"),
            "linalg.eigh_calls": per_call("linalg.eigh"),
            "linalg.eigvalsh_ms": per_ms("linalg.eigvalsh"),
            "linalg.eigvalsh_calls": per_call("linalg.eigvalsh"),
            "linalg.dim3_sum": dim3 / per,
            "core.validate_ms": per_ms("core.validate"),
            "core.validate_calls": per_call("core.validate"),
            "core.truncate_ms": per_ms("core.truncate"),
            "core.truncate_calls": per_call("core.truncate"),
            "core.rows_generated": self.rows_generated / per,
            "series.depth_ms": per_ms("series.depth"),
            "series.depth_calls": per_call("series.depth"),
            "certificates.certify_ms": per_ms("certificates.certify"),
            "certificates.tail_bound_ms": per_ms("certificates.tail_bound"),
            "certificates.tail_bound_calls": per_call("certificates.tail_bound"),
            "config.load_ms": per_ms("config.load"),
            "lattice.dispersion_ms": per_ms("lattice.dispersion"),
        }

    def answer_ms(self) -> float:
        """Total duration of all answer spans, in ms."""
        return 1e3 * sum(e - s for n, s, e, _, _ in self.spans if n == ANSWER)

    def write(self, path: str):
        """Write the spans as JSON lines; ``answer`` is the id of the root span."""
        root: list[int] = []
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as out:
            for i, (name, start, end, parent, size) in enumerate(self.spans):
                root.append(i if parent < 0 else root[parent])
                out.write(json.dumps({
                    "id": i, "name": name, "parent": parent, "answer": root[i],
                    "start_us": round(1e6 * (start - origin), 1),
                    "dur_us": round(1e6 * (end - start), 1), "size": size,
                }) + "\n")
