"""Span recorder for the traced run.

The recorder wraps the public entry points of each gdmux module from
outside: it rebinds every name under which a gdmux module holds the
original function (so `forward_batch` imported by name into pipeline and
statsim is wrapped there too), the kernel helpers pipeline imports from
transforms, the classmethod `SystemParams.create`, and each `next()` of
the generator returned by `pipeline.iter_frames`. Spans
stay in memory as [name, start, end, parent, key, error] and are written
out when the run ends.

The workload opens one root span ("bench.sample" or "bench.warmup")
around each timed call, with the wrappers installed only inside it, so
checks and input handling never record spans. A span's self time is its
duration minus the durations of its children; calls are strictly nested
in one thread, so the children never overlap.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

NAME, START, END, PARENT, KEY, ERROR = range(6)

LAYERS = ("cli", "pipeline", "fields", "transforms", "cosets", "trig", "statsim", "bench")


def _params_kind_key(args):
    """(params, kind) of a transforms call, to find the first call per design."""
    try:
        return (args[0], str(args[1]).lower())
    except IndexError:
        return None


# module -> public entry points wrapped in that module
ENTRY_POINTS = {
    "pipeline": ("validate_system", "mux_batch", "reconstruct_batch", "demux_batch",
                 "mux", "demux", "serialize", "deserialize", "leader_array",
                 "crosstalk_probe", "metrics", "required_snr", "capacity_check",
                 "frame_byte_length"),
    "fields": ("find_root_of_unity", "sqrt_of_minus_one", "get_field"),
    "transforms": ("forward_batch", "inverse_batch"),
    "cosets": ("coset_table", "fourier_cosets", "hartley_cosets"),
    "trig": ("carrier_matrix", "carrier"),
    "statsim": ("psd_estimate", "galois_acf", "synthesize_envelope"),
}
# transforms helpers that pipeline imports by name and calls directly
# (validate_system builds the Hartley kernel through _forward_flat for its
# Gram check); wrapped in pipeline's namespace only, so a kernel build
# there is a transforms span and calls inside transforms stay unwrapped
PIPELINE_IMPORTS = ("_forward_flat", "sigma_matrix")
KEYED = {"transforms.forward_batch", "transforms.inverse_batch",
         *(f"transforms.{name}" for name in PIPELINE_IMPORTS)}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []
        self._build_patches()

    # -- recording ---------------------------------------------------------

    def _open(self, name, key=None):
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, key, None]
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        rec[START] = time.perf_counter()
        return rec

    def _close(self, rec, exc=None):
        rec[END] = time.perf_counter()
        self._stack.pop()
        if exc is not None:
            rec[ERROR] = (type(exc).__name__, id(exc))

    def _wrap(self, name, fn, keyed=False):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = self._open(name, _params_kind_key(args) if keyed else None)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(rec, exc)
                raise
            self._close(rec)
            return out
        return wrapper

    def _wrap_generator(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                rec = self._open(name)
                try:
                    item = next(it)
                except StopIteration:
                    self._close(rec)
                    return
                except BaseException as exc:
                    self._close(rec, exc)
                    raise
                self._close(rec)
                yield item
        return wrapper

    def _wrap_cli_main(self, fn):
        @functools.wraps(fn)
        def wrapper(argv=None):
            command = argv[0] if argv else "main"
            rec = self._open(f"cli.{command}")
            try:
                out = fn(argv)
            except BaseException as exc:
                self._close(rec, exc)
                raise
            self._close(rec)
            return out
        return wrapper

    # -- installing --------------------------------------------------------

    def _build_patches(self):
        from gdmux import cli, fields, pipeline  # noqa: F401  (loads every module)

        modules = [mod for name, mod in sys.modules.items()
                   if name == "gdmux" or name.startswith("gdmux.")]
        wrappers = {}
        for short, names in ENTRY_POINTS.items():
            mod = sys.modules[f"gdmux.{short}"]
            for attr in names:
                full = f"{short}.{attr}"
                wrappers[id(getattr(mod, attr))] = self._wrap(
                    full, getattr(mod, attr), keyed=full in KEYED)
        wrappers[id(pipeline.iter_frames)] = self._wrap_generator(
            "pipeline.iter_frames.next", pipeline.iter_frames)
        wrappers[id(cli.main)] = self._wrap_cli_main(cli.main)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patches.append((mod, attr, value, wrapper))
        for attr in PIPELINE_IMPORTS:
            full = f"transforms.{attr}"
            original = getattr(pipeline, attr)
            self._patches.append((pipeline, attr, original, self._wrap(full, original, keyed=True)))
        create = fields.SystemParams.__dict__["create"]
        self._patches.append((fields.SystemParams, "create", create, classmethod(
            self._wrap("fields.SystemParams.create", create.__func__))))

    @contextmanager
    def sample(self, root="bench.sample"):
        """Install the wrappers and open a root span for one timed call."""
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        rec = self._open(root)
        try:
            yield
        finally:
            self._close(rec)
            for owner, attr, original, _ in self._patches:
                setattr(owner, attr, original)

    def dump(self, path) -> None:
        names = sorted({s[NAME] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[index[s[NAME]], s[START], s[END], s[PARENT],
                 s[ERROR][0] if s[ERROR] else None] for s in self.spans]
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "error"],
                       "names": names, "spans": rows}, fh)


class SpanStats:
    """Self and total times by span name, split into timed samples and all roots."""

    def __init__(self, spans: list[list]):
        n = len(spans)
        child = [0.0] * n
        root = [0] * n
        for i, s in enumerate(spans):
            parent = s[PARENT]
            root[i] = i if parent < 0 else root[parent]
            if parent >= 0:
                child[parent] += s[END] - s[START]
        self.self_all = defaultdict(float)
        self.self_timed = defaultdict(float)
        self.calls_timed = defaultdict(int)
        self.timed_s = 0.0
        first = {}
        rejects = defaultdict(int)
        for i, s in enumerate(spans):
            dur = s[END] - s[START]
            own = dur - child[i]
            self.self_all[s[NAME]] += own
            if spans[root[i]][NAME] == "bench.sample":
                self.self_timed[s[NAME]] += own
                self.calls_timed[s[NAME]] += 1
            if s[PARENT] < 0 and s[NAME] == "bench.sample":
                self.timed_s += dur
            if s[KEY] is not None and (s[NAME], s[KEY]) not in first:
                first[(s[NAME], s[KEY])] = dur
            err = s[ERROR]
            if err and s[NAME].startswith("pipeline."):
                # count an exception once, at the outermost pipeline span it left
                up = spans[s[PARENT]] if s[PARENT] >= 0 else None
                if not (up and up[NAME].startswith("pipeline.") and up[ERROR]
                        and up[ERROR][1] == err[1]):
                    rejects[err[0]] += 1
        self.first_call_s = sum(first.values())
        self.rejects = dict(rejects)

    def timed(self, *names) -> float:
        return sum(self.self_timed[n] for n in names)

    def total(self, *names) -> float:
        return sum(self.self_all[n] for n in names)

    def total_prefix(self, prefix) -> float:
        return sum(v for k, v in self.self_all.items() if k.startswith(prefix))

    def layer_share(self, layer) -> float:
        own = sum(v for k, v in self.self_timed.items() if k.split(".", 1)[0] == layer)
        return own / self.timed_s if self.timed_s else 0.0
