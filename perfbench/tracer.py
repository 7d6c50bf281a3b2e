"""Span tracer for the traced benchmark run.

``Tracer.install`` replaces every public function of the ``gexpect`` modules
at every module that binds it (``simulate_gbm`` is bound in ``control_sim``,
``g_pde``, ``stoch_integral`` and ``experiment_cli``), and wraps the public
methods and ``__init__`` of every public class in place.  One wrapper is made
per original function, so every binding calls the same wrapper.

A span records its name, start, end and parent.  Spans stay in memory until
``write_spans``.  A span's self time is its duration minus the time its
children cover; since calls nest on one thread, children never overlap, so
the self times of all spans under the root add up to the root's duration.

Counters that are computed from arguments or array sizes, not measured, are
kept by the post-call hooks in ``COUNTER_HOOKS``.
"""

from __future__ import annotations

import functools
import inspect
import time
import types
from pathlib import Path

import numpy as np

LAYERS = (
    "operator_core",
    "covariance_set",
    "g_normal",
    "control_sim",
    "stoch_integral",
    "g_pde",
    "experiment_cli",
)

ROOT = "bench.pass"


class SliceLog(np.ndarray):
    """View of ``GridSolution.values`` that records which time slices are read."""

    def __array_finalize__(self, obj):
        self.reads = getattr(obj, "reads", set())

    def __getitem__(self, key):
        first = key[0] if isinstance(key, tuple) else key
        rows = np.arange(self.shape[0])[first]
        self.reads.update(np.atleast_1d(rows).tolist())
        return self.view(np.ndarray)[key]


class Tracer:
    def __init__(self):
        self.clock = time.perf_counter
        self.originals = {}  # wrapper -> original
        self.patched = []  # (owner, attribute, original) to restore
        self.reset()

    def reset(self):
        self.spans = []  # (name, start, end, parent index)
        self.stack = []  # open span indices
        self.child_time = []  # per open span: time covered by its children
        self.totals = {}  # name -> [calls, total_s, self_s, errors]
        self.counters = {}
        self.sim_keys = set()
        self.slice_reads = []  # one set of read slice indices per solution
        self.stored_slices = 0

    # -- spans -----------------------------------------------------------------

    def _enter(self, name):
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, self.clock(), 0.0, parent])
        self.stack.append(len(self.spans) - 1)
        self.child_time.append(0.0)

    def _exit(self, name, failed):
        end = self.clock()
        index = self.stack.pop()
        covered = self.child_time.pop()
        span = self.spans[index]
        span[2] = end
        duration = end - span[1]
        if self.child_time:
            self.child_time[-1] += duration
        entry = self.totals.setdefault(name, [0, 0.0, 0.0, 0])
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - covered
        entry[3] += failed
        return duration

    def span(self, name, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        return self._call(name, None, fn, args, kwargs)

    def _call(self, name, hook, fn, args, kwargs):
        self._enter(name)
        failed = 0
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            # count an exception once, in the innermost layer it leaves
            if not getattr(exc, "_perfbench_counted", False):
                failed = 1
                exc._perfbench_counted = True
            raise
        finally:
            duration = self._exit(name, failed)
        if hook is not None:
            hook(self, duration, args, kwargs, result)
        return result

    def _wrap(self, name, fn):
        hook = COUNTER_HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._call(name, hook, fn, args, kwargs)

        self.originals[wrapper] = fn
        return wrapper

    # -- installation ------------------------------------------------------------

    def install(self, modules, extra_binders=()):
        """Wrap the public API of ``modules`` ({layer: module}) everywhere bound.

        ``extra_binders`` are further modules (the benchmark's own) whose
        bindings of those functions are replaced too.
        """
        self.originals = {}
        wrappers = {}  # original function -> wrapper
        for layer, mod in modules.items():
            for attr in getattr(mod, "__all__", ()):
                obj = getattr(mod, attr)
                if isinstance(obj, types.FunctionType) and obj.__module__ == mod.__name__:
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    if not issubclass(obj, BaseException):
                        self._wrap_class(layer, obj)
        for mod in list(modules.values()) + list(extra_binders):
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in wrappers:
                    self.patched.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])

    def _wrap_class(self, layer, cls):
        for attr, obj in list(vars(cls).items()):
            if not isinstance(obj, types.FunctionType):
                continue
            if attr == "__init__":
                name = f"{layer}.{cls.__name__}"
            elif attr == "__call__" or not attr.startswith("_"):
                name = f"{layer}.{cls.__name__}.{attr}"
            else:
                continue
            self.patched.append((cls, attr, obj))
            setattr(cls, attr, self._wrap(name, obj))

    def uninstall(self):
        for owner, attr, original in reversed(self.patched):
            setattr(owner, attr, original)
        self.patched.clear()

    def unwrapped_references(self, modules):
        """Bindings in ``modules`` that still hold an original traced function.

        Looks at module globals and one level into module-level dicts, lists
        and tuples.  An empty list means every call goes through a wrapper.
        """
        originals = {id(fn): fn for fn in self.originals.values()}
        found = []
        for mod in modules:
            for attr, obj in vars(mod).items():
                values = [obj]
                if isinstance(obj, dict):
                    values = list(obj.values())
                elif isinstance(obj, (list, tuple)):
                    values = list(obj)
                for value in values:
                    if id(value) in originals and originals[id(value)] is value:
                        found.append(f"{mod.__name__}.{attr}")
        return found

    # -- results -----------------------------------------------------------------

    def add(self, name, amount):
        self.counters[name] = self.counters.get(name, 0) + amount

    def slices_read(self):
        return sum(len(reads) for reads in self.slice_reads)

    def write_spans(self, path):
        """Write the spans as tab-separated name, start, end, parent."""
        with open(path, "w") as fh:
            fh.write("index\tname\tstart_s\tend_s\tparent\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{start!r}\t{end!r}\t{parent}\n")


# -- counters computed from arguments and array sizes --------------------------


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _on_simulate_gbm(tracer, duration, args, kwargs, bundle):
    sigma = _arg(args, kwargs, 0, "sigma")
    policy = _arg(args, kwargs, 1, "policy")
    n_paths = _arg(args, kwargs, 2, "n_paths")
    steps = _arg(args, kwargs, 3, "steps")
    T = _arg(args, kwargs, 4, "T")
    seed = _arg(args, kwargs, 5, "seed")
    tracer.add("control_sim.path_steps", n_paths * steps)
    tracer.add("control_sim.simulate_gbm.total_s", duration)
    policy_key = (policy.kind, policy.index, policy.table, policy.describe())
    tracer.sim_keys.add(
        (sigma.matrices.tobytes(), policy_key, n_paths, steps, float(T), int(seed))
    )
    held = bundle.times.nbytes + bundle.states.nbytes + bundle.increments.nbytes
    tracer.counters["control_sim.bytes_held"] = max(
        tracer.counters.get("control_sim.bytes_held", 0), held
    )


def _on_build_policies(tracer, duration, args, kwargs, policies):
    tracer.add("control_sim.policies_built", len(policies))


def _on_integrate_elementary(tracer, duration, args, kwargs, result):
    phi = _arg(args, kwargs, 0, "phi")
    tracer.add("stoch_integral.path_blocks", result.n_paths * phi.n_blocks)


def _draws(tracer, duration, args, kwargs, result):
    gn = _arg(args, kwargs, 0, "gn")
    n = _arg(args, kwargs, 2, "n")
    tracer.add("g_normal.draws", n * gn.dim)


def _on_sample_gaussian(tracer, duration, args, kwargs, result):
    tracer.add("g_normal.draws", result.size)


def _on_solve(tracer, duration, args, kwargs, solution):
    values = solution.values
    dim = values.ndim - 1
    steps = values.shape[0] - 1
    tracer.add(f"g_pde.solve.d{dim}.steps", steps)
    tracer.add(f"g_pde.solve.d{dim}.total_s", duration)
    tracer.add("g_pde.solve.n_steps", steps)
    tracer.add("g_pde.node_updates", steps * int(np.prod(values.shape[1:])))
    tracer.add("g_pde.solve.total_s", duration)
    tracer.counters["g_pde.bytes_held"] = max(
        tracer.counters.get("g_pde.bytes_held", 0), values.nbytes
    )
    tracer.stored_slices += values.shape[0]
    log = values.view(SliceLog)
    # keep the set, not the array, so the solution is freed as usual
    tracer.slice_reads.append(log.reads)
    # GridSolution is immutable to callers; the traced run swaps in a view
    # of the same memory that records slice reads.
    object.__setattr__(solution, "values", log)


def _on_run(tracer, duration, args, kwargs, result):
    stem = Path(_arg(args, kwargs, 0, "config_path")).stem
    tracer.add(f"experiment_cli.run.{stem}.s", duration)


COUNTER_HOOKS = {
    "experiment_cli.run": _on_run,
    "control_sim.simulate_gbm": _on_simulate_gbm,
    "control_sim.build_policies": _on_build_policies,
    "stoch_integral.integrate_elementary": _on_integrate_elementary,
    "g_normal.static_upper_report": _draws,
    "g_normal.sample_gaussian": _on_sample_gaussian,
    "g_pde.solve_gheat": _on_solve,
    "g_pde.solve_gpde": _on_solve,
}
