"""Per-function spans around the public functions of the creditfactors layers.

install() wraps every public function defined in the traced modules and
rebinds every module-namespace name in the package that *is* one of those
functions, so calls made inside the package (stepwise_aic -> ols,
adf_test -> stattests.ols, augment_with_pc1 -> factor_model.ols) are caught
too. Spans are appended to an in-memory list and only written out by dump().
"""

import importlib
import inspect
import json
import sys
import time

LAYERS = ("panel", "stattests", "regress", "cca", "factor_model", "tables", "cli")
PACKAGE = "creditfactors"

# result -> extra integer recorded on the span
_EXTRAS = {
    "regress.stepwise_aic": lambda result: len(result[1].steps),
    "panel.read_loans_csv": len,
}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, parent index, start, end, failed, extra]
        self._stack = []
        self._patched = []

    def _wrap(self, name, fn):
        spans, stack, extra_of = self.spans, self._stack, _EXTRAS.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, False, None]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[4] = True
                raise
            finally:
                span[3] = clock()
                stack.pop()
            if extra_of is not None:
                span[5] = extra_of(result)
            return result

        return traced

    def install(self):
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, obj))

    def uninstall(self):
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()

    def dump(self, path):
        with open(path, "w") as fh:
            for i, (name, parent, start, end, failed, extra) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "parent": parent, "start": start,
                                     "end": end, "failed": failed, "extra": extra}) + "\n")


def summarize(spans, first=0):
    """Per-function calls, failures, inclusive and self seconds for spans[first:].

    Self time is a span's duration minus the durations of its direct children.
    Also returns the stepwise and loan counters the benchmark reports.
    """
    per_fn = {}
    child_time = {}
    stepwise_ids = set()
    accepted = candidates = loans = 0
    for i in range(first, len(spans)):
        name, parent, start, end, failed, extra = spans[i]
        dur = end - start
        if parent >= first:
            child_time[parent] = child_time.get(parent, 0.0) + dur
        if name == "regress.stepwise_aic":
            stepwise_ids.add(i)
            accepted += extra or 0
        elif name == "regress.ols" and parent in stepwise_ids:
            candidates += 1
        elif name == "panel.read_loans_csv":
            loans += extra or 0
    for i in range(first, len(spans)):
        name, _, start, end, failed, _ = spans[i]
        rec = per_fn.setdefault(name, {"calls": 0, "failed": 0, "incl_s": 0.0, "self_s": 0.0})
        rec["calls"] += 1
        rec["failed"] += int(failed)
        rec["incl_s"] += end - start
        rec["self_s"] += end - start - child_time.get(i, 0.0)
    # the first ols of each search is the intercept-only start, not a candidate
    candidates -= len(stepwise_ids)
    return per_fn, {"accepted": accepted, "candidates": candidates, "loans": loans}
