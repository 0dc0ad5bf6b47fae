"""Spans around the calls `slex.cli` makes into the other layers.

The traced child replaces each layer module in `slex.cli`'s namespace
(`symfun`, `phasepoly`, `weights`, `radial`, `subsol`) by a proxy whose
public callables are wrapped, then runs `slex.cli.main(argv)` under a
root span `cli.main`.  So every call cli makes into a layer, in the order
cli makes it, is timed from outside the program, and calls inside a layer
run untouched.  Nothing under `src/` changes.

A span is (name, start, end, parent index); all spans of one operation
share its id.  They live in memory and are written out once, when the
operation ends.  `radial.solve_profile` spans are named by route:
`radial.profile_numeric` / `radial.profile_implicit`.  The recorder also
keeps the few return values the replay cross-check needs.
"""

from __future__ import annotations

import json
import time

import numpy as np

LAYERS = ("symfun", "phasepoly", "weights", "radial", "subsol")
ROOT = "cli.main"


class Recorder:
    def __init__(self):
        self.spans = []
        self.stack = [-1]
        self.exponents = []
        self.profiles = {}
        self.verification = None

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            label = (f"radial.profile_{kwargs.get('route', 'numeric')}"
                     if name == "radial.solve_profile" else name)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (label, start, end, parent)
            self._keep(label, result)
            return result

        return traced

    def _keep(self, label: str, result) -> None:
        if label == "weights.decay_exponent":
            self.exponents.append(result)
        elif label.startswith("radial.profile_"):
            self.profiles[label] = result
        elif label == "subsol.verify_subsolution":
            self.verification = result

    def install(self, cli_module) -> None:
        for layer in LAYERS:
            module = getattr(cli_module, layer)
            setattr(cli_module, layer, _Proxy(module, {
                attr: self.wrap(f"{layer}.{attr}", obj)
                for attr, obj in vars(module).items()
                if not attr.startswith("_") and callable(obj)
                and getattr(obj, "__module__", None) == module.__name__}))

    def replay(self) -> dict:
        """The replay's own values for the fields the CLI report carries."""
        out = {"exponents": self.exponents}
        num = self.profiles.get("radial.profile_numeric")
        imp = self.profiles.get("radial.profile_implicit")
        if num is not None and imp is not None:
            out["route_gap_max"] = float(np.max(np.abs(num.psi - imp.psi)))
        rep = self.verification
        if rep is not None:
            out["verification"] = {"points": rep.points,
                                   "min_phase_gap": rep.min_phase_gap,
                                   "min_level_value": rep.min_level_value}
        return out

    def dump(self, path: str, op_id: str) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {name: i for i, name in enumerate(names)}
        with open(path, "w") as fh:
            json.dump({"op": op_id, "names": names,
                       "spans": [[index[n], a, b, p]
                                 for n, a, b, p in self.spans],
                       "replay": self.replay()}, fh)


class _Proxy:
    """A layer module seen through wrapped public callables."""

    def __init__(self, module, wrapped: dict):
        self._module = module
        self.__dict__.update(wrapped)

    def __getattr__(self, attr):
        return getattr(self._module, attr)


def aggregate(trace: dict) -> dict:
    """Per span name: call count and summed inclusive seconds; plus the
    root's duration and its self time (`glue`: root minus its children)."""
    names = trace["names"]
    per_name = {}
    root_idx = [i for i, s in enumerate(trace["spans"])
                if names[s[0]] == ROOT]
    if len(root_idx) != 1:
        raise ValueError(f"expected one {ROOT} span, found {len(root_idx)}")
    root = root_idx[0]
    children = 0.0
    for name_i, start, end, parent in trace["spans"]:
        entry = per_name.setdefault(names[name_i], [0, 0.0])
        entry[0] += 1
        entry[1] += end - start
        if parent == root:
            children += end - start
    main_s = per_name[ROOT][1]
    return {"per_name": per_name, "main_s": main_s,
            "glue_s": main_s - children}
