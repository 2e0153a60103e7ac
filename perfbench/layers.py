"""Per-layer attribution of a cProfile run.

Every profiled function is bucketed into a layer by its module path
(:data:`LAYERS`).  Functions outside those modules — C builtins such as
``heappush`` or ``getrandbits``, the standard library, numpy, and repro
helper modules that belong to no layer — have their self time charged
to the layers of their callers, in proportion to the time each caller
edge accounts for.  C methods of repro's own extension types (the C
scheduler core's ``run``) belong to the module that defines the type.
What cannot be traced to a layer is reported as ``other``.
"""

from __future__ import annotations

import re
from collections import defaultdict
from typing import Any, Dict, Optional, Tuple

#: Layer name -> module prefixes it owns (longest prefix wins).
LAYERS: Dict[str, Tuple[str, ...]] = {
    "sim": ("repro.sim",),
    "sim.fluid": ("repro.sim.fluid",),
    "net": ("repro.net",),
    "switchsim": ("repro.switchsim",),
    "core.program": ("repro.core.program",),
    "client": ("repro.apps.client", "repro.core.client", "repro.core.placement"),
    "server": ("repro.core.server", "repro.apps.service"),
    "baselines": ("repro.baselines",),
    "workloads": ("repro.workloads",),
    "metrics": ("repro.metrics",),
    "experiments": ("repro.experiments",),
}
#: A sub-layer reported on its own as well (it is also part of ``net``).
SUB_LAYERS: Dict[str, str] = {"net.topology": "repro.net.topology"}
OTHER = "other"

_PREFIXES = sorted(
    ((prefix, layer) for layer, prefixes in LAYERS.items() for prefix in prefixes),
    key=lambda item: -len(item[0]),
)
_C_TYPE = re.compile(r"of '([\w.]+)' objects")

Func = Tuple[str, int, str]


def module_of(func: Func, src_root: str) -> Optional[str]:
    """Dotted module of a profiled function, or None when unknown."""
    filename, _line, name = func
    if filename == "~":
        match = _C_TYPE.search(name)
        return match.group(1).rsplit(".", 1)[0] if match else None
    path = filename.replace("\\", "/")
    root = src_root.rstrip("/") + "/"
    if not path.startswith(root) or not path.endswith(".py"):
        return None
    module = path[len(root) : -3].replace("/", ".")
    return module[: -len(".__init__")] if module.endswith(".__init__") else module


def layer_of_module(module: Optional[str]) -> Optional[str]:
    if module is None:
        return None
    for prefix, layer in _PREFIXES:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return None


class Attribution:
    """Self time and calls per layer from ``pstats.Stats(...).stats``."""

    def __init__(self, stats: Dict[Func, Any], src_root: str):
        self.stats = stats
        self.src_root = src_root
        self._shares: Dict[Func, Dict[str, float]] = {}
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, float] = defaultdict(float)
        self.sub_self_s: Dict[str, float] = defaultdict(float)
        self.sub_calls: Dict[str, float] = defaultdict(float)
        for func, (_cc, nc, tt, _ct, _callers) in stats.items():
            if func[2].startswith("<method 'disable' of '_lsprof.Profiler'"):
                continue
            for layer, share in self.shares(func).items():
                self.self_s[layer] += tt * share
                self.calls[layer] += nc * share
            module = module_of(func, src_root)
            for sub, prefix in SUB_LAYERS.items():
                if module is not None and (module == prefix or module.startswith(prefix + ".")):
                    self.sub_self_s[sub] += tt
                    self.sub_calls[sub] += nc

    @property
    def total_s(self) -> float:
        return sum(self.self_s.values())

    def shares(self, func: Func, _visiting: Optional[set] = None) -> Dict[str, float]:
        """Layer -> fraction of *func*'s self time charged to it."""
        cached = self._shares.get(func)
        if cached is not None:
            return cached
        layer = layer_of_module(module_of(func, self.src_root))
        if layer is not None:
            result = {layer: 1.0}
        else:
            visiting = set() if _visiting is None else _visiting
            if func in visiting:
                return {OTHER: 1.0}  # a cycle among unowned functions
            visiting.add(func)
            result = self._from_callers(func, visiting)
            visiting.discard(func)
        self._shares[func] = result
        return result

    def _from_callers(self, func: Func, visiting: set) -> Dict[str, float]:
        callers = self.stats[func][4]
        # Weight each caller edge by the self time it accounts for;
        # fall back to call counts when the function took no time.
        weights = {caller: edge[2] for caller, edge in callers.items()}
        if sum(weights.values()) <= 0:
            weights = {caller: edge[1] for caller, edge in callers.items()}
        total = sum(weights.values())
        if total <= 0:
            return {OTHER: 1.0}
        result: Dict[str, float] = defaultdict(float)
        for caller, weight in weights.items():
            if caller not in self.stats:
                result[OTHER] += weight / total
                continue
            for layer, share in self.shares(caller, visiting).items():
                result[layer] += share * weight / total
        return dict(result)
