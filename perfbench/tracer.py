"""Per-layer tracing of ``suq2`` from outside the package.

The tracer replaces the public entry points of each layer module with
timing wrappers, and rebinds every name under which a ``suq2`` module
imported them (``hochschild`` holds its own ``act_e``, ``spectral`` its
own ``pw_orthobasis``, ...).  Nothing under ``src/`` changes, and
``uninstall`` puts every original back.

Two kinds of wrapper:

* coarse calls (cochain evaluation, ``mult_op_matrix``, ``pw_orthobasis``,
  ``residue_extract``, the scans, tail bounds and lattice sums, the mero
  reference family) record one span each: item, name, start, end and the
  enclosing span;
* hot calls (Scalar arithmetic, ``AlgebraElement`` products and sums, the
  ``act_*`` family, ``haar``/``int_one``/``gns_inner``, ``mm_mul``) only
  bump aggregated counters and timers.  A hot call made from inside a hot
  call of the same layer is not counted again, so ``scalars.ops`` counts
  outermost Scalar arithmetic only.

Every wrapped call charges its duration to the enclosing wrapped call as
child time; a layer's self time is its calls' durations minus their child
time.  The per-term helpers that the spectral scan loops call
(``lambda_eigen``, ``clebsch_plus``, ...) are not wrapped: one wrapper per
lattice term would cost as much as the term itself.
"""

from __future__ import annotations

import math
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

from suq2 import (actions, algebra, functionals, hochschild, mero, modular,
                  peterweyl, scalars, spectral)

LAYERS = ("scalars", "algebra", "actions", "functionals", "hochschild",
          "modular", "peterweyl", "spectral", "mero")

# (owner, attribute names, hot).  An owner is a module or a class.
_SCALAR_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
               "__rmul__", "__truediv__", "__rtruediv__", "__neg__",
               "__pow__", "inverse")
_ENTRY_POINTS = {
    "scalars": ((scalars.Scalar, _SCALAR_OPS, True),
                (scalars, ("q_number", "big_q", "scalar_sqrt"), True)),
    "algebra": ((algebra.AlgebraElement,
                 ("__mul__", "__rmul__", "__pow__", "__add__", "__radd__",
                  "__sub__", "__rsub__", "__neg__", "scale", "star"), True),
                (algebra, ("normalize_word", "coproduct", "counit",
                           "weight_decompose"), True)),
    "actions": ((actions, ("act_weight", "act_k", "sigma_left",
                           "sigma_right", "theta", "theta_inv", "act_e",
                           "act_f", "act_h", "act_e_right", "act_f_right",
                           "pairing", "sweedler_oracle",
                           "sweedler_oracle_right"), True),),
    "functionals": ((functionals, ("haar", "int_one", "gns_inner",
                                   "gns_norm_sq"), True),),
    "hochschild": ((hochschild.Cochain, ("__call__", "pair_chain"), False),
                   (hochschild, ("boundary",), True)),
    "modular": ((modular, ("mm_mul", "commutator_d", "stilde", "ttilde",
                           "tau_over_R"), True),
                (modular, ("phi_res_over_r", "pi_split"), False)),
    "peterweyl": ((peterweyl, ("pw_orthobasis",), False),
                  (peterweyl, ("target_norm_sq", "block_monomials",
                               "bracket_difference"), True)),
    "spectral": ((spectral, ("mult_op_matrix", "residue_extract",
                             "upsilon_value", "upsilon_scan",
                             "upsilon_identity_pairblocks", "tail_bound",
                             "eigen_lattice_sum", "upsilon_cstarc_lattice",
                             "dirac_matrix", "commutator_growth"), False),),
    "mero": ((mero, ("h_closed", "h_direct", "h_err_bound", "f_value",
                     "f_residue", "f_residue_formula", "f1_partial",
                     "f2_partial", "mero_reference"), False),),
}

#: The seven unbounded memo caches, by the layer that owns them.
CACHES = {
    "algebra": (algebra._inner, algebra._outer, algebra._mono_mul,
                algebra._mono_coproduct),
    "actions": (actions._ladder_cached, actions._ladder_right_cached,
                actions._pair_mono),
}


def clear_caches() -> None:
    for fns in CACHES.values():
        for fn in fns:
            fn.cache_clear()


def cache_stats(layer: str) -> Tuple[float, int]:
    """(hit ratio, entries) summed over the layer's memo caches."""
    hits = misses = size = 0
    for fn in CACHES[layer]:
        info = fn.cache_info()
        hits += info.hits
        misses += info.misses
        size += info.currsize
    ratio = hits / (hits + misses) if hits + misses else 0.0
    return ratio, size


def scan_terms(lmax: int) -> int:
    """Lattice terms in one plain scan to ``lmax``: sum_k ceil(k/2)."""
    return (lmax + 1) ** 2 // 4


class Tracer:
    """Spans and counters for one traced run, kept in memory."""

    def __init__(self) -> None:
        self.item = -1
        self.stack: List[list] = []
        self.calls: Dict[str, int] = defaultdict(int)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.failures: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, int] = defaultdict(int)
        self.spans: List[Optional[tuple]] = []
        self.outer_s = 0.0
        self._patches: List[Tuple[object, str, object]] = []

    # -- result hooks ---------------------------------------------------

    def _on_scalar(self, out, args, kwargs) -> None:
        if isinstance(out, scalars.Scalar):
            self.counts["scalar_results"] += 1
            if out.is_polynomial():
                self.counts["laurent_results"] += 1

    def _on_basis(self, out, args, kwargs) -> None:
        self.counts["pw_vectors"] += sum(len(b) for b in out.values())

    def _on_scan(self, out, args, kwargs) -> None:
        omega = args[0] if args else kwargs["omega"]
        lmax = args[3] if len(args) > 3 else kwargs["lmax"]
        if omega != "gamma":
            self.counts["scan_terms"] += scan_terms(lmax)

    # -- wrapping -------------------------------------------------------

    def _wrap(self, layer: str, name: str, fn: Callable, hot: bool,
              on_result: Optional[Callable]) -> Callable:
        stack, spans = self.stack, self.spans
        calls, self_s, failures = self.calls, self.self_s, self.failures
        perf = time.perf_counter
        key = f"{layer}.{name}"
        tracer = self

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            if hot and parent is not None and parent[1] and parent[0] == layer:
                return fn(*args, **kwargs)
            # frame: layer, hot, child seconds, id of the enclosing span
            frame = [layer, hot, 0.0, parent[3] if parent else None]
            if not hot:
                span_id = len(spans)
                spans.append(None)
                outer_id, frame[3] = frame[3], span_id
            stack.append(frame)
            ok = False
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
                ok = True
            finally:
                dt = perf() - t0
                stack.pop()
                calls[key] += 1
                self_s[key] += dt - frame[2]
                if parent is not None:
                    parent[2] += dt
                else:
                    tracer.outer_s += dt
                if not ok and (parent is None or parent[0] != layer):
                    failures[layer] += 1
                if not hot:
                    spans[span_id] = (tracer.item, key, t0, t0 + dt, outer_id)
            if on_result is not None:
                on_result(out, args, kwargs)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        hooks = {"scalars": self._on_scalar,
                 "peterweyl.pw_orthobasis": self._on_basis,
                 "spectral.upsilon_value": self._on_scan}
        suq2_modules = [m for n, m in list(sys.modules.items())
                        if n.startswith("suq2.") and m is not None]
        for layer, groups in _ENTRY_POINTS.items():
            for owner, names, hot in groups:
                for name in names:
                    fn = getattr(owner, name)
                    hook = hooks.get(f"{layer}.{name}", hooks.get(layer))
                    wrapper = self._wrap(layer, name, fn, hot, hook)
                    if isinstance(owner, type):
                        self._patch(owner, name, wrapper)
                        continue
                    # Rebind the function wherever a suq2 module holds it.
                    for mod in suq2_modules:
                        for attr, val in list(vars(mod).items()):
                            if val is fn:
                                self._patch(mod, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reporting ------------------------------------------------------

    def layer_self(self, layer: str) -> float:
        prefix = layer + "."
        return math.fsum(v for k, v in self.self_s.items()
                         if k.startswith(prefix))

    def layer_calls(self, layer: str) -> int:
        prefix = layer + "."
        return sum(v for k, v in self.calls.items() if k.startswith(prefix))

    def metrics(self, wall_s: float) -> Dict[str, Tuple[float, str]]:
        """Per-layer metrics for a traced section that took ``wall_s``."""
        c, s = self.calls, self.self_s
        results = self.counts["scalar_results"]
        out: Dict[str, Tuple[float, str]] = {
            "scalars.ops": (self.layer_calls("scalars"), "count"),
            "scalars.laurent_share": (
                self.counts["laurent_results"] / results if results else 0.0,
                "ratio"),
            "algebra.products": (c["algebra.__mul__"], "count"),
            "actions.calls": (self.layer_calls("actions"), "count"),
            "hochschild.cochain_evals": (c["hochschild.__call__"], "count"),
            "modular.mm_mul_calls": (c["modular.mm_mul"], "count"),
            "functionals.calls": (self.layer_calls("functionals"), "count"),
            "peterweyl.basis_builds": (c["peterweyl.pw_orthobasis"], "count"),
            "peterweyl.vectors": (self.counts["pw_vectors"], "count"),
            "spectral.scan_terms": (self.counts["scan_terms"], "count"),
            "spectral.scan_s": (s["spectral.upsilon_value"], "s"),
            "spectral.tail_bound_s": (s["spectral.tail_bound"], "s"),
            "spectral.lattice_s": (s["spectral.eigen_lattice_sum"]
                                   + s["spectral.upsilon_cstarc_lattice"],
                                   "s"),
            "spectral.mult_op_s": (s["spectral.mult_op_matrix"], "s"),
            "spectral.failures": (self.failures["spectral"], "count"),
            "mero.calls": (self.layer_calls("mero"), "count"),
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (self.layer_self(layer), "s")
        for layer in CACHES:
            ratio, size = cache_stats(layer)
            out[f"{layer}.cache_hit_ratio"] = (ratio, "ratio")
            out[f"{layer}.cache_entries"] = (size, "count")
        out["trace.wall_s"] = (wall_s, "s")
        out["trace.bench_s"] = (wall_s - self.outer_s, "s")
        return out
