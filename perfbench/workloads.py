"""The three benchmark workloads: seeded inputs, items and output checks.

A workload is a fixed *pass* of items built from the seed (a cold batch,
like one CLI call) and, for ``residue-numerics``, *probes* run after
timing.  Items call the public ``suq2`` API through module attributes at
call time, so the tracer's wrappers are seen.

Outputs are checked against the package's independent oracles, never
against the four red acceptance targets:

* cochain-closure: every coboundary is exactly ZERO; the six cocycle
  pairings with the volume chain are equal;
* peterweyl-operators: stored norms re-derive by direct Haar integration
  and the squared rescale identity is exact; ``mult_op_matrix(c)`` matches
  ``clebsch_plus``/``clebsch_minus``; products match the product of the
  factor matrices on every column whose image stays below the cutoff;
* residue-numerics: residue reports are finite; each estimate agrees
  with the estimate from a refined Richardson schedule (every offset
  halved) within the sum of the two error bars; the pole-resolved
  ``deltaL2`` residues have error bars below 0.5% of the estimate (under
  0.1% at this commit); identity scans match
  ``upsilon_identity_pairblocks``; tail bounds are finite; the template
  sum sits within its certified bound of the closed form; ``f_residue``
  lands within 1% of its formula.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional

import numpy as np

from suq2 import algebra, functionals, hochschild, mero, modular, peterweyl
from suq2 import sampling, spectral
from suq2.scalars import ONE, ZERO

WORKLOADS = ("cochain-closure", "peterweyl-operators", "residue-numerics")

Check = Callable[[object, Callable[[object], object]], Optional[str]]


class Item(NamedTuple):
    label: str
    call: Callable[[], object]
    check: Optional[Check] = None
    key: object = None


class Workload(NamedTuple):
    items: List[Item]
    probes: List[Item]


def jittered(rng: random.Random, count: int, lo: float, hi: float
             ) -> List[float]:
    """``count`` seeded points covering [lo, hi] evenly.

    Each of ``ceil(count / 2)`` equal strata gets a uniform draw u and its
    mirror 1 - u (antithetic pairs), so the cost of a pass varies little
    from seed to seed while every seed still draws fresh points."""
    strata = (count + 1) // 2
    width = (hi - lo) / strata
    out = []
    for k in range(strata):
        u = rng.random()
        out += [lo + width * (k + u), lo + width * (k + 1.0 - u)]
    return out[:count]


def _finite(*values: float) -> bool:
    return all(math.isfinite(v) for v in values)


# ---------------------------------------------------------------------------
# cochain-closure

def _random_element(rng: random.Random, terms: int) -> algebra.AlgebraElement:
    monos: Dict[algebra.Monomial, object] = {}
    while len(monos) < terms:
        monos.setdefault(sampling.random_monomial(rng, 2),
                         sampling.random_coefficient(rng))
    return algebra.AlgebraElement(monos)


def _check_zero(out, lookup) -> Optional[str]:
    return None if out == ZERO else f"nonzero coboundary {out}"


def _check_pairing(out, lookup) -> Optional[str]:
    first = lookup(("pairing", "phi"))
    return None if out == first else f"pairing {out} != pair(phi) {first}"


def _tuples(rng: random.Random, n_gen: int, n_random: int):
    """Generator 5-tuples and random 5-tuples, interleaved.

    Random tuples cycle through all 32 one/two-term patterns of the five
    slots, so every seed draws the same mix of sizes."""
    gens = algebra.gens()
    gen_tuples = [tuple(gens[i] for i in idx) for idx in rng.sample(
        list(itertools.product(range(4), repeat=5)), n_gen)]
    patterns = list(itertools.product((1, 2), repeat=5))
    rand_tuples = []
    while len(rand_tuples) < n_random:
        rng.shuffle(patterns)
        for pat in patterns[:n_random - len(rand_tuples)]:
            rand_tuples.append(tuple(_random_element(rng, t) for t in pat))
    out = []
    for k in range(max(n_gen, n_random)):
        out += gen_tuples[k:k + 1] + rand_tuples[k:k + 1]
    return out


def cochain_closure(rng: random.Random) -> Workload:
    cochains = dict(hochschild.COCYCLES)
    cochains["phi_res_over_r"] = hochschild.Cochain(
        3, lambda *a: modular.phi_res_over_r(*a), "phi_res_over_r")
    bounds = {name: hochschild.boundary(c) for name, c in cochains.items()}

    def items(tuples):
        return [Item(f"b({name})", lambda bf=bf, t=tup: bf(*t), _check_zero)
                for tup in tuples for name, bf in bounds.items()]

    pairings = [Item("pair_chain",
                     lambda c=c: c.pair_chain(hochschild.VOLUME_CHAIN),
                     _check_pairing, ("pairing", name))
                for name, c in hochschild.COCYCLES.items()]
    return Workload(pairings + items(_tuples(rng, 40, 64)), [])


# ---------------------------------------------------------------------------
# peterweyl-operators

def _check_basis(out, lookup) -> Optional[str]:
    for block in out.values():
        for v in block:
            rho = functionals.gns_norm_sq(v.monic)
            if rho != v.norm_sq:
                return f"stored norm of {v!r} does not re-derive"
            if v.rescale_sq * rho != v.target_norm_sq:
                return f"squared rescale of {v!r} is not exact"
            if v.rescale_sq == ONE and rho != v.target_norm_sq:
                return f"anchor {v!r} misses the target norm"
    return None


def _check_clebsch(out, lookup) -> Optional[str]:
    pos = {lab: k for k, lab in enumerate(out.labels)}
    flagged = set(out.flagged)
    top = max(lab[0] for lab in out.labels)
    for (l2, i2, j2), col in pos.items():
        if l2 >= top or (l2, i2, j2) in flagged:
            continue
        want = np.zeros(len(pos))
        want[pos[(l2 + 1, i2 + 1, j2 - 1)]] = spectral.clebsch_plus(
            l2, i2, j2, out.q)
        down = pos.get((l2 - 1, i2 + 1, j2 - 1))
        if down is not None:
            want[down] = spectral.clebsch_minus(l2, i2, j2, out.q)
        dev = float(np.max(np.abs(out.matrix[:, col] - want)))
        if dev > 1e-10:
            return f"c column {(l2, i2, j2)} off the ladder forms by {dev:.1e}"
    return None


def _check_product(first: str, second: str, q: float) -> Check:
    def check(out, lookup) -> Optional[str]:
        x, y = lookup((first, q)), lookup((second, q))
        x_flagged = {out.labels.index(lab) for lab in x.flagged}
        y_flagged = set(y.flagged)
        for col, lab in enumerate(out.labels):
            support = np.nonzero(y.matrix[:, col])[0]
            if lab in y_flagged or x_flagged.intersection(support):
                continue
            dev = float(np.max(np.abs(
                out.matrix[:, col] - x.matrix @ y.matrix[:, col])))
            if dev > 1e-10:
                return (f"M({first}{second}) column {lab} differs from "
                        f"M({first}) M({second}) by {dev:.1e}")
        return None
    return check


def _operator_items(rng: random.Random, count: int, products: int,
                    l2max: int, pairs: Iterator) -> List[Item]:
    gens = dict(zip("abcd", algebra.gens()))
    out: List[Item] = []
    for q in jittered(rng, count, 0.3, 0.8):
        def call(x, q=q):
            return spectral.mult_op_matrix(x, spectral.SpectralGrid(q, l2max))
        for name, g in gens.items():
            check = _check_clebsch if name == "c" else None
            out.append(Item(f"mult_op_matrix({name}, 2l<={l2max})",
                            lambda g=g, call=call: call(g), check, (name, q)))
        for first, second in itertools.islice(pairs, products):
            x = gens[first] * gens[second]
            out.append(Item(f"mult_op_matrix({first}{second}, 2l<={l2max})",
                            lambda x=x, call=call: call(x),
                            _check_product(first, second, q)))
    return out


def peterweyl_operators(rng: random.Random) -> Workload:
    """A cold 2l <= 4 basis, operators at 2l <= 3 (the slow tail) and at
    2l <= 2 (the bulk, so the median sits inside one cost cluster).
    Products run through a seeded order of all 16 generator pairs."""
    pairs = itertools.cycle(rng.sample(
        list(itertools.product("abcd", repeat=2)), 16))
    basis = Item("pw_orthobasis", lambda: peterweyl.pw_orthobasis(4),
                 _check_basis)
    return Workload([basis] + _operator_items(rng, 2, 3, 3, pairs)
                    + _operator_items(rng, 4, 4, 2, pairs), [])


# ---------------------------------------------------------------------------
# residue-numerics

_RESIDUE_OMEGAS = ("deltaL2-e11", "deltaL2-e22", "cstarc", "identity")
_REFINED_SCHEDULE = (0.2, 0.1, 0.05, 0.025)
_DELTA_BAR_REL = 5e-3


@functools.lru_cache(maxsize=None)
def _refined_residue(omega: str, q: float) -> spectral.ResidueReport:
    """The same residue on the refined schedule, computed once per point."""
    return spectral.residue_extract(omega, q, schedule=_REFINED_SCHEDULE)


def _check_report(out, lookup) -> Optional[str]:
    if not _finite(out.estimate, out.error_bar, out.least_squares):
        return f"non-finite residue report {out!r}"
    if out.omega.startswith("deltaL2") \
            and not out.error_bar <= _DELTA_BAR_REL * abs(out.estimate):
        return (f"{out.omega} at q={out.q}: error bar {out.error_bar:.2e} "
                f"above {_DELTA_BAR_REL:.1%} of the estimate {out.estimate!r}")
    ref = _refined_residue(out.omega, out.q)
    diff = abs(out.estimate - ref.estimate)
    if not diff <= out.error_bar + ref.error_bar:
        return (f"{out.omega} at q={out.q}: estimate {out.estimate!r} and "
                f"refined-schedule estimate {ref.estimate!r} differ by "
                f"{diff:.2e}, beyond their error bars")
    return None


@functools.lru_cache(maxsize=None)
def _pair_blocks(z: float, q: float, lmax: int) -> float:
    """The independent identity scan, computed once per point."""
    return spectral.upsilon_identity_pairblocks(z, q, lmax)


def _check_rows(out, lookup) -> Optional[str]:
    for row in out:
        if not _finite(row["partial_sum"], row["tail_bound"]) \
                or row["tail_bound"] < 0.0:
            return f"bad scan row {row}"
        if row["omega_tag"] == "identity":
            ref = _pair_blocks(row["z"], row["q"], row["lmax"])
            if abs(row["partial_sum"] - ref) > 1e-12 * abs(ref):
                return (f"identity scan {row['partial_sum']!r} != "
                        f"pair blocks {ref!r} at lmax {row['lmax']}")
    return None


def _check_h(out, lookup) -> Optional[str]:
    diff = abs(out["direct"] - out["closed"])
    if not diff <= out["err_bound"]:
        return f"|h_direct - h_closed| = {diff:.2e} > bound {out['err_bound']:.2e}"
    return None


def _check_partials(out, lookup) -> Optional[str]:
    if not (_finite(out["partial"], out["partial_half"])
            and out["partial"] >= out["partial_half"] > 0.0):
        return f"remainder partials not finite and increasing: {out}"
    return None


def _check_f(out, lookup) -> Optional[str]:
    return None if _finite(out["value"]) and out["value"] > 0.0 \
        else f"lattice sum value {out['value']!r}"


def _check_f_residue(out, lookup) -> Optional[str]:
    rel = abs(out["estimate"] - out["formula"]) / out["formula"]
    return None if rel < 0.01 else f"f_residue off its formula by {rel:.2e}"


def _residue_items(rng: random.Random, count: int, lmaxes) -> List[Item]:
    items: List[Item] = []
    qs = jittered(rng, count, 0.3, 0.8)
    # The cheap deltaL2 residues get twice the q points, so the median
    # item sits inside their cost cluster rather than between clusters.
    delta_qs = jittered(rng, 2 * count, 0.3, 0.8)
    for omega in _RESIDUE_OMEGAS:
        for q in (delta_qs if omega.startswith("deltaL2") else qs):
            items.append(Item(f"residue_extract({omega})",
                              lambda o=omega, q=q: spectral.residue_extract(o, q),
                              _check_report))
    for omega in _RESIDUE_OMEGAS:
        for lmax, q in zip(lmaxes, jittered(rng, len(lmaxes), 0.3, 0.8)):
            zs = sorted(jittered(rng, 2, 3.2, 4.0))
            items.append(Item(f"upsilon_scan({omega})",
                              lambda o=omega, q=q, zs=zs, lm=lmax:
                              spectral.upsilon_scan(o, q, zs, lm),
                              _check_rows))
    for k, (q, z) in enumerate(zip(qs, jittered(rng, count, 3.2, 4.0))):
        bigq = q / (1.0 - q * q)
        h_args = dict(x=0.5, y=bigq / math.sqrt(q), r=math.log(1.0 / q),
                      w=1 + k % 3)
        items.append(Item("mero_reference(h)",
                          lambda z=z, kw=h_args: mero.mero_reference("h", z, **kw),
                          _check_h))
        items.append(Item("mero_reference(f)",
                          lambda z=z, q=q: mero.mero_reference("f", z, q_value=q),
                          _check_f))
        for which in ("f1", "f2"):
            items.append(Item(f"mero_reference({which})",
                              lambda w=which, z=z, q=q: mero.mero_reference(
                                  w, z, q_value=q, lmax=2000),
                              _check_partials))
        items.append(Item("f_residue", lambda q=q: mero.f_residue(q),
                          _check_f_residue))
    rng.shuffle(items)
    return items


def _check_probe(out, lookup) -> Optional[str]:
    values = ([out.estimate, out.error_bar] if hasattr(out, "estimate")
              else [v for row in out for v in (row["partial_sum"],
                                               row["tail_bound"])])
    return None if _finite(*values) else "non-finite probe result"


#: CLI-accepted inputs that overflow today; run after timing, on purpose.
PROBES = [
    Item("probe residue_extract(identity, q=0.1)",
         lambda: spectral.residue_extract("identity", 0.1), _check_probe),
    Item("probe upsilon_scan(identity, q=0.5, lmax=1100)",
         lambda: spectral.upsilon_scan("identity", 0.5, [3.5], 1100),
         _check_probe),
]


def residue_numerics(rng: random.Random) -> Workload:
    return Workload(_residue_items(rng, 4, (100, 200, 300, 400)), PROBES)


BUILDERS = {
    "cochain-closure": cochain_closure,
    "peterweyl-operators": peterweyl_operators,
    "residue-numerics": residue_numerics,
}


def build(name: str, seed: int) -> Workload:
    return BUILDERS[name](random.Random(seed))
