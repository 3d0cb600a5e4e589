"""Generic rewrite-system normalizer for words in a, b, c, d.

This is the deliberately naive second route to normal forms: represent an
element as a dict of letter-words, repeatedly rewrite the leftmost
out-of-order adjacent pair using the defining relations, and stop when
every word is ordered (and free of ad/da pairs).  It shares no code with
the structured product in :mod:`suq2.algebra`, which is the point — the
two implementations cross-check each other term by term.
"""

from __future__ import annotations

from typing import Dict

from .algebra import AlgebraElement, Monomial
from .scalars import ONE, ZERO, Scalar

# Each rule: bad adjacent pair -> list of (replacement word, coefficient).
_Q = Scalar.q_pow(1)
_QI = Scalar.q_pow(-1)
_RULES = {
    "ba": (("ab", _QI),),
    "ca": (("ac", _QI),),
    "cb": (("bc", ONE),),
    "db": (("bd", _QI),),
    "dc": (("cd", _QI),),
    "ad": (("", ONE), ("bc", _Q)),
    "da": (("", ONE), ("bc", _QI)),
}


def _first_redex(word: str) -> int:
    for i in range(len(word) - 1):
        if word[i:i + 2] in _RULES:
            return i
    return -1


def rewrite_normal_form(word: str) -> AlgebraElement:
    """Normal form of a generator word, computed by exhaustive rewriting."""
    state: Dict[str, Scalar] = {"".join(word.split()): ONE}
    done: Dict[str, Scalar] = {}
    while state:
        w, coeff = state.popitem()
        i = _first_redex(w)
        if i < 0 and "a" in w and "d" in w:
            # Sorted but mixes a and d: commute the first d leftward past
            # the b/c block (x d = q d x for x in {b, c}) to expose "ad",
            # which the elimination rule then removes.
            ia = w.rindex("a")
            jd = w.index("d")
            block = w[ia + 1:jd]
            w = w[:ia + 1] + "d" + block + w[jd + 1:]
            coeff = coeff * Scalar.q_pow(len(block))
            i = _first_redex(w)
        if i < 0:
            tot = done.get(w, ZERO) + coeff
            if tot.is_zero():
                done.pop(w, None)
            else:
                done[w] = tot
            continue
        for repl, factor in _RULES[w[i:i + 2]]:
            nw = w[:i] + repl + w[i + 2:]
            tot = state.get(nw, ZERO) + coeff * factor
            if tot.is_zero():
                state.pop(nw, None)
            else:
                state[nw] = tot
    terms: Dict[Monomial, Scalar] = {}
    for w, coeff in done.items():
        m = Monomial(w.count("a"), w.count("b"), w.count("c"), w.count("d"))
        tot = terms.get(m, ZERO) + coeff
        if tot.is_zero():
            terms.pop(m, None)
        else:
            terms[m] = tot
    return AlgebraElement(terms)
