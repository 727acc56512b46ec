#!/usr/bin/env python3
"""Sweep all 256 three-variable functions in algebraic normal form.

For each function with at least one degree->=2 monomial, print whether a
weak copy can be boosted with a strict subset of the from-scratch channels,
together with both channel counts.
"""

import itertools

from nsboxes.boolfn import AnfFunction, nonlocal_support
from nsboxes.commcost import amplifiable, n_scratch, plan


def main():
    all_monomials = [
        frozenset(s)
        for k in range(4)
        for s in itertools.combinations((1, 2, 3), k)
    ]
    total = 0
    boosted = 0
    print(f"{'function':<42} {'n_J':>3} {'scratch':>7} {'boost':>5}")
    for mask in range(2 ** len(all_monomials)):
        monos = [m for bit, m in enumerate(all_monomials) if mask >> bit & 1]
        f = AnfFunction(3, monos)
        support = nonlocal_support(f)
        if not support.j_set:
            continue
        total += 1
        verdict = amplifiable(f)
        if verdict:
            boosted += 1
            p = plan(f)
            print(f"{f.to_text():<42} {support.n_j:>3} {p.n_scratch:>7} {p.n_distill:>5}")
        else:
            print(f"{f.to_text():<42} {support.n_j:>3} {n_scratch(f):>7} {'--':>5}")
    print(f"\n{boosted} of {total} functions with nonlocal support are amplifiable")


if __name__ == "__main__":
    main()
