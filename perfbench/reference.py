"""A fixed computation that measures how fast this machine runs right now.

On a shared machine the speed of a CPU changes by tens of percent from one
minute to the next.  Each chunk run times this reference between its
operations; dividing an operation's time by the median reference time of its
chunk run gives the operation's cost in "ref" units, which moves much less
with the machine's speed than seconds do.  The computation resembles hkr's
own work (permutation tuples in sets and dicts, orbit search, exact rational
elimination, and a table of many small objects built and then walked, as
hkr's caches and character tables are) so that contention slows both alike,
and it shares no code with hkr, so no change to hkr changes it.  Without the
table, the reference slowed by half as much again as hkr's operations when
the machine was busy, and the ref costs of a repeated chunk spread by 0.11
(coefficient of variation over 60 runs) rather than 0.08.
"""

from __future__ import annotations

import time
from fractions import Fraction

DEGREE = 40
RANK = 8
TABLE_ENTRIES = 15000


def reference() -> int:
    """Close the dihedral group of degree DEGREE, count its conjugacy classes,
    reduce a RANK x RANK rational matrix, and build and walk a table of
    TABLE_ENTRIES small entries; returns the class count."""
    m = DEGREE
    rot = tuple((i + 1) % m for i in range(m))
    ref = tuple((-i) % m for i in range(m))

    def mul(a, b):
        return tuple(b[x] for x in a)

    elems = {tuple(range(m))}
    frontier = list(elems)
    while frontier:
        nxt = []
        for g in frontier:
            for h in (rot, ref):
                x = mul(g, h)
                if x not in elems:
                    elems.add(x)
                    nxt.append(x)
        frontier = nxt
    inverse = {g: tuple(sorted(range(m), key=g.__getitem__)) for g in elems}
    seen, classes = set(), 0
    for g in sorted(elems):
        if g not in seen:
            classes += 1
            seen |= {mul(mul(inverse[h], g), h) for h in elems}

    M = [[Fraction((i * 7 + j * 3) % 11, 1 + (i + j) % 5) for j in range(RANK)] for i in range(RANK)]
    for c in range(RANK):
        pivot = next((i for i in range(c, RANK) if M[i][c]), None)
        if pivot is None:
            continue
        M[c], M[pivot] = M[pivot], M[c]
        for i in range(c + 1, RANK):
            f = M[i][c] / M[c][c]
            M[i] = [a - f * b for a, b in zip(M[i], M[c])]

    table = {(i % 977, i % 311, i): [i, 3 * i] for i in range(TABLE_ENTRIES)}
    checksum = 0
    for key, value in table.items():
        checksum ^= value[0] + key[1]
    return classes


def time_reference() -> float:
    start = time.perf_counter()
    reference()
    return time.perf_counter() - start
