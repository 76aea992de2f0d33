"""A fixed reference kernel that measures the host's current speed.

The benchmark host is shared: its speed drifts by a third or more over
minutes, far beyond any bound a timing could be held to.  Timing this
kernel just before and just after each operation, on the CPU the
operation runs on, gives the speed the operation ran at, and times are
scaled to a host on which the kernel takes REFERENCE_S.

The kernel is a frozen copy of the shape of galring's hot path: ambient
products of length-8 polynomials over a GR(4,2)-like coefficient ring,
as tuples of tuples of small ints.  It imports nothing from galring, so
no change to the program can move it.
"""

from __future__ import annotations

from time import perf_counter

REFERENCE_S = 0.0015  # fastest of 3 kernel runs on the reference host: a 2-CPU sandbox at its usual speed

_Q = 4
_RED = (3, 3)  # u^2 = 3 + 3u in Z4[u] / <u^2 + u + 1>
_F = tuple((i % 4, (i * 3 + 1) % 4) for i in range(8))
_G = tuple(((i * 5 + 2) % 4, (i + 3) % 4) for i in range(8))
_GAMMAS = ((1, 1), (3, 1), (1, 2), (3, 3)) * 2


def _coeff_mul(x, y):
    prod = [0, 0, 0]
    for i, xi in enumerate(x):
        if xi:
            for j, yj in enumerate(y):
                prod[i + j] += xi * yj
    c = prod[2] % _Q
    if c:
        prod[0] += c * _RED[0]
        prod[1] += c * _RED[1]
    return (prod[0] % _Q, prod[1] % _Q)


def _coeff_add(x, y):
    return ((x[0] + y[0]) % _Q, (x[1] + y[1]) % _Q)


def _poly_mul(f, g, gamma):
    n = len(f)
    acc = [(0, 0)] * n
    for i, ci in enumerate(f):
        if not any(ci):
            continue
        for j, dj in enumerate(g):
            if not any(dj):
                continue
            prod = _coeff_mul(ci, dj)
            k = i + j
            if k >= n:
                k -= n
                prod = _coeff_mul(prod, gamma)
            acc[k] = _coeff_add(acc[k], prod)
    return tuple(acc)


def reference_seconds() -> float:
    """Wall time of one fixed run of the kernel."""
    t = perf_counter()
    seen = set()
    for gamma in _GAMMAS:
        seen.add(_poly_mul(_F, _G, gamma))
        seen.add(_poly_mul(_G, _F, gamma))
    return perf_counter() - t
