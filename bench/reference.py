"""Exact references computed without the snrecoupling package.

Characters come from the Frobenius formula (a coefficient of the Vandermonde
times a power-sum product), not from the border-strip recursion the package
uses, so a wrong character table in the package cannot also make its check
pass.  Two-row projected traces come from the Schur polynomial
s_lam(p, q) in exact rational arithmetic.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import permutations


def partitions(k: int, max_rows: int | None = None) -> list[tuple[int, ...]]:
    """Partitions of k with at most max_rows rows."""
    cap = k if max_rows is None else max_rows
    out = []

    def rec(rest, largest, prefix):
        if rest == 0:
            out.append(prefix)
        elif len(prefix) < cap:
            for part in range(min(rest, largest), 0, -1):
                rec(rest - part, part, prefix + (part,))

    rec(k, k, ())
    return out


@lru_cache(maxsize=None)
def sk_dim(lam: tuple[int, ...]) -> int:
    """Hook-length formula."""
    conj = [sum(1 for r in lam if r > j) for j in range(lam[0])]
    hooks = 1
    for i, row in enumerate(lam):
        for j in range(row):
            hooks *= row - j + conj[j] - i - 1
    return math.factorial(sum(lam)) // hooks


def _sign(perm) -> int:
    inversions = sum(1 for i in range(len(perm)) for j in range(i) if perm[j] > perm[i])
    return -1 if inversions % 2 else 1


@lru_cache(maxsize=None)
def character(lam: tuple[int, ...], cycle_type: tuple[int, ...]) -> int:
    """chi^lam(cycle_type): coefficient of x^(lam + delta) in a_delta * p_rho."""
    n = len(lam)
    target = tuple(lam[i] + n - 1 - i for i in range(n))
    poly = {(0,) * n: 1}
    for part in cycle_type:
        grown: dict[tuple[int, ...], int] = {}
        for mono, coeff in poly.items():
            for i in range(n):
                if mono[i] + part <= target[i]:
                    nxt = mono[:i] + (mono[i] + part,) + mono[i + 1:]
                    grown[nxt] = grown.get(nxt, 0) + coeff
        poly = grown
    total = 0
    for perm in permutations(range(n)):
        need = tuple(target[i] - (n - 1 - perm[i]) for i in range(n))
        if min(need) >= 0:
            total += _sign(perm) * poly.get(need, 0)
    return total


def _centralizer(cycle_type: tuple[int, ...]) -> int:
    z = 1
    for part in set(cycle_type):
        m = cycle_type.count(part)
        z *= part**m * math.factorial(m)
    return z


@lru_cache(maxsize=None)
def kronecker(alpha, beta, lam) -> int:
    """g(alpha, beta, lam) = sum over classes chi chi chi / z."""
    total = Fraction(0)
    for t in partitions(sum(lam)):
        total += Fraction(
            character(alpha, t) * character(beta, t) * character(lam, t), _centralizer(t)
        )
    assert total.denominator == 1 and total >= 0
    return int(total)


def multiplicity(alpha, beta, gamma, lam, middles) -> int:
    """sum over mu in middles of g(alpha, beta, mu) g(mu, gamma, lam)."""
    return sum(kronecker(alpha, beta, mu) * kronecker(mu, gamma, lam) for mu in middles)


def two_row_trace(lam: tuple[int, ...], p: Fraction) -> Fraction:
    """tr(P_lam rho^(x k)) for a qubit with spectrum (p, 1 - p): dim[lam] s_lam(p, q)."""
    k = sum(lam)
    a, b = (lam + (0,))[:2]
    q = 1 - p
    dim = math.comb(k, b) - (math.comb(k, b - 1) if b else 0)
    schur = (p * q) ** b * sum(p**i * q ** (a - b - i) for i in range(a - b + 1))
    return dim * schur


def l1_distance(lam: tuple[int, ...], spectrum: tuple[Fraction, ...]) -> Fraction:
    k = sum(lam)
    rows = list(lam) + [0] * (len(spectrum) - len(lam))
    return sum(abs(Fraction(r, k) - s) for r, s in zip(rows, spectrum))
