"""The number theory behind the initial-algebra specification of Q0: every
residue mod a prime p is a sum of two squares, and some w * p equals
u^2 + v^2 + 1.  It imports nothing from the package.
"""

from functools import lru_cache

__all__ = ["is_prime", "two_squares", "corollary_witness"]


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


@lru_cache(maxsize=8)
def _sqrt_table(p: int) -> dict[int, int]:
    """Map each square mod the prime p to its smallest square root.

    Cached, so a sweep over the residues of one prime checks primality
    and builds the table once.  Callers must not mutate the result.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    table: dict[int, int] = {}
    for w in range(p - 1, -1, -1):
        table[w * w % p] = w
    return table


def two_squares(p: int, u: int) -> tuple[int, int]:
    """Find (v, w) with v^2 + w^2 = u in Z_p, smallest v first.

    Such a pair exists for every residue u of every prime p.  The search
    is equivalent to scanning pairs (v, w) in row-major order.
    """
    roots = _sqrt_table(p)
    if not 0 <= u < p:
        raise ValueError(f"{u} is not a residue mod {p}")
    for v in range(p):
        w = roots.get((u - v * v) % p)
        if w is not None:
            return v, w
    raise AssertionError(f"no two-square decomposition of {u} mod {p}")


def corollary_witness(p: int) -> tuple[int, int, int]:
    """Find naturals (u, v, w) with u, v < p and u^2 + v^2 + 1 = w * p.

    Exists for every prime p because -1 is a sum of two squares mod p;
    (u, v) is two_squares(p, p - 1), so the smallest u comes first.
    """
    u, v = two_squares(p, p - 1)
    return u, v, (u * u + v * v + 1) // p
