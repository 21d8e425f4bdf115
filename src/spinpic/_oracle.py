"""The facts that verify checks the engine against, written apart from the engine.

Each fact is one plain function of the genus over ints, strs and
Fractions, and this module imports only the standard library: it reads
neither picard's label table nor a closed form nor the kernel, so a fault
there cannot reach the side of a check that this module writes. verify is
its one importer in the package; the Tier-1 suite reads `basis` as its
spelling of the labels too. bench/reference.py stays a separate copy, the
benchmark's own.
"""

from fractions import Fraction
from math import gcd, isqrt


def basis(g: int, side: str) -> tuple[str, ...]:
    """Genus g's basis labels on side "M" or "S", in order, spelled here; any other side has none."""
    h = g // 2
    if side == "M":
        return ("lambda", *(f"d{i}" for i in range(h + 1)))
    if side == "S":
        return ("lambda", "a0", "b0s", *(label for i in range(1, h + 1) for label in (f"a{i}", f"b{i}")))
    return ()


def curve_table(g: int) -> dict[str, tuple[str, dict[str, int]]]:
    """Each test curve's side and stored intersection numbers: a copy of the pencil tables."""
    table: dict[str, tuple[str, dict[str, int]]] = {
        "B": ("M", {"lambda": g + 1, "d0": 6 * g + 18}),
        "R": (
            "S",
            {
                "lambda": (g + 1) * 2 ** (g - 1) * (2**g + 1),
                "a0": (6 * g + 18) * 2 ** (2 * g - 2),
                "b0s": (6 * g + 18) * 2 ** (g - 2) * (2 ** (g - 1) + 1),
            },
        ),
        "F0": ("S", {"lambda": 1, "a0": 12, "b1": -1}),
        "G0": ("S", {"lambda": 3, "a0": 12, "b0s": 12, "a1": -3}),
        "H0": ("S", {"b0s": 1 - g, "a1": 1}),
    }
    for i in range(1, g // 2 + 1):
        table[f"F{i}"] = ("S", {f"a{i}": 2 - 2 * i})
        table[f"G{i}"] = ("S", {f"b{i}": 2 - 2 * i})
    return table


def slope(g: int) -> tuple[bool, Fraction]:
    """The slope of genus g's D as (whether g+1 is composite, the bound): Brill-Noether 6 + 12/(g+1) for
    composite g+1, K3 7 at g = 10, Gieseker-Petri (6k^2+k-6)/(k(k-1)) at g = 2k-2 otherwise."""
    if g == 10:
        return False, Fraction(7)
    if any((g + 1) % p == 0 for p in range(2, isqrt(g + 1) + 1)):
        return True, 6 + Fraction(12, g + 1)
    k = g // 2 + 1
    return False, Fraction(6 * k * k + k - 6, k * (k - 1))


def pq(n: int, d: int) -> str:
    """n/d for d >= 1 as "p/q" in lowest terms, or "p" over 1: a writer apart from picard._ratios."""
    k = gcd(n, d)
    return f"{n // k}" if k == d else f"{n // k}/{d // k}"
