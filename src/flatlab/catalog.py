"""Named finite groups with standard exact presentations attached.

Every constructor returns a permutation group whose attached presentation is
known to present exactly that group, so hom enumeration from catalog groups
is sound.  Results are cached; callers share immutable instances.
"""

from __future__ import annotations

import re

from .errors import CatalogError
from .perm import Permutation
from .permgroup import PermGroup, direct_product
from .verbal import is_prime
from .words import Presentation, Word, _split_top_level

_cache: dict[tuple, PermGroup] = {}


def _cached(key: tuple, build) -> PermGroup:
    if key not in _cache:
        _cache[key] = build()
    return _cache[key]


def trivial_group() -> PermGroup:
    return _cached(
        ("trivial",),
        lambda: PermGroup(
            1, (), Presentation((), ()), presentation_exact=True, name="1"
        ),
    )


def cyclic(n: int) -> PermGroup:
    if n < 1:
        raise CatalogError(f"cyclic group needs n >= 1, got {n}")
    if n == 1:
        return trivial_group()

    def build():
        x = Permutation.from_cycles([list(range(n))], n)
        pres = Presentation(("x",), (Word.generator(0) ** n,))
        return PermGroup(n, (x,), pres, presentation_exact=True, name=f"C{n}")

    return _cached(("cyclic", n), build)


def dihedral(order: int) -> PermGroup:
    """Dihedral group of the given order (order = 2n, n >= 2)."""
    if order < 4 or order % 2:
        raise CatalogError(f"dihedral order must be even and >= 4, got {order}")
    n = order // 2
    x_w, y_w = Word.generator(0), Word.generator(1)
    pres = Presentation(
        ("x", "y"), (x_w**n, y_w**2, (y_w * x_w * y_w * x_w))
    )

    def build():
        if n == 2:
            x = Permutation.from_cycles([(0, 1)], 4)
            y = Permutation.from_cycles([(2, 3)], 4)
            return PermGroup(4, (x, y), pres, presentation_exact=True, name="D4")
        x = Permutation.from_cycles([list(range(n))], n)
        y = Permutation([(n - i) % n for i in range(n)])
        return PermGroup(n, (x, y), pres, presentation_exact=True, name=f"D{order}")

    return _cached(("dihedral", order), build)


def quaternion(order: int = 8) -> PermGroup:
    if order != 8:
        raise CatalogError("only the quaternion group of order 8 is cataloged")

    def build():
        # right multiplication on 1, i, -1, -i, j, -j, k, -k
        x = Permutation((1, 2, 3, 0, 7, 6, 4, 5))
        y = Permutation((4, 6, 5, 7, 2, 0, 3, 1))
        xw, yw = Word.generator(0), Word.generator(1)
        pres = Presentation(
            ("x", "y"),
            (xw**4, xw**2 * yw**-2, yw**-1 * xw * yw * xw),
        )
        return PermGroup(8, (x, y), pres, presentation_exact=True, name="Q8")

    return _cached(("quaternion", 8), build)


def symmetric(n: int) -> PermGroup:
    if not 1 <= n <= 5:
        raise CatalogError(f"symmetric group cataloged for n <= 5, got {n}")
    if n == 1:
        return trivial_group()
    if n == 2:
        return cyclic(2)

    def build():
        x = Permutation.from_cycles([list(range(n))], n)
        y = Permutation.from_cycles([(0, 1)], n)
        xw, yw = Word.generator(0), Word.generator(1)
        rels = [xw**n, yw**2, (xw * yw) ** (n - 1)]
        # Coxeter-Moser relations pin the order down for n = 5
        for k in range(2, n // 2 + 1):
            rels.append(Word.commutator(yw, xw**k) ** 2)
        pres = Presentation(("x", "y"), tuple(rels))
        return PermGroup(n, (x, y), pres, presentation_exact=True, name=f"S{n}")

    return _cached(("symmetric", n), build)


def alternating(n: int) -> PermGroup:
    if not 1 <= n <= 5:
        raise CatalogError(f"alternating group cataloged for n <= 5, got {n}")
    if n <= 2:
        return trivial_group()
    if n == 3:
        return cyclic(3)

    def build():
        x = Permutation.from_cycles([list(range(n))], n)  # n odd here (4 handled below)
        xw, yw = Word.generator(0), Word.generator(1)
        if n == 4:
            x = Permutation.from_cycles([(0, 1, 2)], 4)
            y = Permutation.from_cycles([(0, 1), (2, 3)], 4)
            pres = Presentation(("x", "y"), (xw**3, yw**2, (xw * yw) ** 3))
            return PermGroup(4, (x, y), pres, presentation_exact=True, name="A4")
        y = Permutation.from_cycles([(0, 1), (2, 3)], 5)
        pres = Presentation(("x", "y"), (xw**5, yw**2, (xw * yw) ** 3))
        return PermGroup(5, (x, y), pres, presentation_exact=True, name="A5")

    return _cached(("alternating", n), build)


def elementary_abelian(p: int, k: int) -> PermGroup:
    if not is_prime(p):
        raise CatalogError(f"elementary abelian base {p} is not prime")
    if k < 0:
        raise CatalogError("elementary abelian exponent must be >= 0")
    if k == 0:
        return trivial_group()

    def build():
        G = cyclic(p)
        for _ in range(k - 1):
            G = direct_product(G, cyclic(p))
        return PermGroup(
            G.degree,
            G.generators,
            G.presentation,
            presentation_exact=True,
            name=f"C{p}^{k}" if k > 1 else f"C{p}",
        )

    return _cached(("elementary", p, k), build)


def product(*groups: PermGroup, name: str | None = None) -> PermGroup:
    """The direct product, cached per (factors, name) like every catalog
    group, so it keeps its factors alive."""
    if not groups:
        return trivial_group()

    def build() -> PermGroup:
        G = groups[0]
        for H in groups[1:]:
            G = direct_product(G, H)
        if name is not None or G.name is None:
            G = PermGroup(
                G.degree,
                G.generators,
                G.presentation,
                presentation_exact=G.presentation_exact,
                name=name or "x".join(g.name or "?" for g in groups),
            )
        return G

    return _cached(("product", groups, name), build)


def catalog(name: str, *params: int) -> PermGroup:
    """Dispatch by name: cyclic n | dihedral 2n | quaternion 8 |
    symmetric n | alternating n | elementary p k | trivial."""
    table = {
        "trivial": lambda: trivial_group(),
        "cyclic": lambda: cyclic(*params),
        "dihedral": lambda: dihedral(*params),
        "quaternion": lambda: quaternion(*params) if params else quaternion(),
        "symmetric": lambda: symmetric(*params),
        "alternating": lambda: alternating(*params),
        "elementary": lambda: elementary_abelian(*params),
    }
    if name not in table:
        raise CatalogError(f"unknown catalog name {name!r}")
    try:
        return table[name]()
    except TypeError as exc:
        raise CatalogError(f"bad parameters {params} for {name!r}: {exc}") from None


_LITERAL = re.compile(r"^\s*([a-z]+)\s*(?:\(\s*([0-9,\s]*)\s*\))?\s*$")


def parse_group_literal(text: str) -> PermGroup:
    """Parse ``cyclic(4)``, ``dihedral(8)``, ``product(cyclic(2),dihedral(8))``,
    ``elementary(2,3)``, ``trivial`` ..."""
    text = text.strip()
    if text.startswith("product(") and text.endswith(")"):
        parts = _split_top_level(text[len("product(") : -1])
        return product(*(parse_group_literal(p) for p in parts))
    m = _LITERAL.match(text)
    if not m:
        raise CatalogError(f"bad group literal {text!r}")
    name = m.group(1)
    params = tuple(
        int(tok) for tok in (m.group(2) or "").replace(",", " ").split()
    )
    return catalog(name, *params)


def default_battery(max_order: int | None = None) -> list[PermGroup]:
    """The pinned test battery the suites and searches quantify over.

    Deliberately sized so exhaustive normal-subgroup + pullback sweeps stay
    inside the acceptance-time budget; see README for the list.
    """
    groups = [
        trivial_group(),
        cyclic(2),
        cyclic(3),
        cyclic(4),
        elementary_abelian(2, 2),
        cyclic(5),
        cyclic(6),
        symmetric(3),
        cyclic(8),
        product(cyclic(2), cyclic(4), name="C2xC4"),
        elementary_abelian(2, 3),
        dihedral(8),
        quaternion(8),
        cyclic(9),
        elementary_abelian(3, 2),
        cyclic(12),
        dihedral(12),
        alternating(4),
        cyclic(16),
        dihedral(16),
        symmetric(4),
        alternating(5),
        cyclic(64),
    ]
    if max_order is not None:
        groups = [g for g in groups if g.order() <= max_order]
    return groups
