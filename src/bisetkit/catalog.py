"""The fixed catalog of all isomorphism types of groups of order <= 15.

Counts per order 1..15 are the classical 1,1,1,2,1,2,1,5,2,2,1,5,1,2,1.
Entries are hardcoded recipes over make_group and direct products; nothing is
generated on the fly. Builders are memoized, so repeated lookups return
identical FiniteGroup objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .errors import OutOfCatalog
from .groups import FiniteGroup, make_group, product_group

CATALOG_MAX_ORDER = 15


@dataclass(frozen=True)
class CatalogEntry:
    order: int
    name: str
    builder: Callable[[], FiniteGroup]

    def build(self) -> FiniteGroup:
        return self.builder()


def _cyclic(n: int) -> Callable[[], FiniteGroup]:
    return lambda: make_group("cyclic", n)


def _dihedral(order: int) -> Callable[[], FiniteGroup]:
    return lambda: make_group("dihedral", order)


def _prod(*parts: Callable[[], FiniteGroup]) -> Callable[[], FiniteGroup]:
    return lambda: product_group(*[p() for p in parts])


_ENTRIES: list[CatalogEntry] = [
    CatalogEntry(1, "C1", _cyclic(1)),
    CatalogEntry(2, "C2", _cyclic(2)),
    CatalogEntry(3, "C3", _cyclic(3)),
    CatalogEntry(4, "C4", _cyclic(4)),
    CatalogEntry(4, "V4", lambda: make_group("klein4")),
    CatalogEntry(5, "C5", _cyclic(5)),
    CatalogEntry(6, "C6", _cyclic(6)),
    CatalogEntry(6, "S3", lambda: make_group("symmetric3")),
    CatalogEntry(7, "C7", _cyclic(7)),
    CatalogEntry(8, "C8", _cyclic(8)),
    CatalogEntry(8, "C4xC2", _prod(_cyclic(4), _cyclic(2))),
    CatalogEntry(8, "C2xC2xC2", _prod(_cyclic(2), _cyclic(2), _cyclic(2))),
    CatalogEntry(8, "D8", _dihedral(8)),
    CatalogEntry(8, "Q8", lambda: make_group("quaternion8")),
    CatalogEntry(9, "C9", _cyclic(9)),
    CatalogEntry(9, "C3xC3", _prod(_cyclic(3), _cyclic(3))),
    CatalogEntry(10, "C10", _cyclic(10)),
    CatalogEntry(10, "D10", _dihedral(10)),
    CatalogEntry(11, "C11", _cyclic(11)),
    CatalogEntry(12, "C12", _cyclic(12)),
    CatalogEntry(12, "C6xC2", _prod(_cyclic(6), _cyclic(2))),
    CatalogEntry(12, "D12", _dihedral(12)),
    CatalogEntry(12, "A4", lambda: make_group("alternating4")),
    CatalogEntry(12, "Dic3", lambda: make_group("dicyclic3")),
    CatalogEntry(13, "C13", _cyclic(13)),
    CatalogEntry(14, "C14", _cyclic(14)),
    CatalogEntry(14, "D14", _dihedral(14)),
    CatalogEntry(15, "C15", _cyclic(15)),
]


def entries() -> list[CatalogEntry]:
    return list(_ENTRIES)


def groups_of_order(n: int) -> list[FiniteGroup]:
    """One representative per isomorphism class of order n, deterministic order."""
    if n < 1 or n > CATALOG_MAX_ORDER:
        raise OutOfCatalog(f"order {n} outside the catalog range 1..{CATALOG_MAX_ORDER}")
    return [e.build() for e in _ENTRIES if e.order == n]


def groups_up_to(n: int) -> list[FiniteGroup]:
    out = []
    for k in range(1, n + 1):
        out.extend(groups_of_order(k))
    return out


def group_by_name(name: str) -> FiniteGroup:
    """Resolve a catalog name; raises OutOfCatalog for unknown names."""
    for e in _ENTRIES:
        if e.name == name:
            return e.build()
    raise OutOfCatalog(f"no catalog group named {name!r}")
