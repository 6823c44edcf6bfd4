"""bisetkit: exact double Burnside ring and Green biset functor computations."""

from .groups import (
    FiniteGroup,
    GroupHom,
    Subgroup,
    SubgroupClass,
    double_cosets,
    is_isomorphic,
    make_group,
    mobius_int,
    product_group,
    quotient_group,
    subgroup,
    subgroup_classes,
    subgroups,
)
from .catalog import groups_of_order

__all__ = [
    "FiniteGroup",
    "GroupHom",
    "Subgroup",
    "SubgroupClass",
    "double_cosets",
    "groups_of_order",
    "is_isomorphic",
    "make_group",
    "mobius_int",
    "product_group",
    "quotient_group",
    "subgroup",
    "subgroup_classes",
    "subgroups",
]
