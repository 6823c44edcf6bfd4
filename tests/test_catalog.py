import pytest

from bisetkit.catalog import (
    CATALOG_MAX_ORDER,
    entries,
    group_by_name,
    groups_of_order,
    groups_up_to,
)
from bisetkit.errors import OutOfCatalog
from bisetkit.groups import is_isomorphic, make_group, validate_table

# orders 1..15, classical classification
EXPECTED_COUNTS = [1, 1, 1, 2, 1, 2, 1, 5, 2, 2, 1, 5, 1, 2, 1]


def test_counts_per_order():
    for n, expect in zip(range(1, 16), EXPECTED_COUNTS):
        assert len(groups_of_order(n)) == expect, n


def test_out_of_range():
    with pytest.raises(OutOfCatalog):
        groups_of_order(16)
    with pytest.raises(OutOfCatalog):
        groups_of_order(0)


def test_prime_order_unique():
    for p in (2, 3, 5, 7, 11, 13):
        gs = groups_of_order(p)
        assert len(gs) == 1
        # oracle: every group of prime order is cyclic
        assert is_isomorphic(gs[0], make_group("cyclic", p)) is not None


def test_pairwise_non_isomorphic():
    for n in range(1, CATALOG_MAX_ORDER + 1):
        gs = groups_of_order(n)
        for i in range(len(gs)):
            for j in range(i + 1, len(gs)):
                assert is_isomorphic(gs[i], gs[j]) is None, (gs[i].label, gs[j].label)


def test_all_entries_valid_groups():
    for g in groups_up_to(CATALOG_MAX_ORDER):
        validate_table(g.table)


def test_order8_labels():
    assert [g.label for g in groups_of_order(8)] == \
        ["C8", "C4xC2", "C2xC2xC2", "D8", "Q8"]


def test_builders_are_memoized():
    assert group_by_name("Q8") is group_by_name("Q8")


def test_entry_listing():
    assert len(entries()) == sum(EXPECTED_COUNTS)
