"""Unit tests for hierarchical timestamps and the timestamp authority."""

from repro.scheduler.timestamps import HierarchicalTimestamp, TimestampAuthority


class TestHierarchicalTimestamp:
    def test_lexicographic_order(self):
        assert HierarchicalTimestamp((1,)) < HierarchicalTimestamp((2,))
        assert HierarchicalTimestamp((1, 5)) < HierarchicalTimestamp((2,))
        assert HierarchicalTimestamp((1,)) < HierarchicalTimestamp((1, 1))
        assert HierarchicalTimestamp((2, 1)) > HierarchicalTimestamp((1, 9))

    def test_child_extends_components(self):
        parent = HierarchicalTimestamp((3,))
        assert parent.child(2).components == (3, 2)

    def test_prefix_detection(self):
        parent = HierarchicalTimestamp((3,))
        child = parent.child(1)
        grandchild = child.child(4)
        assert parent.is_prefix_of(grandchild)
        assert child.is_prefix_of(grandchild)
        assert not grandchild.is_prefix_of(parent)
        assert parent.is_prefix_of(parent)

    def test_level_and_repr(self):
        timestamp = HierarchicalTimestamp((1, 2, 3))
        assert timestamp.level() == 3
        assert "1.2.3" in repr(timestamp)


class TestTimestampAuthority:
    def test_top_level_timestamps_increase(self):
        authority = TimestampAuthority()
        first = authority.assign_top_level("T1")
        second = authority.assign_top_level("T2")
        assert first < second

    def test_children_ordered_by_issue_order(self):
        authority = TimestampAuthority()
        authority.assign_top_level("T1")
        first_child = authority.assign_child("T1", "T1.1")
        second_child = authority.assign_child("T1", "T1.2")
        assert first_child < second_child
        assert authority.timestamp_of("T1").is_prefix_of(first_child)

    def test_grandchildren_nest_under_children(self):
        authority = TimestampAuthority()
        authority.assign_top_level("T1")
        authority.assign_child("T1", "T1.1")
        grandchild = authority.assign_child("T1.1", "T1.1.1")
        assert authority.timestamp_of("T1.1").is_prefix_of(grandchild)
        # A later top-level transaction is ordered after every descendant of
        # an earlier one.
        later = authority.assign_top_level("T2")
        assert grandchild < later

    def test_knows_and_forget(self):
        authority = TimestampAuthority()
        authority.assign_top_level("T1")
        authority.assign_child("T1", "T1.1")
        assert authority.knows("T1.1")
        authority.forget_subtree(["T1.1"])
        assert not authority.knows("T1.1")
        assert authority.knows("T1")
