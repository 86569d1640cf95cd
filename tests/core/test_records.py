"""The one store of granted steps (``repro.core.records.StepRecords``)."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.records import StepRecords


def contents(records, objects=("a", "b", "c")):
    return {name: list(records.on(name)) for name in objects}


class TestStepRecords:
    def test_order_survives_drops_and_re_adds(self):
        records = StepRecords()
        records.add("a", "T1", "a1")
        records.add("a", "T2", "a2")
        records.add("a", "T1", "a3")
        records.add("a", "T3", "a4")
        assert list(records.on("a")) == [("T1", "a1"), ("T2", "a2"), ("T1", "a3"), ("T3", "a4")]
        assert records.drop("T1") == 2
        assert list(records.on("a")) == [("T2", "a2"), ("T3", "a4")]
        # A re-added transaction's steps come after everything granted earlier.
        records.add("a", "T1", "a5")
        records.add("a", "T2", "a6")
        assert [record for _, record in records.on("a")] == ["a2", "a4", "a5", "a6"]

    def test_drop_touches_only_the_dropped_transactions_objects(self):
        records = StepRecords()
        records.add("a", "T1", "a1")
        records.add("b", "T2", "b1")
        records.add("c", "T2", "c1")
        untouched = records.on("b")  # a live view of b's records
        assert records.drop("T1") == 1
        assert contents(records) == {"a": [], "b": [("T2", "b1")], "c": [("T2", "c1")]}
        assert set(records._on) == {"b", "c"} and set(records._of) == {"T2"}
        # b's records were not rebuilt: the view taken before still shows them.
        records.add("b", "T3", "b2")
        assert list(untouched) == [("T2", "b1"), ("T3", "b2")]
        assert records.drop("T1") == 0 and records.drop("unknown") == 0

    def test_unknown_object_reads_empty_and_records_nothing(self):
        records = StepRecords()
        assert list(records.on("a")) == [] and len(records) == 0
        assert records._on == {} and records._of == {}
        records.add("a", "T1", "a1")
        records.drop("T1")
        assert list(records.on("a")) == [] and len(records) == 0
        assert records._on == {} and records._of == {}

    def test_retain_asks_once_per_transaction_and_returns_exact_counts(self):
        records = StepRecords()
        for number in range(6):  # T0: 0, 3; T1: 1, 4; T2: 2, 5
            records.add("ab"[number % 2], f"T{number % 3}", number)
        asked = []

        def keep(transaction, record):
            asked.append((transaction, record))
            return transaction != "T0"

        assert records.retain(keep) == 2
        # Each transaction is asked about with its earliest record.
        assert asked == [("T0", 0), ("T1", 1), ("T2", 2)]
        assert contents(records, "ab") == {"a": [("T2", 2), ("T1", 4)], "b": [("T1", 1), ("T2", 5)]}
        assert records.retain(lambda transaction, record: True) == 0
        # retain kept each survivor filed under its transaction.
        assert records.drop("T1") == 2 and records.drop("T2") == 2
        assert records.drop("T0") == 0 and len(records) == 0
        assert records.retain(lambda transaction, record: False) == 0
        assert records._on == {} and records._of == {}

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.tuples(st.just("add"), st.sampled_from("abc"), st.sampled_from(["T1", "T2", "T3"])),
                st.tuples(st.just("drop"), st.sampled_from(["T1", "T2", "T3"])),
                st.tuples(st.just("retain"), st.integers(0, 3)),
            ),
            max_size=40,
        )
    )
    def test_len_and_order_track_every_add_and_removal(self, actions):
        # Reference model: one grant-ordered list of (object, transaction, record).
        records, model = StepRecords(), []
        for number, action in enumerate(actions):
            if action[0] == "add":
                records.add(action[1], action[2], number)
                model.append((action[1], action[2], number))
            elif action[0] == "drop":
                kept = [entry for entry in model if entry[1] != action[1]]
                assert records.drop(action[1]) == len(model) - len(kept)
                model = kept
            else:
                # A transaction goes when its earliest record is rejected.
                earliest: dict[str, int] = {}
                for _, transaction, record in model:
                    earliest.setdefault(transaction, record)
                dropped = {t for t, record in earliest.items() if record % 4 == action[1]}
                kept = [entry for entry in model if entry[1] not in dropped]
                removed = records.retain(lambda transaction, record: record % 4 != action[1])
                assert removed == len(model) - len(kept)
                model = kept
            assert len(records) == len(model)
            assert contents(records) == {
                name: [(entry[1], entry[2]) for entry in model if entry[0] == name] for name in "abc"
            }
            # Only objects and transactions that still hold records keep an entry.
            assert set(records._on) == {entry[0] for entry in model}
            assert set(records._of) == {entry[1] for entry in model}
