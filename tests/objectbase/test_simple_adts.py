"""Unit tests for the register, counter and bank-account data types."""

from repro.core import LocalStep, ObjectState
from repro.objectbase.adts.bank_account import (
    BankAccountConflicts,
    BankAccountStepConflicts,
    Deposit,
    GetBalance,
    Withdraw,
    bank_account_definition,
)
from repro.objectbase.adts.counter import AddToCounter, CounterConflicts, GetCount, counter_definition
from repro.objectbase.adts.register import (
    ReadRegister,
    RegisterConflicts,
    WriteRegister,
    register_definition,
)


def step(object_name, operation, value):
    return LocalStep("e", object_name, operation, value)


class TestRegister:
    def test_read_and_write_semantics(self):
        state = register_definition("r", 5).initial_state
        value, state = ReadRegister().apply(state)
        assert value == 5
        written, state = WriteRegister(9).apply(state)
        assert written == 9
        assert state["value"] == 9

    def test_conflict_matrix(self):
        spec = RegisterConflicts()
        assert not spec.operations_conflict(ReadRegister(), ReadRegister())
        assert spec.operations_conflict(ReadRegister(), WriteRegister(1))
        assert spec.operations_conflict(WriteRegister(1), WriteRegister(2))

    def test_definition_methods(self):
        definition = register_definition("r")
        assert set(definition.methods) == {"read", "write"}


class TestCounter:
    def test_add_returns_none_and_updates_count(self):
        state = counter_definition("c", 10).initial_state
        value, state = AddToCounter(5).apply(state)
        assert value is None
        assert state["count"] == 15
        current, _ = GetCount().apply(state)
        assert current == 15

    def test_blind_additions_commute(self):
        spec = CounterConflicts()
        assert not spec.operations_conflict(AddToCounter(1), AddToCounter(2))
        assert spec.operations_conflict(AddToCounter(1), GetCount())
        assert not spec.operations_conflict(GetCount(), GetCount())

    def test_subtract_method_negates_amount(self):
        definition = counter_definition("c", 10)
        assert set(definition.methods) == {"add", "subtract", "get"}


class TestBankAccount:
    def test_deposit_and_withdraw_semantics(self):
        state = bank_account_definition("a", 50).initial_state
        value, state = Deposit(25).apply(state)
        assert value is None
        assert state["balance"] == 75
        success, state = Withdraw(70).apply(state)
        assert success is True
        assert state["balance"] == 5
        failure, state = Withdraw(70).apply(state)
        assert failure is False
        assert state["balance"] == 5
        balance, _ = GetBalance().apply(state)
        assert balance == 5

    def test_operation_level_conflicts_are_conservative(self):
        spec = BankAccountConflicts()
        assert not spec.operations_conflict(Deposit(1), Deposit(2))
        assert spec.operations_conflict(Deposit(1), Withdraw(2))
        assert spec.operations_conflict(Withdraw(1), Withdraw(2))
        assert spec.operations_conflict(GetBalance(), Deposit(1))
        assert not spec.operations_conflict(GetBalance(), GetBalance())

    def test_step_level_exploits_withdraw_outcomes(self):
        spec = BankAccountStepConflicts()
        deposit = step("a", Deposit(10), None)
        successful = step("a", Withdraw(5), True)
        failed = step("a", Withdraw(500), False)
        # Withdrawal first, deposit second: the success cannot be undone.
        assert not spec.steps_conflict(successful, deposit)
        # Deposit first, successful withdrawal second: the success may owe
        # itself to the deposit, so the pair conflicts.
        assert spec.steps_conflict(deposit, successful)
        # A withdrawal that failed despite the deposit commutes with it; the
        # other order does not.
        assert not spec.steps_conflict(deposit, failed)
        assert spec.steps_conflict(failed, deposit)
        # Equal-outcome withdrawals commute; success-then-failure does not.
        assert not spec.steps_conflict(successful, step("a", Withdraw(3), True))
        assert spec.steps_conflict(successful, failed)
        assert not spec.steps_conflict(failed, successful)
        # Reads commute with failed withdrawals only.
        read = step("a", GetBalance(), 100)
        assert not spec.steps_conflict(read, failed)
        assert spec.steps_conflict(read, successful)

    def test_step_level_matches_definition_3_semantics(self):
        # Spot-check the declared step-level commutations against the actual
        # operational semantics on a concrete state.
        from repro.core import steps_commute_on_state

        state = ObjectState({"balance": 100})
        deposit = step("a", Deposit(10), None)
        successful = step("a", Withdraw(40), True)
        assert steps_commute_on_state(successful, deposit, state)

    def test_definition_lists_expected_methods(self):
        definition = bank_account_definition("a", 100)
        assert set(definition.methods) == {"deposit", "withdraw", "balance"}
        assert definition.initial_state["balance"] == 100
