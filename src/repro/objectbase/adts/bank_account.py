"""Bank account abstract data type.

The account exposes ``Deposit`` (blind, returns ``None``), ``Withdraw``
(conditional on sufficient funds, returns a success flag) and
``GetBalance``.  The type is the workhorse of the banking workloads and is
a good illustration of the paper's step-level (return-value aware) conflict
refinement:

* two deposits always commute;
* a *successful* withdrawal followed by a deposit commutes (depositing
  afterwards cannot invalidate the success), and so does a deposit followed
  by a *failed* withdrawal (if it failed even with the extra money it would
  have failed without it);
* the opposite orders conflict: a deposit followed by a successful
  withdrawal may owe its success to the deposit, and a failed withdrawal
  followed by a deposit might have succeeded had the deposit come first;
* two successful (or two failed) withdrawals commute; mixed outcomes only
  commute when the failure came first.

Note the asymmetry — Definition 3's commutativity relation is directional,
and the step-level table below follows the convention that
``steps_conflict(first, second)`` refers to ``first`` having executed
before ``second``.  The operation-level specification must assume the worst
case and therefore declares ``Deposit``/``Withdraw`` and
``Withdraw``/``Withdraw`` conflicting outright.
"""

from __future__ import annotations

from typing import Any

from ...core.conflicts import ConflictSpec
from ...core.operations import LocalOperation, LocalStep
from ...core.state import ObjectState
from ..base import ObjectDefinition, single_operation_method

BALANCE_VARIABLE = "balance"


class Deposit(LocalOperation):
    """Add ``amount`` to the balance; returns ``None``."""

    name = "Deposit"

    def __init__(self, amount: float):
        super().__init__(amount)
        self.amount = amount

    def apply(self, state: ObjectState) -> tuple[Any, ObjectState]:
        balance = state.get(BALANCE_VARIABLE, 0)
        return None, state.set(BALANCE_VARIABLE, balance + self.amount)

    def read_set(self) -> frozenset[str]:
        return frozenset({BALANCE_VARIABLE})

    def write_set(self) -> frozenset[str]:
        return frozenset({BALANCE_VARIABLE})


class Withdraw(LocalOperation):
    """Remove ``amount`` if the balance allows it; returns ``True``/``False``."""

    name = "Withdraw"

    def __init__(self, amount: float):
        super().__init__(amount)
        self.amount = amount

    def apply(self, state: ObjectState) -> tuple[Any, ObjectState]:
        balance = state.get(BALANCE_VARIABLE, 0)
        if balance >= self.amount:
            return True, state.set(BALANCE_VARIABLE, balance - self.amount)
        return False, state

    def read_set(self) -> frozenset[str]:
        return frozenset({BALANCE_VARIABLE})

    def write_set(self) -> frozenset[str]:
        return frozenset({BALANCE_VARIABLE})


class GetBalance(LocalOperation):
    """Return the current balance."""

    name = "GetBalance"

    def apply(self, state: ObjectState) -> tuple[Any, ObjectState]:
        return state.get(BALANCE_VARIABLE, 0), state

    def read_set(self) -> frozenset[str]:
        return frozenset({BALANCE_VARIABLE})

    def write_set(self) -> frozenset[str]:
        return frozenset()


class BankAccountConflicts(ConflictSpec):
    """Operation-level (conservative) conflicts for the account."""

    def operations_conflict(self, first: LocalOperation, second: LocalOperation) -> bool:
        pair = (first.name, second.name)
        if pair == ("Deposit", "Deposit"):
            return False
        if pair == ("GetBalance", "GetBalance"):
            return False
        return True


class BankAccountStepConflicts(BankAccountConflicts):
    """Step-level refinement exploiting ``Withdraw`` return values.

    ``steps_conflict(first, second)`` assumes ``first`` executed before
    ``second`` and answers whether transposing them could change a return
    value or the final balance (Definition 3).
    """

    def steps_conflict(self, first: LocalStep, second: LocalStep) -> bool:
        names = (first.operation.name, second.operation.name)
        outcomes = (first.return_value, second.return_value)
        if names == ("Deposit", "Deposit") or names == ("GetBalance", "GetBalance"):
            return False
        if names == ("Withdraw", "Deposit"):
            # A successful withdrawal is unaffected by a later deposit; a
            # failed one might have succeeded had the deposit come first.
            return outcomes[0] is not True
        if names == ("Deposit", "Withdraw"):
            # A withdrawal that failed despite the deposit would also fail
            # without it; a successful one may owe its success to the money.
            return outcomes[1] is not False
        if names == ("Withdraw", "Withdraw"):
            # Equal outcomes commute; success-then-failure does not (the
            # failure might have succeeded had it gone first).
            return outcomes[0] is True and outcomes[1] is False
        if names == ("GetBalance", "Withdraw") or names == ("Withdraw", "GetBalance"):
            # A failed withdrawal leaves the balance unchanged, so the read
            # is unaffected; a successful one conflicts with the read.
            withdraw_outcome = outcomes[names.index("Withdraw")]
            return withdraw_outcome is not False
        return self.operations_conflict(first.operation, second.operation)


def bank_account_definition(name: str, initial_balance: float = 0) -> ObjectDefinition:
    """Create a bank-account object with deposit/withdraw/balance methods."""
    definition = ObjectDefinition(
        name=name,
        initial_state=ObjectState({BALANCE_VARIABLE: initial_balance}),
        operation_conflicts=BankAccountConflicts(),
        step_conflicts=BankAccountStepConflicts(),
    )
    definition.add_method(single_operation_method("deposit", Deposit))
    definition.add_method(single_operation_method("withdraw", Withdraw))
    definition.add_method(single_operation_method("balance", GetBalance))
    return definition
