"""Banking workload: nested transfers over bank-account objects.

The object base contains ``accounts`` bank-account objects, one branch
counter per branch, and one *teller* object per branch whose ``transfer``
method encapsulates the move-money logic — so a user transaction
("transfer", "payroll", "audit") always runs as a nested transaction at
least three levels deep (environment → teller → accounts), which is the
structure the paper's model is about.

Transaction mix
---------------

* ``transfer`` — invoke a teller to move a random amount between two
  accounts; the teller withdraws from the source and deposits into the
  destination only when the withdrawal succeeded.
* ``payroll`` — deposit a salary into several accounts *in parallel*
  (internal parallelism: the deposits are issued as parallel messages).
* ``audit`` — read the balances of a sample of accounts and compare their
  sum with the branch counters (a read-only transaction).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterator

from ...core.errors import WorkloadError
from ...objectbase.adts.bank_account import bank_account_definition
from ...objectbase.adts.counter import counter_definition
from ...objectbase.base import MethodDefinition, ObjectBase, ObjectDefinition
from ..transactions import TransactionSpec
from .base import Workload


def _account_name(index: int) -> str:
    return f"account-{index:03d}"


def _teller_name(branch: int) -> str:
    return f"teller-{branch}"


def _branch_counter_name(branch: int) -> str:
    return f"branch-total-{branch}"


@dataclass
class BankingWorkload(Workload):
    """Parameterised generator of the banking object base and transactions."""

    accounts: int = 16
    branches: int = 2
    transactions: int = 32
    initial_balance: float = 100.0
    transfer_fraction: float = 0.6
    payroll_fraction: float = 0.2
    payroll_width: int = 3
    audit_sample: int = 4
    hot_fraction: float = 0.0
    seed: int = 0
    _rng: random.Random = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.accounts < 2:
            raise WorkloadError("the banking workload needs at least two accounts")
        if not 0 <= self.transfer_fraction + self.payroll_fraction <= 1:
            raise WorkloadError("transaction mix fractions must sum to at most 1")
        self._rng = random.Random(self.seed)

    # -- object base -------------------------------------------------------------

    def build_object_base(self) -> ObjectBase:
        base = ObjectBase()
        for index in range(self.accounts):
            base.register(bank_account_definition(_account_name(index), self.initial_balance))
        for branch in range(self.branches):
            base.register(
                counter_definition(
                    _branch_counter_name(branch),
                    self.initial_balance * self._accounts_in_branch(branch),
                )
            )
            base.register(self._teller_definition(branch))
        self._register_transactions(base)
        return base

    def _accounts_in_branch(self, branch: int) -> int:
        return len([index for index in range(self.accounts) if index % self.branches == branch])

    def _teller_definition(self, branch: int) -> ObjectDefinition:
        definition = ObjectDefinition(name=_teller_name(branch))

        def transfer(ctx, source: str, destination: str, amount: float):
            withdrawn = yield ctx.invoke(source, "withdraw", amount)
            if not withdrawn:
                return False
            yield ctx.invoke(destination, "deposit", amount)
            return True

        def deposit_many(ctx, account_names, amount: float):
            results = yield ctx.parallel(
                *[ctx.call(account, "deposit", amount) for account in account_names]
            )
            return len(results)

        definition.add_method(MethodDefinition("transfer", transfer))
        definition.add_method(MethodDefinition("deposit_many", deposit_many))
        return definition

    # -- transactions --------------------------------------------------------------

    def _register_transactions(self, base: ObjectBase) -> None:
        branches = self.branches

        def transfer_transaction(ctx, source: str, destination: str, amount: float, branch: int):
            moved = yield ctx.invoke(_teller_name(branch), "transfer", source, destination, amount)
            return moved

        def payroll_transaction(ctx, account_names, amount: float, branch: int):
            paid = yield ctx.invoke(_teller_name(branch), "deposit_many", account_names, amount)
            yield ctx.invoke(_branch_counter_name(branch), "add", amount * len(account_names))
            return paid

        def audit_transaction(ctx, account_names, branch: int):
            balances = yield ctx.parallel(
                *[ctx.call(account, "balance") for account in account_names]
            )
            branch_total = yield ctx.invoke(_branch_counter_name(branch % branches), "get")
            return sum(balances), branch_total

        base.register_transaction(MethodDefinition("transfer", transfer_transaction))
        base.register_transaction(MethodDefinition("payroll", payroll_transaction))
        base.register_transaction(MethodDefinition("audit", audit_transaction))

    def _pick_account(self) -> int:
        if self.hot_fraction > 0 and self._rng.random() < self.hot_fraction:
            return 0  # a single hot account concentrates contention
        return self._rng.randrange(self.accounts)

    def iter_transactions(self) -> Iterator[TransactionSpec]:
        for _ in range(self.transactions):
            draw = self._rng.random()
            if draw < self.transfer_fraction:
                source = self._pick_account()
                destination = self._pick_account()
                while destination == source:
                    destination = self._rng.randrange(self.accounts)
                amount = round(self._rng.uniform(1, 20), 2)
                branch = source % self.branches
                arguments = (_account_name(source), _account_name(destination), amount, branch)
                label = f"transfer {source}->{destination}"
                yield TransactionSpec("transfer", arguments, label=label)
            elif draw < self.transfer_fraction + self.payroll_fraction:
                branch = self._rng.randrange(self.branches)
                members = self._rng.sample(range(self.accounts), min(self.payroll_width, self.accounts))
                names = tuple(_account_name(index) for index in members)
                label = f"payroll branch {branch}"
                yield TransactionSpec("payroll", (names, 10.0, branch), label=label)
            else:
                sample = self._rng.sample(range(self.accounts), min(self.audit_sample, self.accounts))
                branch = self._rng.randrange(self.branches)
                names = tuple(_account_name(index) for index in sample)
                yield TransactionSpec("audit", (names, branch), label="audit")

    def expected_total_balance(self) -> float:
        """The sum of balances any serialisable run must preserve.

        Transfers move money between accounts and audits read it, so with
        ``payroll_fraction == 0`` the total balance is an invariant of the
        workload; the integration tests use it to detect lost updates.
        Payroll transactions deposit fresh money, so the invariant only
        holds for mixes without them.
        """
        return self.initial_balance * self.accounts
