"""Mixed-object workload: an order-processing object base.

The base combines several object types with very different semantics — a
B-tree catalogue index, bank accounts, a FIFO shipping queue, a counter of
orders and an append-only audit log — which is exactly the setting in which
the paper's modular scheme shines: each object can use the intra-object
synchronisation algorithm that suits it (key locking for the index,
step-level queue locking, commuting counter updates) while the inter-object
coordinator keeps the overall execution serialisable (experiment E5).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterator

from ...core.errors import WorkloadError
from ...objectbase.adts.append_log import append_log_definition
from ...objectbase.adts.bank_account import bank_account_definition
from ...objectbase.adts.btree import btree_definition
from ...objectbase.adts.counter import counter_definition
from ...objectbase.adts.fifo_queue import fifo_queue_definition
from ...objectbase.base import MethodDefinition, ObjectBase, ObjectDefinition
from ..transactions import TransactionSpec
from .base import Workload

CATALOGUE = "catalogue"
SHIPPING_QUEUE = "shipping-queue"
ORDER_COUNTER = "orders-placed"
AUDIT_LOG = "audit-log"
ORDER_DESK = "order-desk"


def _customer_account(index: int) -> str:
    return f"customer-{index:03d}"


@dataclass
class MixedWorkload(Workload):
    """Order placement, restocking and reporting over heterogeneous objects."""

    customers: int = 12
    catalogue_items: int = 60
    transactions: int = 30
    order_fraction: float = 0.6
    restock_fraction: float = 0.2
    price_range: tuple[float, float] = (5.0, 25.0)
    initial_balance: float = 500.0
    seed: int = 0
    _rng: random.Random = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not 0 <= self.order_fraction + self.restock_fraction <= 1:
            raise WorkloadError("transaction mix fractions must sum to at most 1")
        self._rng = random.Random(self.seed)

    # -- object base ---------------------------------------------------------------

    def build_object_base(self) -> ObjectBase:
        base = ObjectBase()
        initial_stock = {item: self._rng.randrange(1, 20) for item in range(self.catalogue_items)}
        base.register(btree_definition(CATALOGUE, degree=3, initial_items=initial_stock))
        base.register(fifo_queue_definition(SHIPPING_QUEUE))
        base.register(counter_definition(ORDER_COUNTER, 0))
        base.register(append_log_definition(AUDIT_LOG))
        for index in range(self.customers):
            base.register(bank_account_definition(_customer_account(index), self.initial_balance))
        base.register(self._order_desk_definition())
        self._register_transactions(base)
        return base

    def _order_desk_definition(self) -> ObjectDefinition:
        definition = ObjectDefinition(name=ORDER_DESK)

        def place_order(ctx, customer: str, item: int, price: float):
            stock = yield ctx.invoke(CATALOGUE, "search", item)
            if stock is None or stock <= 0:
                return "out-of-stock"
            paid = yield ctx.invoke(customer, "withdraw", price)
            if not paid:
                return "insufficient-funds"
            yield ctx.invoke(CATALOGUE, "insert", item, stock - 1)
            yield ctx.invoke(SHIPPING_QUEUE, "enqueue", (customer, item))
            yield ctx.invoke(ORDER_COUNTER, "add", 1)
            return "ordered"

        def restock(ctx, item: int, quantity: int):
            stock = yield ctx.invoke(CATALOGUE, "search", item)
            new_stock = (stock or 0) + quantity
            yield ctx.invoke(CATALOGUE, "insert", item, new_stock)
            return new_stock

        definition.add_method(MethodDefinition("place_order", place_order))
        definition.add_method(MethodDefinition("restock", restock))
        return definition

    # -- transactions ----------------------------------------------------------------

    def _register_transactions(self, base: ObjectBase) -> None:
        def order(ctx, customer: str, item: int, price: float):
            outcome = yield ctx.invoke(ORDER_DESK, "place_order", customer, item, price)
            yield ctx.invoke(AUDIT_LOG, "append", (customer, item, outcome))
            return outcome

        def restock(ctx, item: int, quantity: int):
            new_stock = yield ctx.invoke(ORDER_DESK, "restock", item, quantity)
            yield ctx.invoke(AUDIT_LOG, "append", ("restock", item, quantity))
            return new_stock

        def ship(ctx, batch: int):
            shipped = []
            for _ in range(batch):
                parcel = yield ctx.invoke(SHIPPING_QUEUE, "dequeue")
                if parcel is None:
                    break
                shipped.append(parcel)
            return tuple(shipped)

        def report(ctx, sample_customers, low_item: int, high_item: int):
            balances = yield ctx.parallel(
                *[ctx.call(customer, "balance") for customer in sample_customers]
            )
            in_range = yield ctx.invoke(CATALOGUE, "range", low_item, high_item)
            orders = yield ctx.invoke(ORDER_COUNTER, "get")
            return sum(balances), len(in_range), orders

        base.register_transaction(MethodDefinition("order", order))
        base.register_transaction(MethodDefinition("restock", restock))
        base.register_transaction(MethodDefinition("ship", ship))
        base.register_transaction(MethodDefinition("report", report))

    def iter_transactions(self) -> Iterator[TransactionSpec]:
        for index in range(self.transactions):
            draw = self._rng.random()
            if draw < self.order_fraction:
                customer = _customer_account(self._rng.randrange(self.customers))
                item = self._rng.randrange(self.catalogue_items)
                price = round(self._rng.uniform(*self.price_range), 2)
                yield TransactionSpec("order", (customer, item, price), label=f"order-{index}")
            elif draw < self.order_fraction + self.restock_fraction:
                item = self._rng.randrange(self.catalogue_items)
                arguments = (item, self._rng.randrange(5, 15))
                yield TransactionSpec("restock", arguments, label=f"restock-{index}")
            elif self._rng.random() < 0.5:
                yield TransactionSpec("ship", (3,), label=f"ship-{index}")
            else:
                picked = self._rng.sample(range(self.customers), min(3, self.customers))
                sample = tuple(_customer_account(i) for i in picked)
                low = self._rng.randrange(self.catalogue_items)
                arguments = (sample, low, min(self.catalogue_items, low + 10))
                yield TransactionSpec("report", arguments, label=f"report-{index}")

    def modular_strategy_map(self) -> dict[str, str]:
        """Per-object intra-object synchroniser choices for the modular scheduler."""
        strategies = {
            CATALOGUE: "btree-key-locking",
            SHIPPING_QUEUE: "locking",
            ORDER_COUNTER: "timestamp",
            AUDIT_LOG: "timestamp",
            ORDER_DESK: "locking",
        }
        for index in range(self.customers):
            strategies[_customer_account(index)] = "locking"
        return strategies
