"""Order-processing workload: btree + fifo_queue + bank_account pipeline.

A leaner, skewed sibling of :class:`~repro.simulation.workloads.mixed.MixedWorkload`:
exactly the three ADTs whose synchronisation profiles differ most — a
B-tree inventory index (structure-modifying inserts), a FIFO fulfilment
queue (head/tail conflicts) and bank accounts (commuting deposits,
balance-guarded withdrawals) — wired into an order → fulfil pipeline.

Two deliberate pressure points make it a scenario worth *adapting* to:

* item popularity is zipf-skewed (``skew``), so a handful of bestseller
  keys in the inventory tree are scorching while the tail is idle — no
  single fixed intra-object strategy suits the whole index's traffic mix;
* every fulfilment deposits into one merchant account and pops the shared
  fulfilment queue, giving two structurally hot objects whose best
  strategy differs from the cold customer accounts'.

Transactions are top-level methods over the shared objects (no service
object in between), so per-object signals attribute cleanly.
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass, field
from typing import Iterator

from ...core.errors import WorkloadError
from ...objectbase.adts.bank_account import bank_account_definition
from ...objectbase.adts.btree import btree_definition
from ...objectbase.adts.fifo_queue import fifo_queue_definition
from ...objectbase.base import MethodDefinition, ObjectBase
from ..transactions import TransactionSpec
from .base import Workload

INVENTORY = "inventory"
FULFILMENT_QUEUE = "fulfilment-queue"
MERCHANT_ACCOUNT = "merchant"


def _customer_account(index: int) -> str:
    return f"customer-{index:03d}"


@dataclass
class OrderProcessingWorkload(Workload):
    """Zipf-skewed orders flowing through inventory, queue and accounts."""

    customers: int = 16
    items: int = 48
    transactions: int = 30
    order_fraction: float = 0.55
    fulfil_fraction: float = 0.25
    restock_fraction: float = 0.1
    skew: float = 1.2
    price: float = 10.0
    initial_balance: float = 400.0
    initial_stock: int = 5
    seed: int = 0
    _rng: random.Random = field(init=False, repr=False)
    _cumulative: list[float] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.customers < 1 or self.items < 1:
            raise WorkloadError("order processing needs customers and items")
        fractions = (self.order_fraction, self.fulfil_fraction, self.restock_fraction)
        if any(f < 0 for f in fractions) or sum(fractions) > 1:
            raise WorkloadError(
                "order/fulfil/restock fractions must be non-negative and sum to at most 1"
            )
        if self.skew < 0:
            raise WorkloadError(f"zipf skew must be >= 0, got {self.skew}")
        if self.initial_stock < 0 or self.initial_balance < 0 or self.price <= 0:
            raise WorkloadError(
                "initial stock and balances must be >= 0 and the price positive"
            )
        self._rng = random.Random(self.seed)
        total = 0.0
        self._cumulative = []
        for rank in range(1, self.items + 1):
            total += 1.0 / rank**self.skew
            self._cumulative.append(total)

    def _pick_item(self) -> int:
        point = self._rng.random() * self._cumulative[-1]
        return bisect.bisect_left(self._cumulative, point)

    # -- object base ---------------------------------------------------------------

    def build_object_base(self) -> ObjectBase:
        base = ObjectBase()
        stock = {item: self.initial_stock for item in range(self.items)}
        base.register(btree_definition(INVENTORY, degree=3, initial_items=stock))
        base.register(fifo_queue_definition(FULFILMENT_QUEUE))
        base.register(bank_account_definition(MERCHANT_ACCOUNT, 0.0))
        for index in range(self.customers):
            base.register(
                bank_account_definition(_customer_account(index), self.initial_balance)
            )
        self._register_transactions(base)
        return base

    def _register_transactions(self, base: ObjectBase) -> None:
        def order(ctx, customer: str, item: int, price: float):
            stock = yield ctx.invoke(INVENTORY, "search", item)
            if stock is None or stock <= 0:
                return "out-of-stock"
            paid = yield ctx.invoke(customer, "withdraw", price)
            if not paid:
                return "insufficient-funds"
            yield ctx.invoke(INVENTORY, "insert", item, stock - 1)
            yield ctx.invoke(FULFILMENT_QUEUE, "enqueue", (customer, item, price))
            return "ordered"

        def fulfil(ctx, batch: int):
            takings = 0.0
            shipped = 0
            for _ in range(batch):
                parcel = yield ctx.invoke(FULFILMENT_QUEUE, "dequeue")
                if parcel is None:
                    break
                takings += parcel[2]
                shipped += 1
            if shipped:
                yield ctx.invoke(MERCHANT_ACCOUNT, "deposit", takings)
            return shipped

        def restock(ctx, item: int, quantity: int):
            stock = yield ctx.invoke(INVENTORY, "search", item)
            yield ctx.invoke(INVENTORY, "insert", item, (stock or 0) + quantity)
            return (stock or 0) + quantity

        def audit(ctx, sample_customers, low_item: int, high_item: int):
            balances = yield ctx.parallel(
                *[ctx.call(customer, "balance") for customer in sample_customers]
            )
            takings = yield ctx.invoke(MERCHANT_ACCOUNT, "balance")
            backlog = yield ctx.invoke(FULFILMENT_QUEUE, "length")
            in_range = yield ctx.invoke(INVENTORY, "range", low_item, high_item)
            return round(sum(balances) + takings, 2), backlog, len(in_range)

        base.register_transaction(MethodDefinition("order", order))
        base.register_transaction(MethodDefinition("fulfil", fulfil))
        base.register_transaction(MethodDefinition("restock", restock))
        base.register_transaction(MethodDefinition("audit", audit))

    # -- transactions ----------------------------------------------------------------

    def iter_transactions(self) -> Iterator[TransactionSpec]:
        order_cut = self.order_fraction
        fulfil_cut = order_cut + self.fulfil_fraction
        restock_cut = fulfil_cut + self.restock_fraction
        for index in range(self.transactions):
            draw = self._rng.random()
            if draw < order_cut:
                customer = _customer_account(self._rng.randrange(self.customers))
                arguments = (customer, self._pick_item(), self.price)
                yield TransactionSpec("order", arguments, label=f"order-{index}")
            elif draw < fulfil_cut:
                yield TransactionSpec("fulfil", (3,), label=f"fulfil-{index}")
            elif draw < restock_cut:
                arguments = (self._pick_item(), self._rng.randrange(3, 9))
                yield TransactionSpec("restock", arguments, label=f"restock-{index}")
            else:
                picked = self._rng.sample(range(self.customers), min(3, self.customers))
                sample = tuple(_customer_account(i) for i in picked)
                low = self._rng.randrange(self.items)
                arguments = (sample, low, min(self.items, low + 8))
                yield TransactionSpec("audit", arguments, label=f"audit-{index}")
