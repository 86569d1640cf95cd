"""Quickstart: build a tiny object base, run transactions, certify the run.

This example walks through the library's three layers in ~60 lines:

1. define objects (a bank account and a FIFO queue) and a nested
   transaction type on the environment;
2. execute a handful of concurrent transactions under nested two-phase
   locking (Moss' algorithm, Theorem 3 of the paper);
3. certify the recorded history: legality, serialisation-graph acyclicity
   (Theorem 2) and the modular conditions of Theorem 5.

Run it with ``python examples/quickstart.py``.
"""

from __future__ import annotations

from repro.analysis import certify_run, format_table, history_statistics
from repro.objectbase import MethodDefinition, ObjectBase
from repro.objectbase.adts import bank_account_definition, fifo_queue_definition
from repro.scheduler import make_scheduler
from repro.simulation import SimulationEngine, TransactionSpec


def build_object_base() -> ObjectBase:
    """Two accounts, one settlement queue, and a 'pay' transaction type."""
    base = ObjectBase()
    base.register(bank_account_definition("alice", initial_balance=100))
    base.register(bank_account_definition("bob", initial_balance=100))
    base.register(fifo_queue_definition("settlement-queue"))

    def pay(ctx, payer: str, payee: str, amount: float):
        # A nested transaction: withdraw, then deposit, then log the payment.
        paid = yield ctx.invoke(payer, "withdraw", amount)
        if not paid:
            return "insufficient funds"
        yield ctx.invoke(payee, "deposit", amount)
        yield ctx.invoke("settlement-queue", "enqueue", (payer, payee, amount))
        return "paid"

    def audit(ctx, accounts):
        balances = yield ctx.parallel(*[ctx.call(name, "balance") for name in accounts])
        pending = yield ctx.invoke("settlement-queue", "length")
        return {"total": sum(balances), "pending_settlements": pending}

    base.register_transaction(MethodDefinition("pay", pay))
    base.register_transaction(MethodDefinition("audit", audit))
    return base


def main() -> None:
    base = build_object_base()
    scheduler = make_scheduler("n2pl")  # nested two-phase locking (Moss)
    engine = SimulationEngine(base, scheduler, seed=7)

    engine.submit_all(
        [
            TransactionSpec("pay", ("alice", "bob", 30.0)),
            TransactionSpec("pay", ("bob", "alice", 45.0)),
            TransactionSpec("pay", ("alice", "bob", 500.0)),  # will bounce
            TransactionSpec("audit", (("alice", "bob"),)),
        ]
    )
    result = engine.run()

    print("== run metrics ==")
    print(format_table([result.summary()], ["scheduler", "committed", "aborted_attempts", "total_ticks", "throughput"]))

    print("\n== final states (committed projection) ==")
    finals = result.final_states()
    for name in ("alice", "bob", "settlement-queue"):
        print(f"  {name}: {dict(finals[name])}")

    print("\n== history structure ==")
    stats = history_statistics(result.history)
    print(
        f"  {stats.top_level_executions} top-level transactions, {stats.executions} method "
        f"executions, {stats.local_steps} local steps, max nesting depth {stats.max_nesting_depth}"
    )

    print("\n== certification (Theorems 2 and 5, applied to the run) ==")
    report = certify_run(result)
    print(f"  legal history:        {report.legal}")
    print(f"  serialisable (SG):    {report.serialisable}")
    print(f"  Theorem 5 conditions: {report.theorem5_holds}")
    print(f"  equivalent serial order of transactions: {' < '.join(report.serial_order)}")


if __name__ == "__main__":
    main()
