"""Abstract data types: ready-made object definitions for the object base.

Each module defines one object type — its local operations, its conflict
specifications at operation and step granularity, and a ``*_definition``
factory that packages everything into an :class:`ObjectDefinition` whose
methods each issue a single local operation.
"""

from ...core.registry import lazy_surface

__all__, __getattr__, __dir__ = lazy_surface(
    __name__,
    {
        ".append_log": (
            "Append",
            "AppendLogConflicts",
            "AppendLogStepConflicts",
            "LogLength",
            "ReadAt",
            "append_log_definition",
        ),
        ".bank_account": (
            "BankAccountConflicts",
            "BankAccountStepConflicts",
            "Deposit",
            "GetBalance",
            "Withdraw",
            "bank_account_definition",
        ),
        ".btree": (
            "BTreeConflicts",
            "BTreeStepConflicts",
            "DeleteKey",
            "IndexSize",
            "InsertKey",
            "RangeScan",
            "SearchKey",
            "btree_definition",
            "empty_tree",
            "tree_delete",
            "tree_height",
            "tree_insert",
            "tree_items",
            "tree_range",
            "tree_search",
            "tree_size",
            "validate_tree",
        ),
        ".counter": ("AddToCounter", "CounterConflicts", "GetCount", "counter_definition"),
        ".directory": (
            "CreateFile",
            "DirectoryConflicts",
            "ListDirectory",
            "MakeDirectory",
            "PathExists",
            "RemoveEntry",
            "directory_definition",
        ),
        ".fifo_queue": (
            "Dequeue",
            "Enqueue",
            "FifoQueueConflicts",
            "FifoQueueStepConflicts",
            "QueueLength",
            "fifo_queue_definition",
        ),
        ".kv_store": (
            "CountEntries",
            "Delete",
            "Insert",
            "KVStoreConflicts",
            "KVStoreStepConflicts",
            "Lookup",
            "kv_store_definition",
        ),
        ".register": (
            "ReadRegister",
            "RegisterConflicts",
            "RegisterStepConflicts",
            "WriteRegister",
            "register_definition",
        ),
        ".set_object": (
            "AddMember",
            "Contains",
            "RemoveMember",
            "SetConflicts",
            "SetSize",
            "SetStepConflicts",
            "set_definition",
        ),
    },
)
