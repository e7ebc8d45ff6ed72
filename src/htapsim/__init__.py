"""htapsim: a deterministic simulator of an MPP database transaction kernel.

Coordinator plus N segments with per-segment object locks, global deadlock
detection over labeled wait-for graphs, distributed-snapshot MVCC with
local/distributed xid mapping, one- and two-phase commit with message and
fsync accounting, resource-group isolation, and flow-controlled interconnect
channels.

Importing the package loads only the simulator core that a `Cluster` and
`bench` need.  The scenario-file reader (`scenario.py`) and the interconnect
model (`interconnect.py`) load on first access to one of the names `_LAZY`
lists (PEP 562): no workload uses them, and compiling and building them is a
large share of the CPU time a fresh process spends importing htapsim.
"""

import importlib

from .dtm import (
    DistributedSnapshot,
    DistributedTxnManager,
    Protocol,
    TransactionDescriptor,
    TxnState,
    XidMapping,
    visible,
)
from .gdd import DetectionVerdict, Outcome, break_deadlock, detect, reduce
from .locks import AcquireResult, LockMode, LockTable, LockTag, TagKind, conflicts
from .resgroup import (
    Admission,
    AdmissionControl,
    ChargeResult,
    CpuScheduler,
    MemoryLedger,
    ResourceGroupConfig,
    ResourceGroups,
)
from .sim import Cluster, SimConfig
from .store import Predicate, SegmentStore, TableDef, TupleVersion, route
from .waitgraph import (
    EdgeKind,
    GlobalWaitForGraph,
    WaitEdge,
    collect_global,
    snapshot_local,
)

__version__ = "0.1.0"

_LAZY = {
    "Scenario": "scenario",
    "ScenarioError": "scenario",
    "ScenarioResult": "scenario",
    "build_cluster": "scenario",
    "load_scenario": "scenario",
    "parse_scenario": "scenario",
    "run_scenario": "scenario",
    "JoinOutcome": "interconnect",
    "run_join_scenario": "interconnect",
}


def __getattr__(name: str):
    """Import a front-end module on first access to one of its names."""
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value
