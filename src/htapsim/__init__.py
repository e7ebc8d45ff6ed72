"""htapsim: a deterministic simulator of an MPP database transaction kernel.

Coordinator plus N segments with per-segment object locks, global deadlock
detection over labeled wait-for graphs, distributed-snapshot MVCC with
local/distributed xid mapping, one- and two-phase commit with message and
fsync accounting, resource-group isolation, and flow-controlled interconnect
channels.
"""

from .dtm import (
    CommitAccounting,
    DistributedSnapshot,
    DistributedTxnManager,
    Protocol,
    TransactionDescriptor,
    TxnState,
    XidMapping,
    visible,
)
from .gdd import DetectionVerdict, GddConfig, Outcome, break_deadlock, detect, reduce
from .interconnect import JoinOutcome, run_join_scenario
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
from .scenario import Scenario, ScenarioError, load_scenario, parse_scenario
from .sim import Cluster, ScenarioResult, SimConfig, run_scenario
from .store import Predicate, SegmentStore, TableDef, TupleVersion, route
from .waitgraph import (
    EdgeKind,
    GlobalWaitForGraph,
    WaitEdge,
    collect_global,
    snapshot_local,
)

__version__ = "0.1.0"
