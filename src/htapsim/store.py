"""Per-segment in-memory MVCC heap with hash distribution.

Tables have two integer columns (c1, c2) and are distributed by one of them.
Each row is a version chain in a slot, numbered in insert order and never
reused; updates stamp the visible version with the updater's local xid and
append a successor.  Updates set only the second column, so the first (c1) is
fixed for the life of a chain, and a per-table index from c1 value to slots
serves every scan whose predicate fixes c1.  All blocking behavior (tuple locks, transaction-lock waits) lives in the
simulator; the store itself is passive data plus pure scan/stamp operations.

A row loaded by an always-committed writer (`insert_frozen`, PostgreSQL's
`COPY FREEZE`) is all-visible: its chain is that one unstamped version, which
every snapshot sees, so `scan` returns it without calling the visibility test,
as PostgreSQL's `heapgetpage` skips the per-tuple test on a page whose
`PD_ALL_VISIBLE` bit is set.  The first stamp of the row clears the mark, as
`heap_update` clears the bit, and the row then goes through the test for good,
whether or not its stamper commits.

Chains are pruned as PostgreSQL's `heap_page_prune` prunes a page: `prune`
drops every version of a chain before the newest one whose writer the caller
calls settled, one that committed below the horizon of every snapshot that
can still read the chain (`dtm.DistributedSnapshot.horizon`).  Each such
snapshot sees that writer committed, so it reads that version or a newer one,
and the dropped versions are invisible to all of them.  The simulator prunes
a chain each time it stamps it, so a chain keeps its newest settled version
and the versions written after it, by transactions that still run or that
committed at or above the horizon.
"""

from __future__ import annotations

from dataclasses import dataclass, field


class StoreError(Exception):
    pass


COLUMNS = ("c1", "c2")  # every table's columns, in row order


@dataclass(frozen=True)
class TableDef:
    name: str
    dist_key: str = "c1"

    def __post_init__(self):
        if self.dist_key not in COLUMNS:
            raise StoreError(
                f"distribution key {self.dist_key!r} is not a column of {self.name}"
            )

    def dist_value(self, values: tuple[int, int]) -> int:
        """The distribution-key value of a row, which decides its segment."""
        return values[COLUMNS.index(self.dist_key)]


def route(key_value: int, n_segments: int) -> int:
    """Map a distribution-key value to its owning segment.

    Identity hash modulo segment count: deterministic, stable and balanced
    for the integer keys the scenarios use.
    """
    if n_segments < 1:
        raise ValueError("need at least one segment")
    return key_value % n_segments


@dataclass(slots=True)
class TupleVersion:
    values: tuple[int, int]
    xmin_local: int
    cmin: int
    xmax_local: int = 0
    cmax: int = 0


@dataclass(slots=True)
class Predicate:
    """Conjunction of column equalities; empty means match-all."""

    eqs: dict[str, int] = field(default_factory=dict)

    def matches(self, values: tuple[int, int]) -> bool:
        for col, want in self.eqs.items():
            if values[COLUMNS.index(col)] != want:
                return False
        return True

    def pinned_key(self, table: TableDef) -> int | None:
        """The distribution-key value if the predicate fixes one, else None."""
        return self.eqs.get(table.dist_key)


class SegmentStore:
    """Heap storage of one segment: table -> slot -> version chain."""

    def __init__(self, segment: int):
        self.segment = segment
        # table -> slot -> chain; slots are numbered in insert order
        self.tables: dict[str, dict[int, list[TupleVersion]]] = {}
        # table -> c1 value -> slots, in increasing slot order
        self._by_c1: dict[str, dict[int, list[int]]] = {}
        # table -> slots whose chain is one version every snapshot sees
        self.all_visible: dict[str, set[int]] = {}

    def create_table(self, table: TableDef) -> None:
        self.tables.setdefault(table.name, {})
        self._by_c1.setdefault(table.name, {})
        self.all_visible.setdefault(table.name, set())

    def insert_version(
        self, table: str, values: tuple[int, int], local_xid: int, cid: int
    ) -> int:
        """Insert a row into the table's next slot, and return the slot."""
        chains = self.tables[table]
        slot = len(chains)  # no slot is ever removed
        chains[slot] = [TupleVersion(values=values, xmin_local=local_xid, cmin=cid)]
        self._by_c1[table].setdefault(values[0], []).append(slot)
        return slot

    def insert_frozen(
        self, table: str, values: tuple[int, int], local_xid: int
    ) -> int:
        """Insert a row whose writer `local_xid` the caller vouches is
        committed before any snapshot, and mark it all-visible."""
        slot = self.insert_version(table, values, local_xid, 0)
        self.all_visible[table].add(slot)
        return slot

    def visible_version(self, table: str, slot: int, is_visible) -> TupleVersion | None:
        """Newest version of the chain that `is_visible` accepts."""
        for version in reversed(self.tables[table][slot]):
            if is_visible(version):
                return version
        return None

    def scan(self, table_def: TableDef, pred: Predicate, is_visible):
        """(slot, version) for visible rows matching the predicate, by slot.

        A predicate that fixes c1 visits only the slots the c1 index lists
        for that value; any other predicate examines every slot.  An
        all-visible slot's one version is taken without `is_visible`.  The
        predicate is not tested when it is empty, or when its one term is
        the c1 the index served: every version of a chain has its c1.
        """
        out = []
        table = table_def.name
        chains = self.tables.get(table, {})
        all_visible = self.all_visible.get(table, ())
        c1 = pred.eqs.get(COLUMNS[0])
        if c1 is None:
            slots = chains  # slots are inserted in order
        else:
            slots = self._by_c1.get(table, {}).get(c1, ())
        must_match = len(pred.eqs) > (c1 is not None)  # a term the index did not serve
        for slot in slots:
            if slot in all_visible:
                version = chains[slot][0]
            else:
                version = self.visible_version(table, slot, is_visible)
            if version is not None and (not must_match or pred.matches(version.values)):
                out.append((slot, version))
        return out

    def stamp_and_append(
        self,
        table: str,
        slot: int,
        victim: TupleVersion,
        new_values: tuple[int, int],
        local_xid: int,
        cid: int,
    ) -> TupleVersion:
        """Mark `victim` deleted by local_xid and append the successor version.

        Every version after `victim` is dropped first.  There are such
        versions only when `victim` is re-stamped because its previous
        stamper aborted, and then they are that stamper's own successors:
        no other transaction can stamp them, since a version written by an
        uncommitted or aborted transaction is visible only to its writer.
        Their xmin is the aborted xid, so no snapshot can see them.  The
        chain then stays a chain: each version but the last is stamped and
        followed by its successor.  The successor must keep the victim's c1,
        which the c1 index relies on.
        """
        chain = self.tables[table][slot]
        pos = len(chain) - 1
        if chain[pos] is not victim:
            # from the tail: at most the aborted stamper's versions follow victim
            pos = next((i for i in range(pos - 1, -1, -1) if chain[i] is victim), None)
        if pos is None:
            raise StoreError(f"version {victim} is not in chain {table}:{slot}")
        if new_values[0] != victim.values[0]:
            raise StoreError(f"an update may not change c1 of {table}:{slot}")
        del chain[pos + 1 :]
        self.all_visible[table].discard(slot)
        victim.xmax_local = local_xid
        victim.cmax = cid
        successor = TupleVersion(values=new_values, xmin_local=local_xid, cmin=cid)
        chain.append(successor)
        return successor

    def prune(self, table: str, slot: int, settled) -> None:
        """Drop every version of the chain before the newest one whose
        writer `settled` accepts (see the module docstring); the first
        version is never tested, since nothing precedes it."""
        chain = self.tables[table][slot]
        for i in range(len(chain) - 1, 0, -1):
            if settled(chain[i].xmin_local):
                del chain[:i]
                return

    def check_chain_invariants(self, local_state) -> None:
        """A chain's in-progress versions have one writer and form its tail;
        stamps form a chain; an all-visible slot holds one unstamped version
        by a committed writer.

        A writer that updates its own row again appends a second in-progress
        version after its first, so more than one is legal mid-run."""
        for table in sorted(self.tables):
            for slot in sorted(self.all_visible[table]):
                chain = self.tables[table][slot]
                if not (
                    len(chain) == 1
                    and chain[0].xmax_local == 0
                    and local_state(chain[0].xmin_local) == "committed"
                ):
                    raise AssertionError(f"all-visible slot {table}:{slot} is not all-visible")
            for slot in sorted(self.tables[table]):
                chain = self.tables[table][slot]
                running = [
                    i for i, v in enumerate(chain) if local_state(v.xmin_local) == "in_progress"
                ]
                if running and running[0] + len(running) != len(chain):
                    raise AssertionError(
                        f"chain {table}:{slot}: in-progress versions not at its tail"
                    )
                if len({chain[i].xmin_local for i in running}) > 1:
                    raise AssertionError(f"chain {table}:{slot} has two in-progress writers")
                for prev, nxt in zip(chain, chain[1:]):
                    if prev.xmax_local == 0:
                        raise AssertionError(
                            f"chain {table}:{slot}: successor without stamped xmax"
                        )
