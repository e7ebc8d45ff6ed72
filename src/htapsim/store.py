"""Per-segment in-memory MVCC heap with hash distribution.

Tables have two integer columns (c1, c2) and are distributed by one of them.
Each row is a version chain keyed by a stable ctid; updates stamp the visible
version with the updater's local xid and append a successor.  Updates set only
the second column, so the first (c1) is fixed for the life of a chain, and a
per-table index from c1 value to slots serves every scan whose predicate fixes
c1.  All blocking behavior (tuple locks, transaction-lock waits) lives in the
simulator; the store itself is passive data plus pure scan/stamp operations.

A row loaded by an always-committed writer (`insert_frozen`, PostgreSQL's
`COPY FREEZE`) is all-visible: its chain is that one unstamped version, which
every snapshot sees, so `scan` returns it without calling the visibility test,
as PostgreSQL's `heapgetpage` skips the per-tuple test on a page whose
`PD_ALL_VISIBLE` bit is set.  The first stamp of the row clears the mark, as
`heap_update` clears the bit, and the row then goes through the test for good,
whether or not its stamper commits.
"""

from __future__ import annotations

from dataclasses import dataclass, field


class StoreError(Exception):
    pass


@dataclass(frozen=True)
class TableDef:
    name: str
    columns: tuple[str, str] = ("c1", "c2")
    dist_key: str = "c1"

    def __post_init__(self):
        if self.dist_key not in self.columns:
            raise StoreError(
                f"distribution key {self.dist_key!r} is not a column of {self.name}"
            )

    def dist_value(self, values: tuple[int, int]) -> int:
        """The distribution-key value of a row, which decides its segment."""
        return values[self.columns.index(self.dist_key)]


def route(key_value: int, n_segments: int) -> int:
    """Map a distribution-key value to its owning segment.

    Identity hash modulo segment count: deterministic, stable and balanced
    for the integer keys the scenarios use.
    """
    if n_segments < 1:
        raise ValueError("need at least one segment")
    return key_value % n_segments


@dataclass
class TupleVersion:
    values: tuple[int, int]
    xmin_local: int
    cmin: int
    ctid: tuple[str, int]  # (table, slot) on this segment
    xmax_local: int = 0
    cmax: int = 0


@dataclass
class Predicate:
    """Conjunction of column equalities; empty means match-all."""

    eqs: dict[str, int] = field(default_factory=dict)

    def matches(self, values: tuple[int, int], columns: tuple[str, str]) -> bool:
        for col, want in self.eqs.items():
            if values[columns.index(col)] != want:
                return False
        return True

    def pinned_key(self, table: TableDef) -> int | None:
        """The distribution-key value if the predicate fixes one, else None."""
        return self.eqs.get(table.dist_key)

    def __str__(self) -> str:
        if not self.eqs:
            return "true"
        return " and ".join(f"{c}={v}" for c, v in sorted(self.eqs.items()))


class SegmentStore:
    """Heap storage of one segment: table -> slot -> version chain."""

    def __init__(self, segment: int):
        self.segment = segment
        self.tables: dict[str, dict[int, list[TupleVersion]]] = {}
        self._next_slot: dict[str, int] = {}
        # table -> c1 value -> slots, in increasing slot order
        self._by_c1: dict[str, dict[int, list[int]]] = {}
        # table -> slots whose chain is one version every snapshot sees
        self.all_visible: dict[str, set[int]] = {}

    def create_table(self, table: TableDef) -> None:
        self.tables.setdefault(table.name, {})
        self._next_slot.setdefault(table.name, 0)
        self._by_c1.setdefault(table.name, {})
        self.all_visible.setdefault(table.name, set())

    def insert_version(
        self, table: str, values: tuple[int, int], local_xid: int, cid: int
    ) -> tuple[str, int]:
        slot = self._next_slot[table]
        self._next_slot[table] = slot + 1
        ctid = (table, slot)
        self.tables[table][slot] = [
            TupleVersion(values=values, xmin_local=local_xid, cmin=cid, ctid=ctid)
        ]
        self._by_c1[table].setdefault(values[0], []).append(slot)
        return ctid

    def insert_frozen(
        self, table: str, values: tuple[int, int], local_xid: int
    ) -> tuple[str, int]:
        """Insert a row whose writer `local_xid` the caller vouches is
        committed before any snapshot, and mark it all-visible."""
        ctid = self.insert_version(table, values, local_xid, 0)
        self.all_visible[table].add(ctid[1])
        return ctid

    def chain(self, table: str, slot: int) -> list[TupleVersion]:
        return self.tables[table][slot]

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
        all-visible slot's one version is taken without `is_visible`.
        """
        out = []
        table = table_def.name
        chains = self.tables.get(table, {})
        all_visible = self.all_visible.get(table, ())
        c1 = pred.eqs.get(table_def.columns[0])
        if c1 is None:
            slots = chains  # slots are inserted in order
        else:
            slots = self._by_c1.get(table, {}).get(c1, ())
        for slot in slots:
            if slot in all_visible:
                version = chains[slot][0]
            else:
                version = self.visible_version(table, slot, is_visible)
            if version is not None and pred.matches(version.values, table_def.columns):
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
        # from the tail: at most the aborted stamper's versions follow victim
        pos = next(
            (i for i in range(len(chain) - 1, -1, -1) if chain[i] is victim), None
        )
        if pos is None:
            raise StoreError(f"version {victim} is not in chain {table}:{slot}")
        if new_values[0] != victim.values[0]:
            raise StoreError(f"an update may not change c1 of {table}:{slot}")
        del chain[pos + 1 :]
        self.all_visible[table].discard(slot)
        victim.xmax_local = local_xid
        victim.cmax = cid
        successor = TupleVersion(
            values=new_values,
            xmin_local=local_xid,
            cmin=cid,
            ctid=(table, slot),
        )
        chain.append(successor)
        return successor

    def check_chain_invariants(self, local_state) -> None:
        """At most one in-progress successor per chain; stamps form a chain;
        an all-visible slot holds one unstamped version by a committed writer."""
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
                uncommitted = [
                    v for v in chain if local_state(v.xmin_local) == "in_progress"
                ]
                if len(uncommitted) > 1:
                    raise AssertionError(
                        f"chain {table}:{slot} has {len(uncommitted)} in-progress versions"
                    )
                for prev, nxt in zip(chain, chain[1:]):
                    if prev.xmax_local == 0:
                        raise AssertionError(
                            f"chain {table}:{slot}: successor without stamped xmax"
                        )
