"""The end of a transaction: a commit under its protocol, or an abort.

This is the coordinator's distributed transaction manager at work, the
commit path of Greenplum's `cdbtm.c`.  Each end is one generator over the
cluster, `commit` or `abort`, kept as the session's end in flight.  It sends
one message round at a time (`_round`) and waits for every segment's reply
(`_reply`) before the next; a segment prepares (`_segment_prepare`) or ends
the transaction locally (`_segment_end`), and both count their fsyncs
(`_fsync`).  `_finish_txn` records the outcome on the coordinator.
"""

from __future__ import annotations

from collections.abc import Generator
from functools import partial
from typing import TYPE_CHECKING

from . import dtm as dtm_mod
from .dtm import Protocol, TransactionDescriptor
from .trace import (
    ABORT_LOCAL,
    ABORT_START,
    COMMIT_LOCAL,
    COMMIT_START,
    COORD,
    END_LOCAL,
    FSYNC,
    PREPARE_FAIL,
    PREPARE_FAILED,
    PREPARED,
    TXN_END,
)

if TYPE_CHECKING:
    from .segment import Segment, Site
    from .sim import Cluster, Session

_ONE_PHASE, _TWO_PHASE = Protocol.ONE_PHASE, Protocol.TWO_PHASE


def _touched_segments(cl: Cluster, txn: TransactionDescriptor) -> list[Segment]:
    """The segments where `txn` has a lock request: a local xid's segment
    among them, since the xid holds its transaction lock until `release_all`."""
    return [seg for seg in cl.segments if seg.locks.has_requests(txn.dxid)]


def commit(cl: Cluster, session: Session):
    """Commit `session.txn` under the protocol `plan_commit` picks.

    Under 2PC the writers prepare, and once all have, the coordinator
    makes its commit record durable.  Then touched segments that wrote
    nothing end the transaction locally, uncounted, and the commit round
    goes to the writers: one-phase commit is that round alone, over its
    one writer, and a read-only commit has no site to wait for, so it
    finishes at once.
    """
    txn = session.txn
    protocol = cl.dtm.plan_commit(txn, cl.config.force_2pc)
    txn.protocol = protocol
    touched = _touched_segments(cl, txn)
    written = txn.write_segments
    writers = [cl.segments[s] for s in written]
    cl._log(("coord", COMMIT_START, session.sid, txn.dxid, protocol, written))
    if protocol is _TWO_PHASE:
        yield from _round(cl, session, writers, dtm_mod.MSG_PREPARE, _segment_prepare)
        _fsync(cl, cl.coord, txn, dtm_mod.FSYNC_COORD_COMMIT)
    for seg in touched:
        if seg.id not in written:
            cl.send(COORD, seg.id, partial(_segment_end, cl, seg, txn, True))
    commit_at = partial(_segment_end, committed=True)
    yield from _round(cl, session, writers, dtm_mod.MSG_COMMIT, commit_at)
    _finish_txn(cl, session, committed=True)


def abort(cl: Cluster, session: Session, reason: str):
    """Abort `session.txn`: kill its statement and parked parts, then an
    abort round over every touched segment."""
    txn = session.txn
    stmt = session.stmt
    if stmt is not None:
        if stmt.step.kind == "update" and stmt.outstanding:
            cl.inflight_updates -= 1  # undo the dispatch's increment
        stmt.dead = True
        session.stmt = None
    for site in cl.sites:
        site.parked.pop(txn.dxid, None)
    touched = _touched_segments(cl, txn)
    cl._log(("coord", ABORT_START, session.sid, txn.dxid, reason))
    abort_at = partial(_segment_end, committed=False)
    yield from _round(cl, session, touched, None, abort_at)
    _finish_txn(cl, session, committed=False, reason=reason)


def _round(cl: Cluster, session: Session, segments: list[Segment], msg: str | None, at_site):
    """Send `msg` to each segment in order, where `at_site(cl, segment, txn,
    reply=...)` runs and answers through `reply(site, msg)`; return once
    every segment has answered, at once if there is none.  Abort messages
    are not counted (`msg` is None)."""
    txn = session.txn
    reply = partial(_reply, cl, session, session.end)
    for seg in segments:
        if msg is not None:
            txn.count(msg)
        cl.send(COORD, seg.id, partial(at_site, cl, seg, txn, reply=reply))
    for _ in segments:
        yield


def _reply(cl: Cluster, session: Session, end: Generator, site: int, msg, ok=True) -> None:
    """A site's reply to the session's end `end`, counted as `msg`; dropped
    unless `end` is still the end in flight.  A vetoed prepare (`ok`
    False) aborts instead."""
    if session.end is not end:
        return
    txn = session.txn
    if not ok:
        cl._log(("coord", PREPARE_FAILED, txn.dxid, site))
        cl._start_abort(session, "prepare_failed")
        return
    if msg is not None:
        txn.count(msg)
    next(end, None)


def _segment_prepare(cl: Cluster, seg: Segment, txn: TransactionDescriptor, reply) -> None:
    if cl._prepare_veto(seg.id, txn):
        cl._log((seg.id, PREPARE_FAIL, txn.dxid))
        cl.send(seg.id, COORD, partial(reply, seg.id, None, ok=False))
        return
    _fsync(cl, seg, txn, dtm_mod.FSYNC_SEGMENT_PREPARE)
    cl._log((seg.id, PREPARED, txn.dxid))
    cl.send(seg.id, COORD, partial(reply, seg.id, dtm_mod.MSG_PREPARE_OK))


def _segment_end(
    cl: Cluster, seg: Segment, txn: TransactionDescriptor, committed: bool, reply=None
) -> None:
    """End `txn` on one segment as `committed` says: record its local
    outcome, release its locks and wake their waiters.

    With no `reply` this is the local end of a segment that the commit
    round does not visit.  In a commit round the segment first makes its
    commit durable; in a commit or abort round it then replies.
    """
    if reply is not None and committed:
        _fsync(cl, seg, txn, dtm_mod.FSYNC_SEGMENT_COMMIT)
    s = seg.id
    local = txn.local_xids[s] if txn.local_xids else None
    if local is not None:
        seg.states[local] = "committed" if committed else "aborted"
    promoted = seg.locks.release_all(txn.dxid)
    if reply is None:
        cl._log((s, END_LOCAL, txn.dxid))
    elif committed:
        cl._log((s, COMMIT_LOCAL, txn.dxid, txn.protocol is _ONE_PHASE))
    else:
        cl._log((s, ABORT_LOCAL, txn.dxid))
    seg.wake(promoted)
    if reply is not None:
        cl.send(s, COORD, partial(reply, s, dtm_mod.MSG_COMMIT_OK if committed else None))


def _fsync(cl: Cluster, site: Site, txn, kind: str) -> None:
    txn.count(kind)
    cl._log((site.id, FSYNC, txn.dxid, kind))


def _finish_txn(cl: Cluster, session: Session, committed: bool, reason: str = "") -> None:
    txn = session.txn
    if committed:
        cl.dtm.mark_committed(txn.dxid)
        cl.committed_txns += 1
        session.outcomes.append("committed")
    else:
        cl.dtm.mark_aborted(txn.dxid)
        cl.aborted_txns += 1
        session.outcomes.append(f"aborted:{reason}" if reason else "aborted")
    txn.latency_ticks = cl.clock - txn.begin_tick
    session.txn_latencies.append(txn.latency_ticks)
    cl.coord.wake(cl.coord.locks.release_all(txn.dxid))
    cl._log(("coord", TXN_END, session.sid, txn.dxid, session.outcomes[-1]))
    if session.group:
        cl.ledger.release(session.sid)
        freed = cl.admission.complete(session.group)
        if freed is not None:
            waiter = cl.sessions[freed]
            cl.schedule(0, lambda: cl._begin_admitted(waiter))
    session.txn = None
    session.end = None
    cl._progress += 1
    if not committed and reason != "user":
        session.skip_until_begin = True
    cl._session_freed(session)
