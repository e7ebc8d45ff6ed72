"""The end of a transaction: a commit under its protocol, or an abort.

This is the coordinator's distributed transaction manager at work, the
commit path of Greenplum's `cdbtm.c`.  Each end is one generator over the
cluster, `commit` or `abort`, kept as the session's end in flight.  It sends
one message round at a time (`_round`) and waits for every segment's reply
(`_reply`) before the next.  A segment prepares (`_segment_prepare`),
commits (`_segment_commit`) or aborts (`_segment_abort`) the transaction;
the last two end it there (`_end_here`), as a touched segment that wrote
nothing does, with no reply, before the commit round.  Both sides count their
fsyncs (`_fsync`).  `_finish_txn` records the outcome on the coordinator.

A round message is one flat call, `partial(handler, cl, segment, txn,
session, end)`, and its reply one flat call, `partial(_reply, cl, session,
end, site, msg)`, with `ok` False added for a vetoed prepare: a reply names
the end it answers, so one that arrives once that end is no longer in
flight is dropped.
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
_MSG_PREPARE, _MSG_PREPARE_OK = dtm_mod.MSG_PREPARE, dtm_mod.MSG_PREPARE_OK
_MSG_COMMIT, _MSG_COMMIT_OK = dtm_mod.MSG_COMMIT, dtm_mod.MSG_COMMIT_OK


def commit(cl: Cluster, session: Session):
    """Commit `session.txn` under the protocol `plan_commit` picks.

    Under 2PC the writers prepare, and once all have, the coordinator
    makes its commit record durable.  Then touched segments that wrote
    nothing end the transaction locally, uncounted, and the commit round
    goes to the writers: one-phase commit is that round alone, over its
    one writer, and a read-only commit has no site to wait for, so it
    finishes at once.  The writers are the segments with a local xid; a
    touched segment is one where the transaction has a lock request, a
    writer among them, since its xid holds its transaction lock until
    `release_all`.
    """
    txn = session.txn
    protocol = cl.dtm.plan_commit(txn, cl.config.force_2pc)
    txn.protocol = protocol
    dxid, xids = txn.dxid, txn.local_xids
    writers: list[Segment] = []
    others: list[Segment] = []  # touched, and wrote nothing
    for seg in cl.segments:
        if xids and xids[seg.id] is not None:
            writers.append(seg)
        elif seg.locks.has_requests(dxid):
            others.append(seg)
    written = tuple([seg.id for seg in writers])
    cl._log(("coord", COMMIT_START, session.sid, dxid, protocol, written))
    if protocol is _TWO_PHASE:
        yield from _round(cl, session, writers, _MSG_PREPARE, _segment_prepare)
        _fsync(cl, cl.coord, txn, dtm_mod.FSYNC_COORD_COMMIT)
    for seg in others:
        event = (seg.id, END_LOCAL, dxid)
        cl.send(COORD, seg.id, partial(_end_here, cl, seg, txn, "committed", event))
    yield from _round(cl, session, writers, _MSG_COMMIT, _segment_commit)
    _finish_txn(cl, session, committed=True)


def abort(cl: Cluster, session: Session, reason: str):
    """Abort `session.txn`: kill its statement and parked parts, then an
    abort round over every touched segment, each segment where it has a
    lock request."""
    txn = session.txn
    stmt = session.stmt
    if stmt is not None:
        if stmt.step.kind == "update" and stmt.outstanding:
            cl.inflight_updates -= 1  # undo the dispatch's increment
        stmt.dead = True
        session.stmt = None
    for site in cl.sites:
        site.parked.pop(txn.dxid, None)
    touched = [seg for seg in cl.segments if seg.locks.has_requests(txn.dxid)]
    cl._log(("coord", ABORT_START, session.sid, txn.dxid, reason))
    yield from _round(cl, session, touched, None, _segment_abort)
    _finish_txn(cl, session, committed=False, reason=reason)


def _round(cl: Cluster, session: Session, segments: list[Segment], msg: str | None, handler):
    """Send `msg` to each segment in order and return once every segment has
    answered, at once if there is none.  Abort messages are not counted
    (`msg` is None).

    The message to `segment` is one call, `handler(cl, segment, txn,
    session, end)`, with `end` the session's end in flight as the round
    starts; the handler answers with one call, `_reply(cl, session, end,
    segment.id, reply_msg)`, so the reply names the end it answers.  No
    other call wraps either."""
    txn = session.txn
    end = session.end
    send = cl.send
    for seg in segments:
        if msg is not None:
            txn.count(msg)
        send(COORD, seg.id, partial(handler, cl, seg, txn, session, end))
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
        cl._start_abort(session, dtm_mod.ABORT_PREPARE_FAILED)
        return
    if msg is not None:
        txn.count(msg)
    next(end, None)


def _segment_prepare(
    cl: Cluster, seg: Segment, txn: TransactionDescriptor, session: Session, end: Generator
) -> None:
    s = seg.id
    if cl._prepare_veto(s, txn):
        cl._log((s, PREPARE_FAIL, txn.dxid))
        cl.send(s, COORD, partial(_reply, cl, session, end, s, None, False))
        return
    _fsync(cl, seg, txn, dtm_mod.FSYNC_SEGMENT_PREPARE)
    cl._log((s, PREPARED, txn.dxid))
    cl.send(s, COORD, partial(_reply, cl, session, end, s, _MSG_PREPARE_OK))


def _segment_commit(
    cl: Cluster, seg: Segment, txn: TransactionDescriptor, session: Session, end: Generator
) -> None:
    """Commit `txn` on one of its writers: make the commit durable, end it
    here and reply."""
    _fsync(cl, seg, txn, dtm_mod.FSYNC_SEGMENT_COMMIT)
    s = seg.id
    _end_here(cl, seg, txn, "committed", (s, COMMIT_LOCAL, txn.dxid, txn.protocol is _ONE_PHASE))
    cl.send(s, COORD, partial(_reply, cl, session, end, s, _MSG_COMMIT_OK))


def _segment_abort(
    cl: Cluster, seg: Segment, txn: TransactionDescriptor, session: Session, end: Generator
) -> None:
    """Abort `txn` on one segment it touched, and reply."""
    s = seg.id
    _end_here(cl, seg, txn, "aborted", (s, ABORT_LOCAL, txn.dxid))
    cl.send(s, COORD, partial(_reply, cl, session, end, s, None))


def _end_here(cl: Cluster, seg: Segment, txn: TransactionDescriptor, outcome: str, event) -> None:
    """End `txn` on `seg`: record its local `outcome`, release its locks,
    log `event` and wake the waiters granted.  This is the whole local end,
    with no reply, of a committed transaction on a segment it touched but
    did not write, which the commit round does not visit."""
    xids = txn.local_xids
    if xids:
        local = xids[seg.id]
        if local is not None:
            seg.states[local] = outcome
    promoted = seg.locks.release_all(txn.dxid)
    cl._log(event)
    seg.wake(promoted)


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
    if not committed and reason != dtm_mod.ABORT_USER:
        session.skip_until_begin = True
    cl._session_freed(session)
