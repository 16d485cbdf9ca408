package repro.core

import repro.imdg.PartitionAware

/** Identity and placement of one parallel processor instance. */
final case class ProcessorContext(
    jobId: Long,
    vertexName: String,
    globalIndex: Int,
    totalParallelism: Int,
    nodeId: Int
)

/** The unit of computation at a DAG vertex (§3.2 "Jet Processors").
  *
  * A processor is driven entirely by its tasklet and must never block: every
  * method does a bounded amount of work and returns. It emits with
  * `outbox.emit`, which always accepts, and holds no output of its own:
  * output that cannot be delivered yet waits in the outbox, where the
  * tasklet sees it and delivers it before any later watermark or snapshot
  * barrier. Backpressure is the outbox having pending items — the processor
  * then leaves the remaining input in the inbox and the tasklet retries on a
  * later call.
  */
trait Processor {

  def init(ctx: ProcessorContext): Unit = ()

  /** Consume items from `inbox` (input edge `ordinal`), emitting to
    * `outbox`. Stop consuming — leaving items in the inbox — while
    * `outbox.hasPending`.
    */
  def process(ordinal: Int, inbox: Inbox, outbox: Outbox): Unit

  /** The coalesced event-time of all inputs advanced to `wm`. Emit any
    * closed windows; return `outbox.flush()`. The tasklet calls again with
    * the same watermark (and no input in between) until this returns true,
    * then forwards the watermark downstream, so a repeated call must emit
    * nothing new: remove the state you emit.
    */
  def tryProcessWatermark(wm: Watermark, outbox: Outbox): Boolean = outbox.flush()

  /** Called once all inputs are exhausted (finite streams), repeatedly
    * until it returns true; as with `tryProcessWatermark`, a repeated call
    * must not emit again. Source processors live entirely in `complete`:
    * they emit with `outbox.offer`, which refuses while items are pending.
    */
  def complete(outbox: Outbox): Boolean = outbox.flush()

  /** A snapshot barrier reached this processor (before `saveSnapshot`).
    * Transactional sinks use this to seal the current transaction (§4.5).
    */
  def onSnapshot(snapshotId: Long): Unit = ()

  /** Snapshot `snapshotId` completed cluster-wide — the second phase of the
    * sink's two-phase commit (§4.5).
    */
  def onSnapshotCommitted(snapshotId: Long): Unit = ()

  /** State entries for a checkpoint (§4.4). Must be safe to retain after
    * the call (copy mutable accumulators). An entry's key places it: a
    * keyed entry is restored to the instance that owns the key's partition,
    * the one its vertex's partitioned input edge routes that key to; an
    * entry under a [[BroadcastKey]] is restored to every instance.
    */
  def saveSnapshot(): Iterator[(Any, Any)] = Iterator.empty

  /** Restore this instance's share of a checkpoint: the keyed entries it
    * owns now and every instance's broadcast entries.
    */
  def restoreSnapshot(entries: Iterator[(Any, Any)]): Unit = ()
}

/** A snapshot entry key that belongs to no partition: the entry is restored
  * to every instance of its vertex (Jet's `BroadcastKey`). Used for
  * per-instance bookkeeping such as source offsets and window-close
  * progress.
  */
final case class BroadcastKey(key: Any)

/** The IMDG key of one snapshot entry: the writing vertex and instance plus
  * the entry's own key, which alone places it. `writerIdx` only keeps the
  * keys of different writers apart.
  */
final case class SnapshotKey(vertex: String, writerIdx: Int, entryKey: Any) extends PartitionAware {
  def partitionKey: Any = entryKey
}
