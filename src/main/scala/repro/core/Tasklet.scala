package repro.core

/** Result of one tasklet execution slice. */
sealed trait TaskletState
object TaskletState {
  case object MadeProgress extends TaskletState
  case object NoProgress   extends TaskletState
  case object Done         extends TaskletState
}

/** A tasklet: a tiny computational unit that runs a short, non-blocking
  * slice of work each time `call()` is invoked and voluntarily yields
  * (§3.2). Tasklets never block — they report NoProgress and let the
  * worker's idler back off.
  */
trait Tasklet {
  def call(): TaskletState

  /** Invoked by the worker when `call()` throws. */
  def handleFailure(e: Throwable): Unit = ()
}

/** Processing guarantee of a job (§4.4–4.5). */
sealed trait Guarantee
object Guarantee {
  case object NoGuarantee extends Guarantee
  case object AtLeastOnce extends Guarantee
  case object ExactlyOnce extends Guarantee
}

/** One inbound queue of a processor tasklet, with per-channel watermark,
  * completion and barrier bookkeeping. `link` is non-null when the queue's
  * producer sits on another node (receive-window accounting, §3.3).
  */
final class InputChannel(
    val queue: SpscQueue,
    val ordinal: Int,
    val priority: Int,
    val link: ReceiveWindow
) {
  var lastWm: Long    = Long.MinValue
  var done: Boolean   = false
  var barrierId: Long = -1L
}

/** Drives one processor instance: refills its inbox from the input queues,
  * coalesces watermarks (min across inputs), aligns snapshot barriers
  * (blocking per-channel for exactly-once, non-blocking for at-least-once,
  * §4.4), takes state snapshots into the IMDG, and flushes the outbox —
  * all in bounded, non-blocking slices (§3.2).
  */
final class ProcessorTasklet(
    val taskletId: String,
    ctx: ProcessorContext,
    processor: Processor,
    inputs: Array[InputChannel],
    outbox: Outbox,
    guarantee: Guarantee,
    snapshotCtl: SnapshotController, // null when fault tolerance is off
    snapshotWriter: (Long, Iterator[(Any, Any)]) => Unit,
    onFinished: ProcessorTasklet => Unit,
    onFailure: Throwable => Unit
) extends Tasklet {

  /** Most items drained from one input channel per call. */
  private val BatchLimit = 256

  private val inbox                        = new Inbox
  private var inboxOrdinal                 = 0
  private var pendingWatermark: Watermark  = _
  private var pendingBarrier: SnapshotBarrier = _
  private var emittedWm                    = Long.MinValue
  private var alignmentId                  = -1L
  private var lastSnapshotId               = if (snapshotCtl != null) snapshotCtl.requestedId else 0L
  private var lastCommittedDelivered       = if (snapshotCtl != null) snapshotCtl.committedId else 0L
  private var doneBroadcast                = false
  private var doneReported                 = false
  @volatile var cancelled: Boolean         = false

  private def isSource: Boolean = inputs.isEmpty

  // The execution plan calls processor.init (and restoreSnapshot) before
  // the tasklet ever runs.

  def call(): TaskletState = {
    if (cancelled) return finish(reportDone = false)
    var progress = false

    // 1. Deliver parked outbox items.
    if (outbox.hasPending) {
      if (outbox.flush()) progress = true
      else return result(progress)
    }

    // 2. Deliver cluster-wide snapshot-commit notifications (sink phase 2).
    if (snapshotCtl != null) {
      val cid = snapshotCtl.committedId
      if (cid > lastCommittedDelivered) {
        processor.onSnapshotCommitted(cid)
        lastCommittedDelivered = cid
        progress = true
      }
    }

    // 3. Finish processing inbox leftovers from a backpressured slice.
    if (inbox.nonEmpty) {
      processor.process(inboxOrdinal, inbox, outbox)
      if (inbox.nonEmpty) return TaskletState.MadeProgress
      progress = true
    }

    // 4. Pending watermark: let the processor close windows, then forward.
    if (pendingWatermark != null) {
      if (!processor.tryProcessWatermark(pendingWatermark, outbox))
        return TaskletState.MadeProgress
      if (!outbox.offerSpecial(pendingWatermark)) return TaskletState.MadeProgress
      emittedWm = pendingWatermark.ts
      pendingWatermark = null
      progress = true
    }

    // 5. Pending barrier: forward downstream, then ack to the controller.
    if (pendingBarrier != null) {
      if (!outbox.offerSpecial(pendingBarrier)) return TaskletState.MadeProgress
      if (snapshotCtl != null) snapshotCtl.ack(taskletId, pendingBarrier.snapshotId)
      pendingBarrier = null
      progress = true
    }

    if (isSource) runSource(progress) else runInner(progress)
  }

  private def runSource(progressSoFar: Boolean): TaskletState = {
    var progress = progressSoFar
    if (doneBroadcast) return finishWhenDrained()
    // Sources initiate snapshots: poll the controller for a new request.
    if (snapshotCtl != null) {
      val rid = snapshotCtl.requestedId
      if (rid > lastSnapshotId) {
        takeSnapshot(rid)
        return TaskletState.MadeProgress // barrier forwarded next slice
      }
    }
    val before = outbox.acceptedCount
    val done   = processor.complete(outbox)
    if (outbox.acceptedCount > before) progress = true
    if (done) return finishWhenDrained()
    result(progress)
  }

  /** Broadcast Done (once) and finish only after every parked outbox item —
    * including the Done itself — has been delivered; a parked item on a
    * momentarily-full queue must not be dropped by the tasklet retiring.
    */
  private def finishWhenDrained(): TaskletState = {
    if (!doneBroadcast) {
      if (!outbox.offerSpecial(Done)) return TaskletState.MadeProgress
      doneBroadcast = true
    }
    if (!outbox.flush()) return TaskletState.MadeProgress
    finish(reportDone = true)
  }

  private def runInner(progressSoFar: Boolean): TaskletState = {
    var progress = progressSoFar

    // Barrier alignment completed? Snapshot before draining anything else.
    if (alignmentId != -1L && alignmentReady) {
      takeSnapshot(alignmentId)
      val id = alignmentId
      alignmentId = -1L
      var i = 0
      while (i < inputs.length) {
        if (inputs(i).barrierId == id) inputs(i).barrierId = -1L
        i += 1
      }
      return TaskletState.MadeProgress
    }

    if (drainAndProcess()) progress = true
    if (inbox.nonEmpty) return TaskletState.MadeProgress // backpressured mid-drain

    // Coalesced watermark: min over unfinished channels.
    if (pendingWatermark == null) {
      var minWm  = Long.MaxValue
      var anyWm  = false
      var active = false
      var i      = 0
      while (i < inputs.length) {
        val ch = inputs(i)
        if (!ch.done) {
          active = true
          anyWm = true
          if (ch.lastWm < minWm) minWm = ch.lastWm
        }
        i += 1
      }
      if (active && anyWm && minWm > emittedWm && minWm != Long.MinValue) {
        pendingWatermark = Watermark(minWm)
        progress = true
      }
    }

    // All inputs exhausted: complete, emit Done, finish (only once the
    // outbox has fully drained).
    if (inputs.forall(_.done) && inbox.isEmpty && pendingWatermark == null && pendingBarrier == null) {
      val before = outbox.acceptedCount
      if (doneBroadcast || processor.complete(outbox)) return finishWhenDrained()
      if (outbox.acceptedCount > before) progress = true
    }

    result(progress)
  }

  /** Drain the active-priority channels into the inbox and run the
    * processor on each channel's batch. Returns true on any progress.
    */
  private def drainAndProcess(): Boolean = {
    var progress = false
    var activePriority = Int.MaxValue
    var i = 0
    while (i < inputs.length) {
      val ch = inputs(i)
      if (!ch.done && ch.priority < activePriority) activePriority = ch.priority
      i += 1
    }
    i = 0
    while (i < inputs.length) {
      val ch = inputs(i)
      val blocked = guarantee == Guarantee.ExactlyOnce &&
        alignmentId != -1L && ch.barrierId == alignmentId
      if (!ch.done && ch.priority == activePriority && !blocked) {
        var n    = 0
        var stop = false
        while (!stop && n < BatchLimit) {
          val item = ch.queue.poll()
          if (item == null) stop = true
          else {
            n += 1
            item match {
              case d: DataItem        => inbox.add(d)
              case Watermark(ts)      => ch.lastWm = ts
              case b: SnapshotBarrier =>
                handleBarrier(ch, b)
                if (guarantee == Guarantee.ExactlyOnce) stop = true
              case Done =>
                ch.done = true
                stop = true
            }
          }
        }
        if (ch.link != null) {
          if (n > 0) ch.link.onReceive(n) else ch.link.maybeAck()
        }
        if (n > 0) progress = true
        if (inbox.nonEmpty) {
          inboxOrdinal = ch.ordinal
          processor.process(ch.ordinal, inbox, outbox)
          if (inbox.nonEmpty) return true // outbox refused; retry next slice
        }
      }
      i += 1
    }
    progress
  }

  private def handleBarrier(ch: InputChannel, b: SnapshotBarrier): Unit = {
    if (alignmentId == -1L) alignmentId = b.snapshotId
    require(
      b.snapshotId == alignmentId,
      s"overlapping snapshots: aligning $alignmentId, received ${b.snapshotId}"
    )
    ch.barrierId = b.snapshotId
  }

  private def alignmentReady: Boolean =
    inputs.forall(ch => ch.done || ch.barrierId == alignmentId) &&
      inbox.isEmpty && pendingWatermark == null && pendingBarrier == null && !outbox.hasPending

  private def takeSnapshot(id: Long): Unit = {
    processor.onSnapshot(id)
    snapshotWriter(id, processor.saveSnapshot())
    lastSnapshotId = id
    pendingBarrier = SnapshotBarrier(id)
  }

  private def finish(reportDone: Boolean): TaskletState = {
    if (!doneReported) {
      doneReported = true
      if (snapshotCtl != null) {
        if (reportDone && isSource) {
          val last = processor.saveSnapshot().toVector
          snapshotCtl.sourceFinished(taskletId, lastSnapshotId, id => snapshotWriter(id, last.iterator))
        } else snapshotCtl.taskletFinished(taskletId)
      }
      onFinished(this)
    }
    TaskletState.Done
  }

  private def result(progress: Boolean): TaskletState =
    if (progress) TaskletState.MadeProgress else TaskletState.NoProgress

  override def handleFailure(e: Throwable): Unit = {
    if (snapshotCtl != null) snapshotCtl.taskletFinished(taskletId)
    onFailure(e)
  }

  override def toString = s"Tasklet($taskletId)"
}
