package repro.core

import java.util.concurrent.ConcurrentHashMap
import java.util.concurrent.atomic.{AtomicLong, AtomicLongArray}
import scala.collection.mutable

/** Emits events at a target wall-clock rate: global sequence number `n` may
  * be emitted once `n < elapsed · rate`. All source instances of a job share
  * one pacer so the whole cluster follows a single schedule — this is how
  * the experiments "control for input throughput" (§7.1).
  */
final class Pacer(val eventsPerSecond: Double) {
  private val startNanos = new AtomicLong(Long.MinValue)

  /** Wall-clock start (first call wins). Only calls made while it is unset
    * try to set it, so the per-event path is one volatile read.
    */
  def start(): Long = {
    val s = startNanos.get()
    if (s != Long.MinValue) s
    else {
      startNanos.compareAndSet(Long.MinValue, System.nanoTime())
      startNanos.get()
    }
  }

  /** May global event `seq` be emitted now? */
  def allowed(seq: Long): Boolean = {
    val s = start()
    seq < (System.nanoTime() - s) * eventsPerSecond / 1e9
  }

  /** Wall-clock nanos at which the event with timestamp `tsMs` (relative to
    * stream origin `t0Ms`) is *due* — the latency clock origin of §7.1.
    */
  def dueNanos(tsMs: Long, t0Ms: Long): Long = startNanos.get() + (tsMs - t0Ms) * 1000000L
}

/** Bounds the event-time skew between parallel source instances.
  *
  * Keyed windowed stages emit on the *global* minimum watermark; without a
  * bound, an unthrottled fast source races arbitrarily far ahead in event
  * time and the combine stage buffers unbounded frames (a real ingestion
  * layer — Kafka partitions consumed by one balanced job — couples the
  * instances the same way). Each instance publishes its current event time;
  * an instance may emit only while it is within `maxSkewMs` of the slowest.
  * The slowest instance is never blocked, so there is no deadlock; finished
  * instances publish +inf so they never hold others back.
  */
final class SkewGuard(val maxSkewMs: Long) {
  @volatile private var slots: AtomicLongArray = _

  private def ensure(parallelism: Int): AtomicLongArray = {
    var s = slots
    if (s == null || s.length() < parallelism) synchronized {
      if (slots == null || slots.length() < parallelism) {
        val n = new AtomicLongArray(parallelism)
        var i = 0
        while (i < parallelism) { n.set(i, if (slots != null && i < slots.length()) slots.get(i) else Long.MinValue); i += 1 }
        slots = n
      }
      s = slots
    }
    s
  }

  /** May instance `idx` of `parallelism` emit an event with timestamp `t`? */
  def mayEmit(idx: Int, parallelism: Int, t: Long): Boolean = {
    val s = ensure(parallelism)
    s.lazySet(idx, t)
    var min = Long.MaxValue
    var i   = 0
    while (i < parallelism) {
      val v = s.get(i)
      if (v < min) min = v
      i += 1
    }
    min == Long.MinValue || t - maxSkewMs <= min
  }

  /** Instance `idx` has no more events. */
  def finished(idx: Int, parallelism: Int): Unit = { ensure(parallelism).set(idx, Long.MaxValue); () }
}

/** Replayable generator source (§4.5): instance `i` of `P` emits the events
  * with global sequence `n ≡ i (mod P)`, each with a deterministic value and
  * event timestamp, so a replay from a snapshotted offset is exact. Emits
  * watermarks every `wmStrideMs` of event time and a final watermark + Done
  * after `totalEvents`.
  */
final class GeneratorSourceP(
    gen: Long => Any,
    tsOf: Long => Long,
    totalEvents: Long,
    pacer: Option[Pacer],
    wmStrideMs: Long,
    skewGuard: SkewGuard = null
) extends Processor {
  /** Most events emitted per `complete` call. */
  private val BatchLimit            = 512
  private var ctx: ProcessorContext = _
  private var nextSeq               = 0L
  private var step                  = 1L
  private var lastWm                = Long.MinValue
  private var pendingWm: Watermark  = _
  private var finalWmSent           = false
  private val pacerOrNull: Pacer    = pacer.orNull

  override def init(c: ProcessorContext): Unit = {
    ctx = c
    step = c.totalParallelism.toLong
    if (nextSeq == 0L) nextSeq = c.globalIndex.toLong
  }

  def process(ordinal: Int, inbox: Inbox, outbox: Outbox): Unit = ()

  override def complete(outbox: Outbox): Boolean = {
    var emitted = 0
    while (emitted < BatchLimit) {
      if (pendingWm != null) {
        if (!outbox.offerSpecial(pendingWm)) return false
        lastWm = pendingWm.ts
        pendingWm = null
      }
      if (nextSeq >= totalEvents) {
        if (skewGuard != null) skewGuard.finished(ctx.globalIndex, ctx.totalParallelism)
        if (!finalWmSent) {
          if (!outbox.offerSpecial(Watermark(Long.MaxValue))) return false
          finalWmSent = true
        }
        return true
      }
      if (pacerOrNull != null && !pacerOrNull.allowed(nextSeq)) return false
      val ts = tsOf(nextSeq)
      // Bound inter-instance event-time skew once per batch (emitted==0).
      if (skewGuard != null && emitted == 0 &&
          !skewGuard.mayEmit(ctx.globalIndex, ctx.totalParallelism, ts)) return false
      // Watermark precedes any event of a newer stride: per-instance
      // timestamps are non-decreasing in seq, so this is always safe.
      val wmTarget = Math.floorDiv(ts, wmStrideMs) * wmStrideMs
      if (wmTarget > lastWm) {
        pendingWm = Watermark(wmTarget)
      } else {
        if (!outbox.offer(gen(nextSeq), ts)) return false
        nextSeq += step
        emitted += 1
      }
    }
    false
  }

  /** One broadcast entry, keyed by this instance's index and the vertex's
    * parallelism, since that fixes which sequence numbers are this
    * instance's.
    */
  override def saveSnapshot(): Iterator[(Any, Any)] =
    Iterator((BroadcastKey(("offset", ctx.globalIndex, ctx.totalParallelism)): Any, (nextSeq, lastWm, finalWmSent): Any))

  /** Every instance receives every instance's offset and takes its own. A
    * snapshot from another parallelism cannot be re-sliced, so it fails.
    */
  override def restoreSnapshot(entries: Iterator[(Any, Any)]): Unit = {
    var found = false
    entries.foreach {
      case (BroadcastKey(("offset", idx: Int, parallelism: Int)), v) =>
        if (parallelism != ctx.totalParallelism)
          throw new IllegalStateException(
            s"source vertex ${ctx.vertexName}: the snapshot holds offsets for parallelism $parallelism, " +
              s"this job runs it with parallelism ${ctx.totalParallelism}")
        if (idx == ctx.globalIndex) {
          val (seq, wm, f) = v.asInstanceOf[(Long, Long, Boolean)]
          nextSeq = seq; lastWm = wm; finalWmSent = f
          found = true
        }
      case other => throw new IllegalStateException(s"unexpected source snapshot entry: $other")
    }
    if (!found)
      throw new IllegalStateException(s"source vertex ${ctx.vertexName}: no offset for instance ${ctx.globalIndex}")
  }
}

/** Finite batch source over an in-memory sequence, split round-robin over
  * the instances. Emits no watermarks (batch stages assume finite input).
  */
final class BatchSourceP(data: IndexedSeq[Any]) extends Processor {
  /** Most items emitted per `complete` call. */
  private val BatchLimit            = 512
  private var ctx: ProcessorContext = _
  private var next                  = 0L
  override def init(c: ProcessorContext): Unit = { ctx = c; next = c.globalIndex.toLong }

  def process(ordinal: Int, inbox: Inbox, outbox: Outbox): Unit = ()

  override def complete(outbox: Outbox): Boolean = {
    var emitted = 0
    while (emitted < BatchLimit) {
      if (next >= data.size) return true
      if (!outbox.offer(data(next.toInt), 0L)) return false
      next += ctx.totalParallelism
      emitted += 1
    }
    false
  }
}

/** A fused chain of stateless operators (§3.1 "operator fusion"): the whole
  * chain is one function `Any => Iterator[Any]` applied in a single tasklet.
  */
final class FusedStatelessP(f: Any => Iterator[Any]) extends Processor {
  def process(ordinal: Int, inbox: Inbox, outbox: Outbox): Unit =
    while (!outbox.hasPending && inbox.nonEmpty) {
      val d  = inbox.poll()
      val it = f(d.value)
      while (it.hasNext) outbox.emit(it.next(), d.timestamp)
    }
}

/** Terminal sink applying `f(value, eventTs)` to every record — used for
  * collectors and the latency-measuring sinks of the experiments.
  */
final class ForeachSinkP(f: (Any, Long) => Unit) extends Processor {
  def process(ordinal: Int, inbox: Inbox, outbox: Outbox): Unit = {
    var d = inbox.poll()
    while (d != null) { f(d.value, d.timestamp); d = inbox.poll() }
  }
}

/** External output store with *idempotent transactional writes* (§4.5): a
  * transaction (sinkInstance, snapshotId) commits at most once, so replays
  * after recovery cannot duplicate output.
  */
final class ResultStore {
  private val committed = new ConcurrentHashMap[(Int, Long), Vector[Any]]()

  def commitTxn(sinkInstance: Int, txnId: Long, items: Vector[Any]): Unit =
    committed.putIfAbsent((sinkInstance, txnId), items)

  def results: Vector[Any] = {
    import scala.jdk.CollectionConverters._
    committed.asScala.toVector.sortBy { case ((i, t), _) => (t, i) }.flatMap(_._2)
  }

  def txnCount: Int = committed.size
}

/** Exactly-once sink: buffers output, seals the buffer into a transaction
  * when the snapshot barrier arrives (phase 1), and publishes it only when
  * the snapshot commits cluster-wide (phase 2) — the two-phase commit of
  * §4.5. Prepared-but-unpublished transactions ride inside the snapshot, so
  * restore republishes them (idempotently).
  */
final class TransactionalSinkP(store: ResultStore) extends Processor {
  private var ctx: ProcessorContext = _
  private val buffer                = mutable.ArrayBuffer.empty[Any]
  private val prepared              = mutable.TreeMap.empty[Long, Vector[Any]]

  override def init(c: ProcessorContext): Unit = ctx = c

  def process(ordinal: Int, inbox: Inbox, outbox: Outbox): Unit = {
    var d = inbox.poll()
    while (d != null) { buffer += d.value; d = inbox.poll() }
  }

  override def onSnapshot(snapshotId: Long): Unit = {
    prepared(snapshotId) = buffer.toVector
    buffer.clear()
  }

  override def onSnapshotCommitted(snapshotId: Long): Unit = {
    val ready = prepared.rangeTo(snapshotId).keys.toVector
    ready.foreach { id => store.commitTxn(ctx.globalIndex, id, prepared(id)); prepared.remove(id) }
  }

  override def complete(outbox: Outbox): Boolean = {
    // Finite job end: publish whatever remains as a final transaction.
    prepared.foreach { case (id, items) => store.commitTxn(ctx.globalIndex, id, items) }
    prepared.clear()
    if (buffer.nonEmpty) {
      store.commitTxn(ctx.globalIndex, Long.MaxValue, buffer.toVector)
      buffer.clear()
    }
    true
  }

  /** A transaction is named by its writer and snapshot id, so whichever
    * instance restores it publishes it under the writer's name.
    */
  override def saveSnapshot(): Iterator[(Any, Any)] =
    prepared.iterator.map { case (id, items) => (("txn", ctx.globalIndex, id): Any, items: Any) }

  override def restoreSnapshot(entries: Iterator[(Any, Any)]): Unit =
    entries.foreach {
      case (("txn", writer: Int, id: Long), items) =>
        // These transactions are part of the committed snapshot: publish
        // them; commitTxn dedupes if they already made it out pre-crash.
        store.commitTxn(writer, id, items.asInstanceOf[Vector[Any]])
      case other => throw new IllegalStateException(s"unexpected sink snapshot entry: $other")
    }
}

/** Hybrid batch+stream hash join (§2.1, Listing 2): ordinal 0 is the finite
  * *build* side (a broadcast edge — every instance gets the whole table,
  * drained to completion first via edge priority); ordinal 1 probes.
  */
final class HashJoinP(
    buildKeyFn: Any => Any,
    probeKeyFn: Any => Any,
    joinFn: (Any, Vector[Any]) => Iterator[Any]
) extends Processor {
  private val table = mutable.HashMap.empty[Any, mutable.ArrayBuffer[Any]]

  def process(ordinal: Int, inbox: Inbox, outbox: Outbox): Unit =
    if (ordinal == 0) {
      var d = inbox.poll()
      while (d != null) {
        table.getOrElseUpdate(buildKeyFn(d.value), mutable.ArrayBuffer.empty) += d.value
        d = inbox.poll()
      }
    } else {
      while (!outbox.hasPending && inbox.nonEmpty) {
        val d       = inbox.poll()
        val matches = table.get(probeKeyFn(d.value)).map(_.toVector).getOrElse(Vector.empty)
        val it      = joinFn(d.value, matches)
        while (it.hasNext) outbox.emit(it.next(), d.timestamp)
      }
    }
}

/** Batch grouped aggregation, stage 1: local partial accumulators per key,
  * emitted as (key, acc) on completion.
  */
final class AccumulateBatchP[A](keyFn: Any => Any, aggrOp: AggregateOperation[A, _])
    extends Processor {
  private val accs = mutable.HashMap.empty[Any, A]

  def process(ordinal: Int, inbox: Inbox, outbox: Outbox): Unit = {
    var d = inbox.poll()
    while (d != null) {
      aggrOp.accumulate(accs.getOrElseUpdate(keyFn(d.value), aggrOp.create()), d.value)
      d = inbox.poll()
    }
  }

  override def complete(outbox: Outbox): Boolean = {
    accs.foreach { case (k, a) => outbox.emit((k, a), 0L) }
    accs.clear()
    outbox.flush()
  }
}

/** Batch grouped aggregation, stage 2: combines (key, acc) partials arriving
  * over a key-partitioned distributed edge, emits `(key, finish)`.
  */
final class CombineBatchP[A, R](aggrOp: AggregateOperation[A, R]) extends Processor {
  private val accs = mutable.HashMap.empty[Any, A]

  def process(ordinal: Int, inbox: Inbox, outbox: Outbox): Unit = {
    var d = inbox.poll()
    while (d != null) {
      val (k, a) = d.value.asInstanceOf[(Any, A)]
      accs.get(k) match {
        case Some(existing) => aggrOp.combine(existing, a)
        case None           => accs(k) = a
      }
      d = inbox.poll()
    }
  }

  override def complete(outbox: Outbox): Boolean = {
    accs.foreach { case (k, a) => outbox.emit((k, aggrOp.finish(a)), 0L) }
    accs.clear()
    outbox.flush()
  }
}
