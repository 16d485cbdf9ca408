package repro.core

import repro.imdg.Partitioning

/** Destination a producer can push stream items into: either a plain local
  * SPSC queue or a flow-controlled remote link (§3.3).
  */
trait QueueSink {
  def offer(item: AnyRef): Boolean
}

/** Sink over a same-member SPSC queue. */
final class LocalQueueSink(val queue: SpscQueue) extends QueueSink {
  def offer(item: AnyRef): Boolean = queue.offer(item)
}

/** How an edge routes data items to the consumer instances (§2.2). */
sealed trait RoutingPolicy
object RoutingPolicy {
  /** Any consumer — items spread round-robin, skipping full queues. */
  case object RoundRobin extends RoutingPolicy
  /** Key-partitioned: the consumer owning `keyFn(item)`'s IMDG partition
    * gets the item ([[PartitionOwnership]], §4.1).
    */
  final case class Partitioned(keyFn: Any => Any) extends RoutingPolicy
  /** Every consumer receives every item (e.g. a hash-join build side). */
  case object Broadcast extends RoutingPolicy
}

/** Routes one producer's output over one edge to that edge's consumer sinks.
  * A partitioned edge sends an item to `sinks(routes(partition))`, `routes`
  * being its partition → sink table from [[PartitionOwnership.routes]]
  * (other edges may pass null).
  *
  * Every item goes through [[Outbox.deliver]], which parks it in the outbox's
  * pending queue when its sink is full or earlier items still wait there.
  */
final class EdgeCollector(val sinks: Array[QueueSink], val routing: RoutingPolicy, routes: Array[Int]) {
  require(sinks.nonEmpty, "edge with no consumers")
  private var rrCursor = 0

  /** The edge as one member runs it: partition `p` goes to sink
    * `p % sinks.length`.
    */
  def this(sinks: Array[QueueSink], routing: RoutingPolicy) =
    this(sinks, routing, PartitionOwnership.singleMember.routes(sinks.length, distributed = false))

  private[core] def route(item: DataItem, outbox: Outbox): Unit =
    routing match {
      case RoutingPolicy.Partitioned(keyFn) =>
        outbox.deliver(sinks(routes(Partitioning.partitionId(keyFn(item.value), routes.length))), item)
      case RoutingPolicy.RoundRobin =>
        var tried = 0
        while (tried < sinks.length) {
          if (outbox.tryDeliver(nextSink(), item)) return
          tried += 1
        }
        // All full: park on the next cursor position to preserve fairness.
        outbox.deliver(nextSink(), item)
      case RoutingPolicy.Broadcast =>
        broadcast(item, outbox)
    }

  private[core] def broadcast(item: AnyRef, outbox: Outbox): Unit = {
    var i = 0
    while (i < sinks.length) { outbox.deliver(sinks(i), item); i += 1 }
  }

  private def nextSink(): QueueSink = {
    val sink = sinks(rrCursor)
    rrCursor += 1
    if (rrCursor == sinks.length) rrCursor = 0
    sink
  }
}

/** A processor's output port: fans emissions out over all outbound edges.
  *
  * The outbox is the only place where output that could not be delivered
  * yet waits. `emit` always accepts: it routes the item, or parks it behind
  * the items already waiting, so every sink sees items in emission order.
  * A processor must stop consuming input while `hasPending`; the tasklet
  * flushes the parked items on its next call. The bounded queues plus this
  * rule are the entire local backpressure mechanism (§3.3). `offer` keeps
  * Jet's refusing contract for sources: it delivers the parked items first
  * and emits only when none remain. Control items (watermarks, barriers,
  * Done) broadcast to every consumer of every edge.
  */
final class Outbox(val edges: Array[EdgeCollector]) {
  private val pending = new java.util.ArrayDeque[(QueueSink, AnyRef)]()

  /** Accepted emissions — lets the tasklet detect whether a `complete()`
    * call made progress.
    */
  private var accepted = 0L
  def acceptedCount: Long = accepted

  /** Deliver parked items; true when none remain. */
  def flush(): Boolean = {
    while (!pending.isEmpty) {
      val (sink, item) = pending.peekFirst()
      if (sink.offer(item)) pending.removeFirst()
      else return false
    }
    true
  }

  /** Emit a data item with event timestamp `ts` on all edges; never refuses. */
  def emit(value: Any, ts: Long): Unit = {
    val item = DataItem(value, ts)
    var e = 0
    while (e < edges.length) { edges(e).route(item, this); e += 1 }
    accepted += 1
  }

  /** Flush, then emit. False means "try again later, nothing was accepted". */
  def offer(value: Any, ts: Long): Boolean = flush() && { emit(value, ts); true }

  /** Broadcast a control item (watermark / barrier / Done) to all consumers,
    * once the parked items are delivered.
    */
  def offerSpecial(item: StreamItem): Boolean = flush() && {
    var e = 0
    while (e < edges.length) { edges(e).broadcast(item, this); e += 1 }
    accepted += 1
    true
  }

  /** Offer `item` to `sink` unless earlier items wait; true if it went in. */
  private[core] def tryDeliver(sink: QueueSink, item: AnyRef): Boolean =
    pending.isEmpty && sink.offer(item)

  /** Offer `item` to `sink`, parking it if it cannot go in now. */
  private[core] def deliver(sink: QueueSink, item: AnyRef): Unit =
    if (!tryDeliver(sink, item)) pending.add((sink, item))

  def hasPending: Boolean = !pending.isEmpty
}

/** Ordered buffer of data items a tasklet has drained for its processor. */
final class Inbox {
  private val q = new java.util.ArrayDeque[DataItem]()

  def add(item: DataItem): Unit = q.addLast(item)
  def poll(): DataItem          = q.pollFirst()
  def isEmpty: Boolean          = q.isEmpty
  def nonEmpty: Boolean         = !q.isEmpty
}
