package repro.core

import java.util.concurrent.atomic.{AtomicLong, AtomicReferenceArray}

/** Bounded wait-free single-producer/single-consumer ring buffer.
  *
  * This is the only channel between two tasklets on the same member (§3.2):
  * exactly one producer tasklet calls `offer` and exactly one consumer
  * tasklet calls `poll`. Both sides complete in a bounded number
  * of steps with no locks and no CAS loops (a Lamport queue with cached
  * counter views, as used by Jet's one-to-one concurrent conveyors).
  */
final class SpscQueue(val capacity: Int) {
  require(capacity > 0, "capacity must be positive")

  private val buffer = new AtomicReferenceArray[AnyRef](capacity)
  private val head   = new AtomicLong(0) // next slot the consumer reads
  private val tail   = new AtomicLong(0) // next slot the producer writes

  // Single-writer cached views of the opposite side's counter: refreshed
  // only when the cached value no longer proves progress is possible, so
  // the common case does one volatile read per call.
  private var producerCachedHead = 0L
  private var consumerCachedTail = 0L

  /** Producer side. Returns false when the queue is full (backpressure). */
  def offer(item: AnyRef): Boolean = {
    require(item != null, "null items not allowed")
    val t = tail.get()
    if (t - producerCachedHead >= capacity) {
      producerCachedHead = head.get()
      if (t - producerCachedHead >= capacity) return false
    }
    buffer.lazySet((t % capacity).toInt, item)
    tail.lazySet(t + 1)
    true
  }

  /** Consumer side. Returns null when the queue is empty. */
  def poll(): AnyRef = {
    val h = head.get()
    if (h >= consumerCachedTail) {
      consumerCachedTail = tail.get()
      if (h >= consumerCachedTail) return null
    }
    val idx  = (h % capacity).toInt
    val item = buffer.get(idx)
    buffer.lazySet(idx, null)
    head.lazySet(h + 1)
    item
  }

  /** Approximate number of queued items (exact when called by either endpoint). */
  def size: Int = math.max(0, (tail.get() - head.get()).toInt)

  def isEmpty: Boolean = size == 0
}
