package repro.core

import java.util.concurrent.atomic.{AtomicLongArray, AtomicReferenceArray}

/** Bounded wait-free single-producer/single-consumer ring buffer.
  *
  * This is the only channel between two tasklets on the same member (§3.2):
  * exactly one producer tasklet calls `offer` and exactly one consumer
  * tasklet calls `poll`. Both sides complete in a bounded number of steps
  * with no locks and no CAS.
  *
  * The layout follows the padded one-to-one array queue that Jet builds its
  * conveyors from, so that a hop moves as few cache lines between the two
  * threads as possible, even when the consumer polls right behind the
  * producer:
  *   - the consumer-written `head` sits alone on its own cache line;
  *   - the producer-written `tail` sits on another, beside the producer's
  *     cached copy of `head`. Both lines are padded on each side, and all
  *     three counters live in one `AtomicLongArray`;
  *   - the consumer finds an item by an acquire read of its slot, as in
  *     FastForward (Giacomoni et al., PPoPP 2008): a non-null slot is a
  *     published item. It nulls the slot and publishes `head` with a release
  *     store, and never reads `tail`;
  *   - the producer reads `head` only when its cached copy says the queue is
  *     full (MCRingBuffer's lazy control-variable update, Lee et al., IPDPS
  *     2010).
  * Slots are indexed by mask into a power-of-two array of at least
  * `capacity` slots, but `offer` refuses at exactly `capacity` queued items.
  */
final class SpscQueue(val capacity: Int) {
  require(capacity > 0, "capacity must be positive")
  require(capacity <= (1 << 30), "capacity must be at most 2^30")

  import SpscQueue.{CachedHead, Head, Tail, Length}

  private val mask     = (if (capacity == 1) 1 else Integer.highestOneBit(capacity - 1) << 1) - 1
  private val buffer   = new AtomicReferenceArray[AnyRef](mask + 1)
  private val counters = new AtomicLongArray(Length)

  /** Producer side. Returns false when the queue is full (backpressure). */
  def offer(item: AnyRef): Boolean = {
    require(item != null, "null items not allowed")
    val t = counters.getPlain(Tail)
    if (t - counters.getPlain(CachedHead) >= capacity) {
      val h = counters.getAcquire(Head)
      counters.setPlain(CachedHead, h)
      if (t - h >= capacity) return false
    }
    buffer.setRelease((t & mask).toInt, item)
    counters.setRelease(Tail, t + 1)
    true
  }

  /** Consumer side. Returns null when the queue is empty. */
  def poll(): AnyRef = {
    val h    = counters.getPlain(Head)
    val idx  = (h & mask).toInt
    val item = buffer.getAcquire(idx)
    if (item != null) {
      buffer.setPlain(idx, null)
      counters.setRelease(Head, h + 1)
    }
    item
  }

  /** Approximate number of queued items (exact when called by either endpoint). */
  def size: Int = math.max(0, (counters.getAcquire(Tail) - counters.getAcquire(Head)).toInt)

  def isEmpty: Boolean = size == 0
}

object SpscQueue {
  /** Longs between two counters written by different threads: 128 bytes,
    * two cache lines, so that the adjacent-line prefetcher does not pair
    * them either.
    */
  private[core] final val Pad  = 16
  private final val Head       = Pad
  private final val Tail       = 2 * Pad
  private final val CachedHead = Tail + 1
  private final val Length     = 3 * Pad
}
