package repro.core

import java.util.concurrent.atomic.{AtomicLongArray, AtomicReference}

/** Adaptive receive-window flow control for a node-to-node link (§3.3).
  *
  * The sender may send while `sent < acknowledged + window`, where
  * `acknowledged` is the receiver's processed count at its last ack. The
  * receiver acknowledges every `ackIntervalMs` (100 ms in Jet), at which
  * point the window is resized to `windowMultiplier ×` the items processed
  * in the last interval — Jet's "roughly 300 milliseconds' worth
  * of data" steady state — so a slow receiver shrinks the window and
  * backpressures the sender, while a fast one keeps data always available.
  *
  * In this reproduction the "network" is in-process: the link wraps the
  * same SPSC queues, but every send and every receive goes through this
  * exact protocol.
  *
  * Every producer and consumer instance on a node pair shares one link, so
  * the state is changed only by compare-and-set: a send reserves a slot by
  * CAS on `sent`, and an acknowledgment replaces the whole `Ack` record,
  * so exactly one caller acks per interval and the acknowledged count
  * never moves backwards. The senders' `sent` and the receivers'
  * `processed` sit on separate cache lines of one padded `AtomicLongArray`,
  * laid out like [[SpscQueue]]'s counters.
  */
final class ReceiveWindow(
    val ackIntervalMs: Long = 100,
    val initialWindow: Long = 4096,
    val minWindow: Long = 256,
    val windowMultiplier: Double = 3.0
) {
  import ReceiveWindow.{Ack, Length, Processed, Sent}

  private val counters = new AtomicLongArray(Length)
  private val ack      = new AtomicReference(Ack(0L, initialWindow, System.nanoTime()))

  /** Sender side: reserve a slot if the window allows it. */
  def trySend(): Boolean = {
    while (true) {
      val s = counters.get(Sent)
      val a = ack.get()
      if (s >= a.processed + a.window) return false
      if (counters.compareAndSet(Sent, s, s + 1)) return true
    }
    false
  }

  /** Sender side: undo a reservation (queue refused the item). */
  def undoSend(): Unit = { counters.decrementAndGet(Sent); () }

  /** Receiver side: `n` items were consumed from the link's queues. */
  def onReceive(n: Int): Unit = {
    counters.addAndGet(Processed, n.toLong)
    maybeAck()
  }

  /** Receiver side: send the periodic acknowledgment if it is due. The
    * count is read after the previous ack was installed, so it is never
    * below that ack's.
    */
  def maybeAck(): Unit = {
    val now  = System.nanoTime()
    val last = ack.get()
    if (now - last.nanos >= ackIntervalMs * 1000000L) {
      val p = counters.get(Processed)
      ack.compareAndSet(last, Ack(p, math.max(minWindow, ((p - last.processed) * windowMultiplier).toLong), now))
      ()
    }
  }

  /** Items sent and not yet received; for ROADMAP item 4's per-edge metrics. */
  private[core] def inFlight: Long = counters.get(Sent) - counters.get(Processed)

  /** The window the last ack granted; for ROADMAP item 4's per-edge metrics. */
  private[core] def currentWindow: Long = ack.get().window

  /** Items sent beyond the last ack's count; for ROADMAP item 4's per-edge metrics. */
  private[core] def unacked: Long = counters.get(Sent) - ack.get().processed
}

object ReceiveWindow {
  /** One acknowledgment: items processed so far, the window it grants and
    * when it was sent.
    */
  private final case class Ack(processed: Long, window: Long, nanos: Long)

  private final val Sent      = SpscQueue.Pad
  private final val Processed = 2 * SpscQueue.Pad
  private final val Length    = 3 * SpscQueue.Pad
}

/** Sender-side sink of a distributed edge: the SPSC queue to the remote
  * consumer, gated by the link's receive window.
  */
final class FlowControlledSink(val queue: SpscQueue, val link: ReceiveWindow) extends QueueSink {
  def offer(item: AnyRef): Boolean = {
    if (!link.trySend()) return false
    if (queue.offer(item)) true
    else { link.undoSend(); false }
  }
}
