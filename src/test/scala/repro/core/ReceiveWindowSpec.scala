package repro.core

import org.scalatest.funsuite.AnyFunSuite

class ReceiveWindowSpec extends AnyFunSuite {

  test("sender is limited to the initial window before any ack") {
    val rw = new ReceiveWindow(ackIntervalMs = 100000, initialWindow = 8)
    (1 to 8).foreach(_ => assert(rw.trySend()))
    assert(!rw.trySend())
    assert(rw.unacked == 8)
  }

  test("undoSend releases the reservation") {
    val rw = new ReceiveWindow(ackIntervalMs = 100000, initialWindow = 1)
    assert(rw.trySend())
    assert(!rw.trySend())
    rw.undoSend()
    assert(rw.trySend())
  }

  test("ack after the interval reopens the window") {
    val rw = new ReceiveWindow(ackIntervalMs = 1, initialWindow = 4, minWindow = 4)
    (1 to 4).foreach(_ => assert(rw.trySend()))
    assert(!rw.trySend())
    rw.onReceive(4)
    Thread.sleep(5)
    rw.maybeAck()
    assert(rw.trySend(), "window should reopen after ack")
  }

  test("window adapts to ~multiplier x the per-interval rate") {
    val rw = new ReceiveWindow(ackIntervalMs = 1, initialWindow = 1000, minWindow = 1)
    (1 to 900).foreach(_ => rw.trySend())
    Thread.sleep(5) // let the ack interval elapse before the receive
    rw.onReceive(900) // triggers the ack: 900 processed in the interval
    assert(rw.currentWindow == 2700, s"window=${rw.currentWindow}")
  }

  test("window never shrinks below minWindow") {
    val rw = new ReceiveWindow(ackIntervalMs = 1, initialWindow = 64, minWindow = 32)
    Thread.sleep(5)
    rw.maybeAck() // zero items processed in the interval
    assert(rw.currentWindow == 32)
  }

  test("flow-controlled sink refuses beyond the window even with queue space") {
    val q  = new SpscQueue(1024)
    val rw = new ReceiveWindow(ackIntervalMs = 100000, initialWindow = 3)
    val s  = new FlowControlledSink(q, rw)
    assert(s.offer("a")); assert(s.offer("b")); assert(s.offer("c"))
    assert(!s.offer("d"), "receive window must gate the send")
    assert(q.size == 3)
  }

  test("flow-controlled sink does not leak window slots when the queue is full") {
    val q  = new SpscQueue(1)
    val rw = new ReceiveWindow(ackIntervalMs = 100000, initialWindow = 10)
    val s  = new FlowControlledSink(q, rw)
    assert(s.offer("a"))
    assert(!s.offer("b")) // queue full → reservation undone
    assert(rw.unacked == 1)
  }

  test("in-flight accounting tracks send/receive") {
    val rw = new ReceiveWindow(ackIntervalMs = 100000, initialWindow = 100)
    (1 to 10).foreach(_ => rw.trySend())
    assert(rw.inFlight == 10)
    rw.onReceive(6)
    assert(rw.inFlight == 4)
  }

  test("concurrent senders never exceed the window") {
    // One link per round; every thread sends until refused, so the window
    // is filled exactly unless two reservations race past the check. The
    // window is large enough that all threads are sending when it fills.
    val threads = 4
    val windows = Vector.fill(100)(new ReceiveWindow(ackIntervalMs = 100000, initialWindow = 20000))
    val start   = new java.util.concurrent.CyclicBarrier(threads)
    val senders = Vector.fill(threads)(new Thread(() =>
      windows.foreach { rw =>
        start.await(10, java.util.concurrent.TimeUnit.SECONDS)
        while (rw.trySend()) ()
      }
    ))
    senders.foreach(_.start())
    senders.foreach(_.join(30000))
    assert(senders.forall(!_.isAlive), "senders did not finish")
    windows.foreach(rw => assert(rw.inFlight == 20000))
  }

  test("concurrent acks never move the acknowledged count backwards") {
    for (interval <- Seq(0L, 1L)) {
      val rw = new ReceiveWindow(ackIntervalMs = interval, initialWindow = 1000)
      (1 to 1000).foreach(_ => rw.trySend()) // `sent` stays 1000, so `unacked` only falls
      val stop = new java.util.concurrent.atomic.AtomicBoolean(false)
      val receivers = Vector.fill(3)(new Thread(() => while (!stop.get()) rw.onReceive(1)))
      var prev     = rw.unacked
      var rises    = 0
      receivers.foreach(_.start())
      val until = System.nanoTime() + 300000000L
      while (System.nanoTime() < until) {
        val u = rw.unacked
        if (u > prev) rises += 1
        prev = u
      }
      stop.set(true)
      receivers.foreach(_.join(5000))
      assert(rises == 0, s"acknowledged count moved backwards $rises times (ack interval $interval ms)")
    }
  }

  test("end-to-end: a slow remote consumer backpressures the producer") {
    // Distributed round-robin edge across 2 nodes: the producer can never
    // have more than window+queue items outstanding.
    val inst = new JetInstance(2, 1)
    try {
      import repro.pipeline._
      val received = new java.util.concurrent.atomic.AtomicLong(0)
      val p        = new Pipeline
      p.readFrom[Long](StreamSourceDef(seq => seq, seq => seq, 200000, None, 1000, 1))
        .groupingKey(_ % 64)
        .window(WindowDef(1000, 1000))
        .aggregate(AggregateOperations.counting)
        .writeTo(ForeachSinkDef((_, _) => { received.incrementAndGet(); () }, 1))
      inst.submit(p.toDag()).awaitCompletion(120000)
      assert(received.get() > 0)
    } finally inst.shutdown()
  }
}
