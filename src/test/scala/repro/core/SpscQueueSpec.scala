package repro.core

import org.scalatest.funsuite.AnyFunSuite

class SpscQueueSpec extends AnyFunSuite {

  test("offer then poll returns the same item") {
    val q = new SpscQueue(4)
    assert(q.offer("a"))
    assert(q.poll() == "a")
    assert(q.poll() == null)
  }

  test("poll on empty queue returns null") {
    val q = new SpscQueue(4)
    assert(q.poll() == null)
  }

  test("capacity is enforced and offer reports backpressure") {
    val q = new SpscQueue(3)
    assert(q.offer("1")); assert(q.offer("2")); assert(q.offer("3"))
    assert(!q.offer("4"))
    assert(q.size == 3)
    assert(q.poll() == "1")
    assert(q.offer("4"))
    assert(!q.offer("5"))
  }

  test("FIFO order within a single thread") {
    val q = new SpscQueue(128)
    (1 to 100).foreach(i => assert(q.offer(Int.box(i))))
    (1 to 100).foreach(i => assert(q.poll() == Int.box(i)))
  }

  test("wrap-around keeps items intact across many cycles") {
    val q = new SpscQueue(7)
    var next = 0
    var read = 0
    while (read < 10000) {
      while (next < 10000 && q.offer(Int.box(next))) next += 1
      var item = q.poll()
      while (item != null) {
        assert(item == Int.box(read)); read += 1
        item = q.poll()
      }
    }
    assert(read == 10000)
  }

  test("concurrent producer/consumer: no loss, no duplication, FIFO") {
    val q     = new SpscQueue(1024)
    val total = 1_000_000
    val error = new java.util.concurrent.atomic.AtomicReference[String](null)
    val producer = new Thread(() => {
      var i = 0
      while (i < total) if (q.offer(Int.box(i))) i += 1 else Thread.onSpinWait()
    })
    val consumer = new Thread(() => {
      var expected = 0
      while (expected < total) {
        val item = q.poll()
        if (item != null) {
          if (item.asInstanceOf[Int] != expected)
            error.compareAndSet(null, s"expected $expected got $item")
          expected += 1
        } else Thread.onSpinWait()
      }
    })
    producer.start(); consumer.start()
    producer.join(30000); consumer.join(30000)
    assert(!producer.isAlive && !consumer.isAlive, "threads did not finish")
    assert(error.get() == null, s"ordering violation: ${error.get()}")
    assert(q.isEmpty)
  }

  test("size is bounded by capacity under concurrency") {
    val q    = new SpscQueue(64)
    val stop = new java.util.concurrent.atomic.AtomicBoolean(false)
    val bad  = new java.util.concurrent.atomic.AtomicBoolean(false)
    val producer = new Thread(() => {
      var i = 0L
      while (!stop.get()) { q.offer(Long.box(i)); i += 1 }
    })
    val consumer = new Thread(() => {
      while (!stop.get()) {
        if (q.size > 64) bad.set(true)
        q.poll()
      }
    })
    producer.start(); consumer.start()
    Thread.sleep(200)
    stop.set(true)
    producer.join(5000); consumer.join(5000)
    assert(!bad.get(), "size exceeded capacity")
  }

  test("capacity must be positive") {
    intercept[IllegalArgumentException](new SpscQueue(0))
  }

  test("null items are rejected") {
    val q = new SpscQueue(4)
    intercept[IllegalArgumentException](q.offer(null))
  }

  test("offer refuses at exactly capacity, across many wrap-arounds") {
    for (cap <- Seq(1, 2, 3, 5, 1023, 1024, 1025)) {
      val q    = new SpscQueue(cap)
      var next = 0
      var read = 0
      // Alternate between filling to the brim and draining, with a drain
      // that leaves one item behind so the fill point shifts every round.
      for (round <- 0 until 30) {
        var accepted = 0
        while (q.offer(Int.box(next))) { next += 1; accepted += 1 }
        assert(q.size == cap, s"capacity $cap, round $round: size ${q.size} when full")
        assert(!q.offer("extra"), s"capacity $cap, round $round: accepted past capacity")
        val keep = if (round % 2 == 0) 0 else math.min(1, cap - 1)
        while (q.size > keep) {
          assert(q.poll() == Int.box(read), s"capacity $cap: FIFO broken at $read")
          read += 1
        }
      }
      // The slot array has fewer than 2 × capacity slots, so this is at
      // least ten passes over it.
      assert(next >= 20 * cap, s"capacity $cap: only $next items offered")
      var item = q.poll()
      while (item != null) { assert(item == Int.box(read)); read += 1; item = q.poll() }
      assert(read == next)
      assert(q.isEmpty)
    }
  }

  test("1 M items through capacity 7 with a concurrent producer and consumer") {
    val q     = new SpscQueue(7)
    val total = 1_000_000
    val error = new java.util.concurrent.atomic.AtomicReference[String](null)
    val producer = new Thread(() => {
      var i = 0
      while (i < total) if (q.offer(Int.box(i))) i += 1 else Thread.onSpinWait()
    })
    val consumer = new Thread(() => {
      var expected = 0
      while (expected < total) {
        val s = q.size
        if (s > 7) error.compareAndSet(null, s"size $s above capacity 7")
        val item = q.poll()
        if (item != null) {
          if (item.asInstanceOf[Int] != expected)
            error.compareAndSet(null, s"expected $expected got $item")
          expected += 1
        } else Thread.onSpinWait()
      }
    })
    producer.start(); consumer.start()
    producer.join(60000); consumer.join(60000)
    assert(!producer.isAlive && !consumer.isAlive, "threads did not finish")
    assert(error.get() == null, s"violation: ${error.get()}")
    assert(q.isEmpty)
    assert(q.poll() == null)
  }

  test("a consumer faster than its producer polls empty slots without losing items") {
    val q     = new SpscQueue(16)
    val total = 100_000
    val error = new java.util.concurrent.atomic.AtomicReference[String](null)
    val emptyPolls = new java.util.concurrent.atomic.AtomicLong(0)
    val producer = new Thread(() => {
      var i    = 0
      var sink = 0L
      while (i < total) {
        // Work between offers, so the consumer keeps finding the next slot empty.
        var w = 0
        while (w < 200) { sink += (sink * 31 + w) ^ i; w += 1 }
        if (q.offer(Int.box(i))) i += 1
      }
      if (sink == 42) println(sink)
    })
    val consumer = new Thread(() => {
      var expected = 0
      var empty    = 0L
      while (expected < total) {
        val item = q.poll()
        if (item != null) {
          if (item.asInstanceOf[Int] != expected)
            error.compareAndSet(null, s"expected $expected got $item")
          expected += 1
        } else empty += 1
      }
      emptyPolls.set(empty)
    })
    producer.start(); consumer.start()
    producer.join(60000); consumer.join(60000)
    assert(!producer.isAlive && !consumer.isAlive, "threads did not finish")
    assert(error.get() == null, s"violation: ${error.get()}")
    assert(emptyPolls.get() > 0, "the consumer never found the queue empty")
    assert(q.isEmpty)
  }
}
