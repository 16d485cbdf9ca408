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
}
