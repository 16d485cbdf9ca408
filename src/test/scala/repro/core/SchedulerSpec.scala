package repro.core

import java.util.concurrent.atomic.AtomicInteger
import java.util.concurrent.{ConcurrentLinkedQueue, CountDownLatch, TimeUnit}
import org.scalatest.funsuite.AnyFunSuite

class SchedulerSpec extends AnyFunSuite {

  private final class CountingTasklet(target: Int, latch: CountDownLatch) extends Tasklet {
    val calls = new AtomicInteger(0)
    def call(): TaskletState = {
      val n = calls.incrementAndGet()
      if (n >= target) { latch.countDown(); TaskletState.Done }
      else TaskletState.MadeProgress
    }
  }

  test("a tasklet is called repeatedly until Done") {
    val svc   = new ExecutionService(2, "t1")
    val latch = new CountDownLatch(1)
    val t     = new CountingTasklet(100, latch)
    svc.submit(Seq(t))
    assert(latch.await(5, TimeUnit.SECONDS))
    assert(t.calls.get() == 100)
    svc.shutdown()
  }

  test("many tasklets share few threads (round-robin co-scheduling)") {
    val svc   = new ExecutionService(2, "t2")
    val latch = new CountDownLatch(500)
    val ts    = (1 to 500).map(_ => new CountingTasklet(50, latch))
    svc.submit(ts)
    assert(latch.await(10, TimeUnit.SECONDS))
    assert(ts.forall(_.calls.get() == 50))
    svc.shutdown()
  }

  test("tasklets run on the pool's threads, not the caller's") {
    val svc   = new ExecutionService(3, "t3")
    val names = new ConcurrentLinkedQueue[String]()
    val latch = new CountDownLatch(30)
    val ts = (1 to 30).map { _ =>
      new Tasklet {
        def call(): TaskletState = {
          names.add(Thread.currentThread().getName)
          latch.countDown()
          TaskletState.Done
        }
      }
    }
    svc.submit(ts)
    assert(latch.await(5, TimeUnit.SECONDS))
    import scala.jdk.CollectionConverters._
    val used = names.asScala.toSet
    assert(used.forall(_.startsWith("t3-coop-")))
    assert(used.size == 3, s"expected all 3 workers used, got $used")
    svc.shutdown()
  }

  test("an idle (NoProgress) tasklet does not starve others") {
    val svc   = new ExecutionService(1, "t4")
    val latch = new CountDownLatch(1)
    val idle  = new Tasklet { def call(): TaskletState = TaskletState.NoProgress }
    val busy  = new CountingTasklet(1000, latch)
    svc.submit(Seq(idle, busy))
    assert(latch.await(5, TimeUnit.SECONDS), "busy tasklet starved by idle one")
    svc.shutdown()
  }

  test("a throwing tasklet is removed and reported via handleFailure") {
    val svc    = new ExecutionService(1, "t5")
    val failed = new CountDownLatch(1)
    val other  = new CountDownLatch(1)
    svc.submit(Seq(
      new Tasklet {
        def call(): TaskletState = throw new RuntimeException("kaput")
        override def handleFailure(e: Throwable): Unit = failed.countDown()
      },
      new CountingTasklet(10, other)
    ))
    assert(failed.await(5, TimeUnit.SECONDS))
    assert(other.await(5, TimeUnit.SECONDS), "healthy tasklet must keep running")
    svc.shutdown()
  }

  test("tasklets submitted later join the running loop (multi-tenancy)") {
    val svc    = new ExecutionService(2, "t7")
    val first  = new CountDownLatch(1)
    val second = new CountDownLatch(1)
    svc.submit(Seq(new CountingTasklet(1000000, first)))
    Thread.sleep(50)
    svc.submit(Seq(new CountingTasklet(100, second)))
    assert(second.await(5, TimeUnit.SECONDS))
    assert(first.await(15, TimeUnit.SECONDS))
    svc.shutdown()
  }

  test("liveTaskletCount drains to zero as tasklets finish") {
    val svc   = new ExecutionService(2, "t8")
    val latch = new CountDownLatch(20)
    svc.submit((1 to 20).map(_ => new CountingTasklet(10, latch)))
    assert(latch.await(5, TimeUnit.SECONDS))
    Thread.sleep(100)
    assert(svc.liveTaskletCount == 0)
    svc.shutdown()
  }

  test("tens of thousands of tasklets on one thread complete") {
    val svc   = new ExecutionService(1, "t9")
    val n     = 20000
    val latch = new CountDownLatch(n)
    svc.submit((1 to n).map(_ => new CountingTasklet(3, latch)))
    assert(latch.await(30, TimeUnit.SECONDS))
    svc.shutdown()
  }
}
