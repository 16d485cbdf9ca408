package repro.core

import java.util.concurrent.ConcurrentLinkedQueue
import java.util.concurrent.atomic.AtomicInteger
import java.util.concurrent.locks.LockSupport
import scala.collection.mutable

/** Progressive backoff for a worker with no runnable work: spin first (a
  * tasklet may become runnable within nanoseconds), then park for
  * exponentially longer, capped low (~130 µs) so a newly arrived event
  * never waits long — latency at the tail is the whole point (§5).
  */
final class Idler {
  private val spinLimit    = 20
  private val maxParkNanos = 131072L
  private var idleCount    = 0
  def reset(): Unit = idleCount = 0
  def idle(): Unit = {
    idleCount += 1
    if (idleCount <= spinLimit) Thread.onSpinWait()
    else {
      val shift = math.min(idleCount - spinLimit, 17)
      LockSupport.parkNanos(math.min(1L << shift, maxParkNanos))
    }
  }
}

/** A fixed pool of *cooperative threads* (§3.2, Figure 4): as many threads
  * as configured "cores", each running a round-robin loop over the tasklets
  * assigned to it. Tasklets yield by returning from `call()`; a worker with
  * only idle tasklets backs off via [[Idler]] instead of context-switching.
  *
  * Tasklets from any number of jobs can share the same workers — this is
  * the multi-tenancy property measured in §7.7.
  */
final class ExecutionService(val numThreads: Int, name: String) {
  require(numThreads >= 1)

  private val rr      = new AtomicInteger(0)
  private val workers = Array.tabulate(numThreads)(i => new Worker(s"$name-coop-$i"))
  workers.foreach(_.thread.start())

  /** Assign tasklets round-robin over the cooperative threads. */
  def submit(tasklets: Seq[Tasklet]): Unit =
    tasklets.foreach { t =>
      val w = workers(math.floorMod(rr.getAndIncrement(), numThreads))
      w.incoming.add(t)
      LockSupport.unpark(w.thread)
    }

  def shutdown(): Unit = {
    workers.foreach(_.running = false)
    workers.foreach(w => LockSupport.unpark(w.thread))
    workers.foreach(_.thread.join(2000))
  }

  /** Tasklets currently live on the cooperative workers (for tests). */
  def liveTaskletCount: Int = workers.map(w => w.active.size + w.incoming.size).sum

  private final class Worker(threadName: String) {
    val incoming                  = new ConcurrentLinkedQueue[Tasklet]()
    @volatile var running         = true
    val active: mutable.ArrayBuffer[Tasklet] = mutable.ArrayBuffer.empty
    val thread: Thread = new Thread(() => loop(), threadName)
    thread.setDaemon(true)

    private def loop(): Unit = {
      val idler = new Idler()
      while (running) {
        var t = incoming.poll()
        while (t != null) { active += t; t = incoming.poll() }
        if (active.isEmpty) {
          LockSupport.parkNanos(200000L)
        } else {
          var progress = false
          var i        = 0
          while (i < active.length) {
            val tk = active(i)
            val st =
              try tk.call()
              catch { case e: Throwable => tk.handleFailure(e); TaskletState.Done }
            st match {
              case TaskletState.MadeProgress => progress = true; i += 1
              case TaskletState.NoProgress   => i += 1
              case TaskletState.Done         => active.remove(i)
            }
          }
          if (progress) idler.reset() else idler.idle()
        }
      }
    }
  }
}
