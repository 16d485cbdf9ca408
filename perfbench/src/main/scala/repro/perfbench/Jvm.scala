package repro.perfbench

import java.lang.management.ManagementFactory
import java.util.concurrent.ConcurrentLinkedQueue
import javax.management.{Notification, NotificationEmitter, NotificationListener}
import javax.management.openmbean.CompositeData
import scala.jdk.CollectionConverters._
import com.sun.management.GarbageCollectionNotificationInfo

/** One garbage collection, from the JVM's GC notifications. */
final case class GcEvent(endNanos: Long, pause: Boolean, durationMs: Long)

/** Process-level measurements from the JVM's management beans. */
object Jvm {
  private val events = new ConcurrentLinkedQueue[GcEvent]()

  private def isOldGen(pool: String) = pool.contains("Old Gen") || pool.contains("Tenured")

  /** Start collecting GC notifications (idempotent). */
  lazy val listening: Boolean = {
    val listener = new NotificationListener {
      def handleNotification(n: Notification, handback: Any): Unit =
        if (n.getType == GarbageCollectionNotificationInfo.GARBAGE_COLLECTION_NOTIFICATION) {
          val info  = GarbageCollectionNotificationInfo.from(n.getUserData.asInstanceOf[CompositeData])
          // Concurrent cycles run beside the application; only the others pause it.
          val pause = !info.getGcName.contains("Concurrent") && !info.getGcAction.contains("concurrent")
          events.add(GcEvent(System.nanoTime(), pause, info.getGcInfo.getDuration))
        }
    }
    ManagementFactory.getGarbageCollectorMXBeans.asScala.foreach {
      case e: NotificationEmitter => e.addNotificationListener(listener, null, null)
      case _                      => ()
    }
    true
  }

  def gcEvents(fromNanos: Long, toNanos: Long): Vector[GcEvent] =
    events.asScala.filter(e => e.endNanos >= fromNanos && e.endNanos <= toNanos).toVector

  /** Heap still live after a full collection, read from the old generation
    * (a full collection leaves every live object there).
    */
  def liveBytesAfterFullGc(): Long = {
    System.gc()
    ManagementFactory.getMemoryPoolMXBeans.asScala.filter(p => isOldGen(p.getName)).map(_.getUsage.getUsed).sum
  }

  def processCpuNanos: Long =
    ManagementFactory.getOperatingSystemMXBean
      .asInstanceOf[com.sun.management.OperatingSystemMXBean].getProcessCpuTime

  /** CPU time of the live threads whose names contain `marker`. */
  def threadCpuNanos(marker: String): Long = {
    val mx = ManagementFactory.getThreadMXBean
    Thread.getAllStackTraces.keySet.asScala.iterator
      .filter(t => t.isAlive && t.getName.contains(marker))
      .map(t => math.max(0L, mx.getThreadCpuTime(t.getId)))
      .sum
  }

  def facts: Vector[(String, String)] = {
    val rt = ManagementFactory.getRuntimeMXBean
    Vector(
      "nproc"       -> Runtime.getRuntime.availableProcessors.toString,
      "java"        -> System.getProperty("java.vm.version"),
      "jvm_flags"   -> rt.getInputArguments.asScala.mkString(" "),
      "gc"          -> ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getName).mkString(", "),
      "max_heap_mb" -> (Runtime.getRuntime.maxMemory / (1 << 20)).toString
    )
  }
}
