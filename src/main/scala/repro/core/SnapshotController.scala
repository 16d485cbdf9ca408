package repro.core

import java.util.concurrent.ConcurrentHashMap
import repro.imdg.GridCluster

/** Periodically initiates Chandy–Lamport snapshots and tracks their
  * completion (§4.4).
  *
  * Every `intervalMs` the controller bumps `requestedId`; source tasklets
  * notice, save their offsets and inject a [[SnapshotBarrier]]; every
  * processor tasklet acks once it has snapshotted its state and forwarded
  * the barrier. When all live tasklets have acked, the snapshot is
  * *committed*: `committedId` advances and the id is durably recorded in
  * the IMDG meta map — that is the snapshot a recovery restores.
  *
  * Snapshot state lives in two alternating IMDG maps (`id % 2`), like Jet:
  * the previous committed snapshot is never overwritten while the next one
  * is in flight.
  *
  * A source that finishes takes part in no later snapshot, yet a restore
  * must find its final offset or it would replay its whole input; so the
  * controller writes a finished source's final state into every later
  * snapshot itself.
  */
final class SnapshotController(
    val jobName: String,
    grid: GridCluster,
    intervalMs: Long
) {
  @volatile var requestedId: Long = 0L
  @volatile var committedId: Long = 0L
  @volatile private var running   = true
  @volatile private var snapshotsCompleted = 0

  private val registered  = ConcurrentHashMap.newKeySet[String]()
  @volatile private var pendingAcks: java.util.Set[String] = _
  /** Writers of finished sources' final state, by snapshot id; guarded by
    * `this`, which also orders them against the start of a snapshot.
    */
  private val finishedSources = scala.collection.mutable.ArrayBuffer.empty[Long => Unit]

  def snapshotMapName(id: Long): String = s"snap-$jobName-${id % 2}"
  def metaMapName: String               = s"snapmeta-$jobName"

  /** Last committed snapshot id recorded in the grid (0 = none). */
  def lastCommittedInGrid: Long =
    grid.getMap[String, Long](metaMapName).get("committed").getOrElse(0L)

  def completedCount: Int = snapshotsCompleted

  def register(taskletId: String): Unit = { registered.add(taskletId); () }

  def taskletFinished(taskletId: String): Unit = {
    registered.remove(taskletId)
    val p = pendingAcks
    if (p != null) p.remove(taskletId)
  }

  /** Source `taskletId` finished; `lastWritten` is the last snapshot it
    * wrote itself and `writeFinal(id)` puts its final state into snapshot
    * `id`. That goes into the snapshot in flight, if the source did not
    * write it, and into every later one.
    */
  def sourceFinished(taskletId: String, lastWritten: Long, writeFinal: Long => Unit): Unit = {
    synchronized {
      finishedSources += writeFinal
      if (requestedId > lastWritten) writeFinal(requestedId)
    }
    taskletFinished(taskletId)
  }

  def ack(taskletId: String, snapshotId: Long): Unit =
    if (snapshotId == requestedId) {
      val p = pendingAcks
      if (p != null) p.remove(taskletId)
    }

  private val thread = new Thread(() => loop(), s"snapshot-ctl-$jobName")
  thread.setDaemon(true)

  def start(): Unit = thread.start()

  def stop(): Unit = {
    running = false
    thread.interrupt()
  }

  private def loop(): Unit =
    try {
      while (running) {
        Thread.sleep(intervalMs)
        if (running && !registered.isEmpty) runOneSnapshot()
      }
    } catch { case _: InterruptedException => () }

  private def runOneSnapshot(): Unit = {
    val id = requestedId + 1
    val p  = ConcurrentHashMap.newKeySet[String]()
    synchronized {
      grid.getMap[Any, Any](snapshotMapName(id)).clear()
      finishedSources.foreach(_(id))
      p.addAll(registered)
      pendingAcks = p
      requestedId = id
    }
    val deadline = System.nanoTime() + 60_000_000_000L
    while (running && !p.isEmpty && System.nanoTime() < deadline) Thread.sleep(1)
    if (p.isEmpty && running) {
      grid.getMap[String, Long](metaMapName).put("committed", id)
      committedId = id
      snapshotsCompleted += 1
    }
  }
}
