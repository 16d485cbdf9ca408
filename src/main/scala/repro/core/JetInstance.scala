package repro.core

import java.util.concurrent.CountDownLatch
import java.util.concurrent.atomic.{AtomicLong, AtomicReference}
import java.util.concurrent.TimeUnit
import scala.collection.mutable
import repro.imdg.GridCluster

/** Job-level configuration: guarantee and snapshot cadence (§4.4), and
  * the capacity of every SPSC queue between two processor instances.
  */
final case class JobConfig(
    name: String = "job",
    guarantee: Guarantee = Guarantee.NoGuarantee,
    snapshotIntervalMs: Long = 1000,
    queueSize: Int = 1024
)

/** A logical Jet member: an IMDG member id plus its cooperative-thread
  * execution service. All jobs submitted to the instance share these
  * threads (multi-tenancy, §7.7).
  */
final class JetNode(val id: Int, val cooperativeThreads: Int) {
  val exec = new ExecutionService(cooperativeThreads, s"node$id")
  def shutdown(): Unit = exec.shutdown()
}

/** A submitted job: its tasklets, snapshot controller and completion state. */
final class Job private[core] (
    val jobId: Long,
    val dag: Dag,
    val config: JobConfig,
    private[core] val tasklets: Vector[ProcessorTasklet],
    private[core] val snapshotCtl: SnapshotController // null when FT off
) {
  private val latch   = new CountDownLatch(tasklets.size)
  private val failure = new AtomicReference[Throwable](null)
  @volatile private var cancelledFlag = false

  private[core] def onTaskletFinished(t: ProcessorTasklet): Unit = latch.countDown()

  private[core] def onTaskletFailed(e: Throwable): Unit = {
    failure.compareAndSet(null, e)
    latch.countDown()
    // Tear the job down, but do NOT mark it user-cancelled: awaitCompletion
    // must surface the failure.
    tasklets.foreach(_.cancelled = true)
    if (snapshotCtl != null) snapshotCtl.stop()
  }

  /** Stop all tasklets without letting them complete (also the mechanism
    * used to simulate a member crash taking the whole job down, §4.4).
    */
  def cancel(): Unit = {
    cancelledFlag = true
    tasklets.foreach(_.cancelled = true)
    if (snapshotCtl != null) snapshotCtl.stop()
  }

  def isCancelled: Boolean = cancelledFlag

  /** Wait for all tasklets to stop; throws if any failed (unless cancelled). */
  def awaitCompletion(timeoutMs: Long = 120000): Unit = {
    if (!latch.await(timeoutMs, TimeUnit.MILLISECONDS))
      throw new IllegalStateException(s"job ${config.name} did not finish within ${timeoutMs}ms")
    if (snapshotCtl != null) snapshotCtl.stop()
    val e = failure.get()
    if (e != null && !cancelledFlag) throw new IllegalStateException(s"job ${config.name} failed", e)
  }

  /** Wait for all tasklets to stop, ignoring failures (used after cancel). */
  def awaitTerminated(timeoutMs: Long = 120000): Unit = {
    latch.await(timeoutMs, TimeUnit.MILLISECONDS)
    ()
  }

  def snapshotsCompleted: Int = if (snapshotCtl == null) 0 else snapshotCtl.completedCount
}

/** The Jet cluster simulator: N logical members in one JVM, each with its
  * own cooperative-thread pool and IMDG membership. The whole DAG is
  * deployed on every member (§3.1); distributed edges cross members through
  * flow-controlled links.
  */
final class JetInstance(
    initialNodeCount: Int,
    val threadsPerNode: Int,
    backupCount: Int = 1,
    extraGridMembers: Int = 0
) {
  /** `extraGridMembers` adds IMDG members that host replicas but run no
    * tasklets — e.g. §7.1's "replicate the snapshots to another 1 member
    * node" with the dataflow itself on one node. Such a member owns no
    * partitions (see [[PartitionOwnership]]).
    */
  val grid = new GridCluster(initialNodeCount + extraGridMembers, backupCount = backupCount)

  private var jetNodes: Vector[JetNode] =
    grid.members.take(initialNodeCount).map(id => new JetNode(id, threadsPerNode))
  private val jobIdGen = new AtomicLong(0)

  def nodes: Vector[JetNode] = jetNodes
  def nodeCount: Int         = jetNodes.size

  def submit(dag: Dag, config: JobConfig = JobConfig()): Job =
    submitInternal(dag, config, restoreSnapshotId = 0L)

  /** Simulate the failure of member `nodeId` while `job` is running, then
    * recover per §4.4: the job stops cluster-wide, the grid promotes the
    * dead member's backup replicas, a substitute member joins and takes
    * partitions over, and the job restarts from the last committed
    * snapshot: each instance restores the state of the partitions it owns
    * in the new table, and sources replay from their snapshotted offsets.
    */
  def failNodeAndRecover(job: Job, nodeId: Int): Job = {
    require(job.config.guarantee != Guarantee.NoGuarantee, "recovery needs snapshots enabled")
    job.cancel()
    job.awaitTerminated()
    val dead = jetNodes.find(_.id == nodeId).getOrElse(throw new NoSuchElementException(s"node $nodeId"))
    grid.failNode(nodeId)
    dead.shutdown()
    val newId = grid.addNode()
    jetNodes = jetNodes.filterNot(_.id == nodeId) :+ new JetNode(newId, threadsPerNode)
    val restoreId = job.snapshotCtl.lastCommittedInGrid
    require(restoreId > 0, "no committed snapshot to restore from")
    submitInternal(job.dag, job.config, restoreId)
  }

  def shutdown(): Unit = jetNodes.foreach(_.shutdown())

  private def submitInternal(dag: Dag, config: JobConfig, restoreSnapshotId: Long): Job = {
    val jobId = jobIdGen.incrementAndGet()
    val ctl =
      if (config.guarantee == Guarantee.NoGuarantee) null
      else {
        val c = new SnapshotController(config.name, grid, config.snapshotIntervalMs)
        c.requestedId = restoreSnapshotId
        c.committedId = restoreSnapshotId
        c
      }

    val plan = ExecutionPlan.build(dag, jetNodes, jobId, config, grid, ctl, restoreSnapshotId)
    val job  = new Job(jobId, dag, config, plan.tasklets, ctl)
    plan.bindJob(job)

    // Submit per node; then start the snapshot clock.
    plan.byNode.foreach { case (node, ts) => node.exec.submit(ts) }
    if (ctl != null) ctl.start()
    job
  }
}
