package repro.imdg

import java.util.concurrent.ConcurrentHashMap
import java.util.concurrent.locks.ReentrantReadWriteLock
import scala.collection.mutable
import scala.jdk.CollectionConverters._

/** A member node of the in-memory data grid.
  *
  * A node holds, per (map name, partition id), a concurrent hash map with the
  * partition's entries. The node stores a partition iff it appears in the
  * cluster's partition table for that partition — whether as primary or as a
  * backup replica is a property of the *table*, not of the store: promotion
  * (Figure 6 of the paper) is a pure metadata change, which is exactly what
  * makes IMDG recovery fast.
  */
final class GridNode(val id: Int) {
  private[imdg] val stores =
    new ConcurrentHashMap[(String, Int), ConcurrentHashMap[Any, Any]]()
  @volatile private[imdg] var alive: Boolean = true

  private[imdg] def store(map: String, partition: Int): ConcurrentHashMap[Any, Any] =
    stores.computeIfAbsent((map, partition), _ => new ConcurrentHashMap[Any, Any]())

  private[imdg] def storeIfPresent(map: String, partition: Int): Option[ConcurrentHashMap[Any, Any]] =
    Option(stores.get((map, partition)))

  /** Number of entries physically held by this node (all replicas). */
  def replicaEntryCount: Long = stores.values.asScala.map(_.size.toLong).sum
}

/** An in-memory data grid: partitioned, replicated maps over a set of member
  * nodes, with failure promotion and minimal-move rebalancing (§4.2–4.3).
  *
  * All of this runs inside one JVM — nodes are logical members — but the
  * replica placement, promotion and migration protocol is the real one, so
  * Jet's state backend behaviour (fast recovery from a replica, data loss
  * only when more than `backupCount` members fail together) is preserved.
  */
final class GridCluster(
    initialMembers: Int,
    val partitionCount: Int = Partitioning.DefaultPartitionCount,
    val backupCount: Int = 1
) {
  require(initialMembers >= 1, "grid needs at least one member")

  private val lock     = new ReentrantReadWriteLock()
  private val nodesMap = mutable.SortedMap.empty[Int, GridNode]
  private val mapNames = ConcurrentHashMap.newKeySet[String]()
  private var nextId   = 0

  @volatile private var tableV: PartitionTable = _
  locally {
    (0 until initialMembers).foreach { _ => nodesMap(nextId) = new GridNode(nextId); nextId += 1 }
    tableV = MigrationPlanner.initial(nodesMap.keys.toSeq, partitionCount, backupCount + 1)
  }

  def table: PartitionTable = tableV
  def members: Vector[Int]  = { val l = lock.readLock(); l.lock(); try nodesMap.keys.toVector finally l.unlock() }
  def node(id: Int): GridNode = nodesMap(id)

  /** Get (or create) a distributed map. */
  def getMap[K, V](name: String): IMap[K, V] = { mapNames.add(name); new IMap[K, V](name, this) }

  /** Simulate a member crash: its in-memory replicas are *lost*, surviving
    * backups are promoted in place, and fresh backups are re-created by
    * copying from the new primaries (§4.2, Figure 6).
    */
  def failNode(id: Int): Unit = withWriteLock {
    val n = nodesMap.remove(id).getOrElse(throw new NoSuchElementException(s"node $id"))
    n.alive = false
    n.stores.clear() // a crash loses the node's memory
    require(nodesMap.nonEmpty, "cannot fail the last grid member")
    replan()
  }

  /** Add a fresh member and rebalance replicas onto it with minimal moves. */
  def addNode(): Int = withWriteLock {
    val id = nextId; nextId += 1
    nodesMap(id) = new GridNode(id)
    replan()
    id
  }

  private def replan(): Unit = {
    val members = nodesMap.keys.toSeq
    val (newTable, migrations) = MigrationPlanner.plan(tableV, members, backupCount + 1)
    // Copy partition data into newly assigned replica holders.
    for (m <- migrations; mapName <- mapNames.asScala) {
      val target = nodesMap(m.node).store(mapName, m.partition)
      m.from.flatMap(f => nodesMap.get(f)).flatMap(_.storeIfPresent(mapName, m.partition))
        .foreach(src => target.putAll(src))
    }
    // Drop stores from members that no longer hold the partition.
    for ((id, n) <- nodesMap; key <- n.stores.keySet.asScala.toVector) {
      val (_, p) = key
      if (!newTable.holders(p).contains(id)) n.stores.remove(key)
    }
    tableV = newTable
  }

  private def withWriteLock[A](body: => A): A = {
    val l = lock.writeLock(); l.lock(); try body finally l.unlock()
  }
  private[imdg] def withReadLock[A](body: => A): A = {
    val l = lock.readLock(); l.lock(); try body finally l.unlock()
  }
  private[imdg] def nodeOpt(id: Int): Option[GridNode] = nodesMap.get(id)
}

/** A partitioned, replicated, in-memory key-value map (Hazelcast's `IMap`).
  *
  * Writes go to the primary replica and are synchronously applied to all
  * backup replicas; reads are served by the primary. Jet uses maps like this
  * to store state snapshots next to the processors that own the keys (§2.4).
  */
final class IMap[K, V](val name: String, cluster: GridCluster) {

  private def holders(p: Int) = cluster.table.holders(p)
  private def primaryNode(p: Int): GridNode = cluster.node(cluster.table.primary(p))

  private def partitionOf(key: K): Int = {
    val k = key match {
      case pa: PartitionAware => pa.partitionKey
      case other              => other
    }
    Partitioning.partitionId(k, cluster.partitionCount)
  }

  def put(key: K, value: V): Unit = cluster.withReadLock {
    val p = partitionOf(key)
    holders(p).foreach(n => cluster.node(n).store(name, p).put(key, value))
  }

  def get(key: K): Option[V] = cluster.withReadLock {
    val p = partitionOf(key)
    Option(primaryNode(p).store(name, p).get(key)).map(_.asInstanceOf[V])
  }

  def remove(key: K): Option[V] = cluster.withReadLock {
    val p   = partitionOf(key)
    val old = Option(primaryNode(p).store(name, p).get(key))
    holders(p).foreach(n => cluster.node(n).store(name, p).remove(key))
    old.map(_.asInstanceOf[V])
  }

  def contains(key: K): Boolean = get(key).isDefined

  /** Entry count, read from primary replicas. */
  def size: Long = cluster.withReadLock {
    (0 until cluster.partitionCount).map { p =>
      primaryNode(p).storeIfPresent(name, p).map(_.size.toLong).getOrElse(0L)
    }.sum
  }

  /** Snapshot of all entries, read from primary replicas. */
  def entries: Vector[(K, V)] = cluster.withReadLock {
    import scala.jdk.CollectionConverters._
    (0 until cluster.partitionCount).flatMap { p =>
      primaryNode(p).storeIfPresent(name, p)
        .map(_.entrySet.asScala.map(e => (e.getKey.asInstanceOf[K], e.getValue.asInstanceOf[V])).toVector)
        .getOrElse(Vector.empty)
    }.toVector
  }

  /** Entries of one partition (primary replica). */
  def entriesInPartition(p: Int): Vector[(K, V)] = cluster.withReadLock {
    import scala.jdk.CollectionConverters._
    primaryNode(p).storeIfPresent(name, p)
      .map(_.entrySet.asScala.map(e => (e.getKey.asInstanceOf[K], e.getValue.asInstanceOf[V])).toVector)
      .getOrElse(Vector.empty)
  }

  def clear(): Unit = cluster.withReadLock {
    for (p <- 0 until cluster.partitionCount; n <- holders(p))
      cluster.node(n).storeIfPresent(name, p).foreach(_.clear())
  }
}
