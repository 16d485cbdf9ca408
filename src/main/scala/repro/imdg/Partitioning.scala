package repro.imdg

/** Key-to-partition hashing, mirroring Hazelcast's fixed partition space.
  *
  * Hazelcast IMDG hashes every key into one of a fixed number of partitions
  * (271 by default, a prime, so `hash % count` spreads well even for keys
  * with regular strides). Both the Jet execution engine (partitioned edges,
  * §3.1 of the paper) and the IMDG state backend (§4.1) use the *same*
  * partitioning, and `repro.core.PartitionOwnership` maps each partition to
  * one processor instance, so state for a key is local to the processor
  * that owns that key.
  */
object Partitioning {

  /** Hazelcast's default partition count (a prime). */
  val DefaultPartitionCount: Int = 271

  /** Final mixing step of murmur3 — decorrelates consecutive hashCodes
    * (e.g. boxed Longs 1,2,3,…) so partitions are evenly loaded.
    */
  def smear(h0: Int): Int = {
    var h = h0
    h ^= h >>> 16
    h *= 0x85ebca6b
    h ^= h >>> 13
    h *= 0xc2b2ae35
    h ^= h >>> 16
    h
  }

  /** Partition id of `key` in a space of `partitionCount` partitions. */
  def partitionId(key: Any, partitionCount: Int = DefaultPartitionCount): Int =
    math.floorMod(smear(if (key == null) 0 else key.hashCode), partitionCount)
}

/** A key that names the key it is partitioned by, like Hazelcast's
  * `PartitionAware`: an [[IMap]] places it in `partitionId(partitionKey)`.
  * Only the IMap honours it; edge routing hashes the key it is given.
  */
trait PartitionAware {
  def partitionKey: Any
}
