package repro.core

import repro.imdg.{PartitionTable, Partitioning}

/** Which processor instance owns each IMDG partition (§2.4, §4.1): the one
  * map that partitioned edges route by and that snapshot restore hands
  * keyed state out by, so a key's state sits next to the instance its items
  * go to.
  *
  * Partition `p` is owned by the member holding its primary replica. A
  * member that runs no tasklets (a replica-only grid member) cannot own
  * one; the first replica holder that runs tasklets then owns it, or, if
  * none does, member `p % memberCount`. The owner keeps `p` on local slot
  * `rank(p) % l`, where `rank(p)` is `p`'s position among the owner's
  * partitions in ascending order and `l` is the vertex's local parallelism.
  * Instances are numbered member by member, so member `m`'s slot `s` is
  * instance `m * l + s`. With one member `rank(p) == p`.
  */
final class PartitionOwnership private (memberIdx: Array[Int], rank: Array[Int]) {

  def partitionCount: Int = memberIdx.length

  /** The instance owning partition `p` among `l` instances per member. */
  def instanceOf(p: Int, l: Int): Int = memberIdx(p) * l + rank(p) % l

  /** Partition → sink index of a partitioned edge into a vertex with `l`
    * instances per member. A distributed edge's sinks are every member's
    * instances, in instance order; a node-local edge's sinks are the
    * producer's own member's `l` instances, so it uses the local slot.
    */
  def routes(l: Int, distributed: Boolean): Array[Int] = {
    val out = new Array[Int](memberIdx.length)
    var p   = 0
    while (p < out.length) {
      val i = instanceOf(p, l)
      out(p) = if (distributed) i else i % l
      p += 1
    }
    out
  }
}

object PartitionOwnership {

  /** Ownership of `table`'s partitions among `members` (Jet member ids, in
    * instance-numbering order).
    */
  def apply(table: PartitionTable, members: Array[Int]): PartitionOwnership = {
    require(members.nonEmpty, "ownership needs at least one member")
    val n         = table.partitionCount
    val memberIdx = new Array[Int](n)
    val rank      = new Array[Int](n)
    val owned     = new Array[Int](members.length)
    var p         = 0
    while (p < n) {
      val m = ownerOf(table.holders(p), members, p)
      memberIdx(p) = m
      rank(p) = owned(m)
      owned(m) += 1
      p += 1
    }
    new PartitionOwnership(memberIdx, rank)
  }

  /** Index in `members` of the first replica holder that is a member. */
  private def ownerOf(holders: Vector[Int], members: Array[Int], p: Int): Int = {
    var r = 0
    while (r < holders.length) {
      var i = 0
      while (i < members.length) {
        if (members(i) == holders(r)) return i
        i += 1
      }
      r += 1
    }
    p % members.length
  }

  /** One member owning all of Hazelcast's default partitions: partition `p`
    * goes to instance `p % l`.
    */
  val singleMember: PartitionOwnership =
    apply(PartitionTable(Vector.fill(Partitioning.DefaultPartitionCount)(Vector(0))), Array(0))
}
