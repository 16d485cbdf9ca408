package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.imdg.{GridCluster, Partitioning}

/** The partition → member → instance map that edge routing and snapshot
  * restore share.
  */
class PartitionOwnershipSpec extends AnyFunSuite {

  private def ownership(grid: GridCluster, jetMembers: Int): PartitionOwnership =
    PartitionOwnership(grid.table, grid.members.take(jetMembers).toArray)

  test("one member: partition p is owned by instance p % l") {
    val own = ownership(new GridCluster(1), 1)
    for (l <- 1 to 8; p <- 0 until own.partitionCount) {
      assert(own.instanceOf(p, l) == p % l)
      assert(PartitionOwnership.singleMember.instanceOf(p, l) == p % l)
    }
    for (l <- 1 to 8; distributed <- Seq(true, false))
      assert(own.routes(l, distributed).toSeq == (0 until own.partitionCount).map(_ % l))
  }

  test("two and three members: every instance owns at least one partition") {
    for (members <- Seq(2, 3); l <- 1 to 8) {
      val own   = ownership(new GridCluster(members), members)
      val owned = (0 until own.partitionCount).map(own.instanceOf(_, l)).toSet
      assert(owned == (0 until members * l).toSet, s"$members members x $l")
    }
  }

  test("a node-local edge routes to the owner's local slot") {
    val own = ownership(new GridCluster(3), 3)
    val l   = 4
    val local = own.routes(l, distributed = false)
    val dist  = own.routes(l, distributed = true)
    (0 until own.partitionCount).foreach { p =>
      assert(dist(p) == own.instanceOf(p, l))
      assert(local(p) == dist(p) % l)
    }
  }

  test("a replica-only member owns nothing: its partitions go to the first backup that runs tasklets") {
    val grid = new GridCluster(2, backupCount = 1) // member 1 holds replicas only
    val own  = ownership(grid, 1)
    for (l <- 1 to 8) {
      assert((0 until own.partitionCount).map(own.instanceOf(_, l)).toSet == (0 until l).toSet)
      // Member 0 owns every partition, ranked in ascending order.
      (0 until own.partitionCount).foreach(p => assert(own.instanceOf(p, l) == p % l))
    }
    // With no backups a partition may have no replica on a Jet member.
    val bare = ownership(new GridCluster(2, backupCount = 0), 1)
    assert((0 until bare.partitionCount).forall(bare.instanceOf(_, 3) < 3))
  }

  test("after a failure and a new member, ownership follows the replanned table") {
    val grid = new GridCluster(3, backupCount = 1)
    grid.failNode(0)
    val added = grid.addNode()
    val jet   = Array(1, 2, added)
    val own   = PartitionOwnership(grid.table, jet)
    val l     = 2
    (0 until own.partitionCount).foreach { p =>
      assert(jet(own.instanceOf(p, l) / l) == grid.table.primary(p))
    }
  }

  test("an IMap places a partition-aware key by its partition key") {
    val grid = new GridCluster(2)
    val map  = grid.getMap[SnapshotKey, String]("m")
    val key  = SnapshotKey("v", 3, 42L)
    map.put(key, "x")
    val p = Partitioning.partitionId(42L, grid.partitionCount)
    assert(map.entriesInPartition(p) == Vector((key, "x")))
    assert(map.get(key).contains("x"))
  }
}
