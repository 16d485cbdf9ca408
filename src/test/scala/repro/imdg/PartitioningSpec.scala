package repro.imdg

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random
import repro.core.PartitionOwnership

class PartitioningSpec extends AnyFunSuite {
  private val rnd = new Random(1)

  /** The consumer a partitioned edge routes `key` to, out of `consumerCount`
    * instances on one member, as the ownership map decides it.
    */
  private def consumerIndex(key: Any, consumerCount: Int): Int =
    PartitionOwnership.singleMember.instanceOf(Partitioning.partitionId(key), consumerCount)

  test("partitionId is within [0, partitionCount)") {
    (0 until 10000).foreach { _ =>
      val p = Partitioning.partitionId(rnd.nextLong())
      assert(p >= 0 && p < Partitioning.DefaultPartitionCount)
    }
  }

  test("partitionId is deterministic") {
    (0 until 1000).foreach { _ =>
      val k = rnd.nextString(8)
      assert(Partitioning.partitionId(k) == Partitioning.partitionId(k))
    }
  }

  test("consumerIndex is within [0, consumerCount)") {
    (0 until 10000).foreach { _ =>
      val i = consumerIndex(rnd.nextLong(), 7)
      assert(i >= 0 && i < 7)
    }
  }

  test("consecutive long keys spread over partitions roughly evenly") {
    val counts = (0L until 100000L)
      .map(Partitioning.partitionId(_))
      .groupBy(identity)
      .map(_._2.size)
    val expected = 100000.0 / Partitioning.DefaultPartitionCount
    assert(counts.min > expected * 0.5, s"min=${counts.min} expected~$expected")
    assert(counts.max < expected * 1.5, s"max=${counts.max} expected~$expected")
  }

  test("null key is handled") {
    assert(Partitioning.partitionId(null) >= 0)
  }

  test("consumerIndex of a single consumer is always 0") {
    (0 until 1000).foreach(_ => assert(consumerIndex(rnd.nextInt(), 1) == 0))
  }

  test("consumerIndex is consistent with partitionId") {
    (0 until 1000).foreach { _ =>
      val k = rnd.nextLong()
      assert(consumerIndex(k, 5) == math.floorMod(Partitioning.partitionId(k), 5))
    }
  }
}
