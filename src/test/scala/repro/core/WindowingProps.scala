package repro.core

import org.scalacheck.{Gen, Prop, Properties}
import repro.imdg.{MigrationPlanner, Partitioning}

/** ScalaCheck property suites for the windowing math and partitioning. */
object WindowingProps extends Properties("Windowing") {

  private val tsGen    = Gen.chooseNum(0L, 1000000L)
  private val slideGen = Gen.oneOf(1L, 5L, 10L, 50L, 100L)
  private val multGen  = Gen.chooseNum(1, 20)

  property("frameEnd is slide-aligned and strictly above ts") = Prop.forAll(tsGen, slideGen) {
    (ts, slide) =>
      val fe = Windowing.frameEnd(ts, slide)
      fe % slide == 0 && fe > ts && fe - slide <= ts
  }

  property("every window in windowEnds contains ts") = Prop.forAll(tsGen, slideGen, multGen) {
    (ts, slide, k) =>
      val wd = WindowDef(slide * k, slide)
      Windowing.windowEnds(ts, wd).forall(we => ts >= we - wd.sizeMs && ts < we)
  }

  property("windowEnds has exactly size/slide entries, consecutive by slide") =
    Prop.forAll(tsGen, slideGen, multGen) { (ts, slide, k) =>
      val wd = WindowDef(slide * k, slide)
      val ws = Windowing.windowEnds(ts, wd)
      ws.size == k && ws.sliding(2).forall {
        case Seq(a, b) => b - a == slide
        case _         => true
      }
    }

  property("no window outside windowEnds contains ts") = Prop.forAll(tsGen, slideGen, multGen) {
    (ts, slide, k) =>
      val wd  = WindowDef(slide * k, slide)
      val ws  = Windowing.windowEnds(ts, wd).toSet
      val min = ws.min - slide
      val max = ws.max + slide
      !(ts >= min - wd.sizeMs && ts < min) && !(ts >= max - wd.sizeMs && ts < max)
  }

  property("partitionId stays within bounds for any key") = Prop.forAll { (k: Long) =>
    val p = Partitioning.partitionId(k)
    p >= 0 && p < Partitioning.DefaultPartitionCount
  }

  /** The consumer index of a partitioned edge: the instance, out of `l` on
    * each of `members` members, that owns the key's partition.
    */
  property("consumerIndex is stable and bounded") =
    Prop.forAll(Gen.chooseNum(1, 4), Gen.chooseNum(1, 16)) { (members, l) =>
      val ownership = PartitionOwnership(
        MigrationPlanner.initial(0 until members, Partitioning.DefaultPartitionCount, 2), Array.range(0, members))
      Prop.forAll { (k: String) =>
        val i = ownership.instanceOf(Partitioning.partitionId(k), l)
        i >= 0 && i < members * l && i == ownership.instanceOf(Partitioning.partitionId(k), l)
      }
    }

  property("counting aggregate: combine then deduct is identity") =
    Prop.forAll(Gen.chooseNum(0, 100), Gen.chooseNum(0, 100)) { (a, b) =>
      val op   = AggregateOperations.counting
      val accA = op.create(); val accB = op.create()
      (1 to a).foreach(_ => op.accumulate(accA, ()))
      (1 to b).foreach(_ => op.accumulate(accB, ()))
      op.combine(accA, accB)
      op.deduct.get(accA, accB)
      op.finish(accA) == a.toLong
    }

  property("summingLong aggregate is associative under combine") =
    Prop.forAll(Gen.listOfN(30, Gen.chooseNum(-1000L, 1000L))) { xs =>
      val op = AggregateOperations.summingLong(_.asInstanceOf[Long])
      val (l, r) = xs.splitAt(xs.size / 2)
      val whole  = op.create(); xs.foreach(x => op.accumulate(whole, x))
      val accL   = op.create(); l.foreach(x => op.accumulate(accL, x))
      val accR   = op.create(); r.foreach(x => op.accumulate(accR, x))
      op.combine(accL, accR)
      op.finish(accL) == op.finish(whole)
    }
}
