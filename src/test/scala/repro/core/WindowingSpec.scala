package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.collection.mutable
import scala.util.Random

/** Unit tests of the frame-based two-stage windowing machinery, checked
  * against naive per-window recomputation.
  */
class WindowingSpec extends AnyFunSuite {

  test("frameEnd is the exclusive slide-aligned upper bound") {
    assert(Windowing.frameEnd(0, 10) == 10)
    assert(Windowing.frameEnd(9, 10) == 10)
    assert(Windowing.frameEnd(10, 10) == 20)
    assert(Windowing.frameEnd(15, 10) == 20)
  }

  test("windowEnds lists exactly size/slide windows") {
    val wd = WindowDef(100, 20)
    val ws = Windowing.windowEnds(37, wd)
    assert(ws.size == 5)
    assert(ws == Seq(40, 60, 80, 100, 120))
    ws.foreach(we => assert(37 >= we - wd.sizeMs && 37 < we))
  }

  test("WindowDef validates size multiple of slide") {
    intercept[IllegalArgumentException](WindowDef(100, 30))
    intercept[IllegalArgumentException](WindowDef(0, 10))
  }

  test("tumbling window (slide == size) assigns each ts to exactly one window") {
    val wd = WindowDef(50, 50)
    (0L until 500L).foreach { ts =>
      assert(Windowing.windowEnds(ts, wd) == Seq(Windowing.frameEnd(ts, 50)))
    }
  }

  private def outboxInto(q: SpscQueue): Outbox =
    new Outbox(Array(new EdgeCollector(Array(new LocalQueueSink(q)), RoutingPolicy.RoundRobin)))

  /** Drives accumulate→combine directly, each with a single-sink outbox;
    * items are their own keys.
    */
  private final class WindowPair[A, R](aggrOp: AggregateOperation[A, R], wd: WindowDef) {
    private val accQ    = new SpscQueue(1 << 20)
    private val outQ    = new SpscQueue(1 << 20)
    private val accOut  = outboxInto(accQ)
    private val combOut = outboxInto(outQ)
    private val inbox   = new Inbox
    var acc             = new AccumulateByFrameP[A](v => v, aggrOp, wd.slideMs)
    var comb            = new CombineFramesP[A, R](aggrOp, wd)

    private def feedCombine(): Unit = {
      var x = accQ.poll()
      while (x != null) {
        x match {
          case d: DataItem => inbox.add(d); comb.process(0, inbox, combOut)
          case _           => ()
        }
        x = accQ.poll()
      }
    }

    def item(v: Any, ts: Long): Unit = {
      inbox.add(DataItem(v, ts))
      acc.process(0, inbox, accOut)
    }

    def watermark(wm: Long): Unit = {
      assert(acc.tryProcessWatermark(Watermark(wm), accOut))
      feedCombine()
      assert(comb.tryProcessWatermark(Watermark(wm), combOut))
    }

    /** Snapshots both processors, as an aligned barrier would find them,
      * and restores the state, Java-serialized as the IMDG holds it, into
      * fresh instances.
      */
    def restart(): Unit = {
      feedCombine()
      val accState  = roundTrip(acc.saveSnapshot().toVector)
      val combState = roundTrip(comb.saveSnapshot().toVector)
      acc = new AccumulateByFrameP[A](v => v, aggrOp, wd.slideMs)
      acc.restoreSnapshot(accState.iterator)
      comb = new CombineFramesP[A, R](aggrOp, wd)
      comb.restoreSnapshot(combState.iterator)
    }

    def complete(): Vector[KeyedWindowResult[Any, R]] = {
      assert(acc.complete(accOut))
      feedCombine()
      assert(comb.complete(combOut))
      val out = Vector.newBuilder[KeyedWindowResult[Any, R]]
      var x   = outQ.poll()
      while (x != null) {
        x match {
          case DataItem(r: KeyedWindowResult[_, _], _) => out += r.asInstanceOf[KeyedWindowResult[Any, R]]
          case _                                       => ()
        }
        x = outQ.poll()
      }
      out.result()
    }
  }

  private def roundTrip(entries: Vector[(Any, Any)]): Vector[(Any, Any)] = {
    val bos = new java.io.ByteArrayOutputStream()
    val oos = new java.io.ObjectOutputStream(bos)
    oos.writeObject(entries)
    oos.close()
    new java.io.ObjectInputStream(new java.io.ByteArrayInputStream(bos.toByteArray))
      .readObject().asInstanceOf[Vector[(Any, Any)]]
  }

  /** Feeds `items` in timestamp order, each watermark before the first item
    * at or past it, with a snapshot-and-restore before item `restartAt`.
    */
  private def runPair[A, R](
      items: Seq[(Any, Long)],
      wd: WindowDef,
      aggrOp: AggregateOperation[A, R],
      watermarks: Seq[Long],
      restartAt: Int = -1
  ): (Vector[KeyedWindowResult[Any, R]], WindowPair[A, R]) = {
    val pair  = new WindowPair(aggrOp, wd)
    var wmIdx = 0
    for (((v, ts), i) <- items.sortBy(_._2).zipWithIndex) {
      while (wmIdx < watermarks.size && watermarks(wmIdx) <= ts) {
        pair.watermark(watermarks(wmIdx))
        wmIdx += 1
      }
      if (i == restartAt) pair.restart()
      pair.item(v, ts)
    }
    (pair.complete(), pair)
  }

  private def runWindowPair(
      items: Seq[(Any, Long)],
      wd: WindowDef,
      aggrOp: AggregateOperation[LongAcc, Long],
      watermarks: Seq[Long]
  ): Vector[KeyedWindowResult[Any, Long]] =
    runPair(items, wd, aggrOp, watermarks)._1

  private def naiveCounts(items: Seq[(Any, Long)], wd: WindowDef): Map[(Any, Long), Long] =
    (for { (v, ts) <- items; we <- Windowing.windowEnds(ts, wd) } yield (v, we))
      .groupBy(identity)
      .map { case (kwe, xs) => kwe -> xs.size.toLong }

  test("accumulate+combine (deduct path) equals naive recomputation") {
    val rnd   = new Random(3)
    val wd    = WindowDef(80, 20)
    val items = (0 until 5000).map(_ => (("k" + rnd.nextInt(6)): Any, rnd.nextLong(1000)))
    val wms   = (0L to 1100L by 40L).toVector
    val got = runWindowPair(items, wd, AggregateOperations.counting, wms)
      .map(r => (r.key, r.windowEnd) -> r.result)
      .toMap
    assert(got == naiveCounts(items, wd))
  }

  test("results are identical with and without watermarks (completion flush)") {
    val rnd   = new Random(9)
    val wd    = WindowDef(60, 30)
    val items = (0 until 2000).map(_ => (("k" + rnd.nextInt(4)): Any, rnd.nextLong(500)))
    val withWms = runWindowPair(items, wd, AggregateOperations.counting, (0L to 600L by 30L).toVector)
      .map(r => (r.key, r.windowEnd) -> r.result).toMap
    val noWms = runWindowPair(items, wd, AggregateOperations.counting, Vector.empty)
      .map(r => (r.key, r.windowEnd) -> r.result).toMap
    assert(withWms == noWms)
    assert(noWms == naiveCounts(items, wd))
  }

  test("no result is emitted twice for the same (key, window)") {
    val rnd   = new Random(5)
    val wd    = WindowDef(40, 10)
    val items = (0 until 3000).map(_ => (("k" + rnd.nextInt(10)): Any, rnd.nextLong(700)))
    val out   = runWindowPair(items, wd, AggregateOperations.counting, (0L to 800L by 10L).toVector)
    val kw    = out.map(r => (r.key, r.windowEnd))
    assert(kw.distinct.size == kw.size)
  }

  test("summingLong with deduct equals naive sums") {
    val rnd   = new Random(17)
    val wd    = WindowDef(100, 25)
    val items = (0 until 4000).map(i => ((i % 5).toLong: Any, rnd.nextLong(900)))
    val op    = AggregateOperations.summingLong(v => v.asInstanceOf[Long])
    val got = runWindowPair(items, wd, op, (0L to 1000L by 25L).toVector)
      .map(r => (r.key, r.windowEnd) -> r.result).toMap
    val expected = (for { (v, ts) <- items; we <- Windowing.windowEnds(ts, wd) } yield ((v, we), v.asInstanceOf[Long]))
      .groupBy(_._1).map { case (kwe, xs) => kwe -> xs.map(_._2).sum }
    assert(got == expected)
  }

  /** Runs with a snapshot-and-restore of both stages halfway through the
    * items, then checks that no key state outlives `complete()`. Callers
    * use more keys than items per frame, so keys skip frames and some
    * drop out of the window between their frames.
    */
  private def runRestarted[A, R](
      items: Seq[(Any, Long)],
      wd: WindowDef,
      aggrOp: AggregateOperation[A, R]
  ): Map[(Any, Long), R] = {
    val wms         = (0L to 1100L by wd.slideMs).toVector
    val (out, pair) = runPair(items, wd, aggrOp, wms, restartAt = items.size / 2)
    assert(pair.comb.saveSnapshot().map(_._1).toVector == Vector(BroadcastKey("meta")))
    assert(pair.acc.saveSnapshot().isEmpty)
    val got = out.map(r => (r.key, r.windowEnd) -> r.result)
    assert(got.map(_._1).distinct.size == got.size)
    got.toMap
  }

  test("snapshot and restore mid-window: counting (deduct path) equals naive counts") {
    val rnd   = new Random(23)
    val wd    = WindowDef(80, 20)
    val items = (0 until 4000).map(_ => (("k" + rnd.nextInt(60)): Any, rnd.nextLong(1000)))
    assert(runRestarted(items, wd, AggregateOperations.counting) == naiveCounts(items, wd))
  }

  test("snapshot and restore mid-window: summingLong (deduct path) equals naive sums") {
    val rnd   = new Random(29)
    val wd    = WindowDef(100, 25)
    val items = (0 until 4000).map(i => ((i % 53).toLong: Any, rnd.nextLong(900)))
    val got   = runRestarted(items, wd, AggregateOperations.summingLong(v => v.asInstanceOf[Long]))
    val expected = naiveCounts(items, wd).map { case ((k, we), n) => (k, we) -> k.asInstanceOf[Long] * n }
    assert(got == expected)
  }

  test("snapshot and restore mid-window: toList (recombine path) has the naive sizes") {
    val rnd   = new Random(31)
    val wd    = WindowDef(60, 20)
    val items = (0 until 3000).map(_ => (("k" + rnd.nextInt(40)): Any, rnd.nextLong(800)))
    val got   = runRestarted(items, wd, AggregateOperations.toList)
    assert(got.map { case (kw, xs) => kw -> xs.size.toLong } == naiveCounts(items, wd))
  }

  test("averagingDouble deduct path stays numerically consistent") {
    val op  = AggregateOperations.averagingDouble(v => v.asInstanceOf[Double])
    val a   = op.create(); val b = op.create()
    op.accumulate(a, 1.0); op.accumulate(a, 3.0)
    op.accumulate(b, 5.0)
    op.combine(a, b)
    assert(op.finish(op.copyAcc(a)) == 3.0)
    op.deduct.get(a, b)
    assert(op.finish(op.copyAcc(a)) == 2.0)
  }

  test("counting deduct reverses combine") {
    val op = AggregateOperations.counting
    val a  = op.create(); val b = op.create()
    (1 to 5).foreach(_ => op.accumulate(a, ()))
    (1 to 3).foreach(_ => op.accumulate(b, ()))
    op.combine(a, b); assert(op.finish(op.copyAcc(a)) == 8)
    op.deduct.get(a, b); assert(op.finish(op.copyAcc(a)) == 5)
  }

  test("copyAcc isolates snapshots from live mutation") {
    val op   = AggregateOperations.counting
    val a    = op.create()
    op.accumulate(a, ())
    val copy = op.copyAcc(a)
    op.accumulate(a, ())
    assert(op.finish(copy) == 1)
    assert(op.finish(a) == 2)
  }

  test("toList has no deduct (recombine path is selected)") {
    assert(AggregateOperations.toList.deduct.isEmpty)
    assert(AggregateOperations.counting.deduct.isDefined)
  }

  test("toTwoBags co-groups Left and Right items and rejects untagged ones") {
    val op = AggregateOperations.toTwoBags
    assert(op.deduct.isEmpty)
    val a, b = op.create()
    op.accumulate(a, Left(1)); op.accumulate(a, Right("x"))
    op.accumulate(b, Left(2))
    op.combine(a, b)
    assert(op.finish(a) == ((Vector(1, 2), Vector("x"))))
    intercept[IllegalArgumentException](op.accumulate(a, 3))
  }

  test("FrameTable finds every key through hash collisions, growth and reuse") {
    final case class Clashing(id: Int) { override def hashCode: Int = id % 3 }
    val keys: Seq[AnyRef] =
      (0 until 300).map(i => if (i % 2 == 0) Clashing(i) else java.lang.Long.valueOf(i * 1024L))
    val t = new FrameTable[AnyRef, java.lang.Integer]
    for (_ <- 0 until 2) {
      keys.zipWithIndex.foreach { case (k, i) => assert(t.get(k) == null); t.add(k, i) }
      keys.zipWithIndex.foreach { case (k, i) => assert(t.get(k) == i) }
      val seen = mutable.Map.empty[AnyRef, Int]
      t.forEach((k, v) => seen(k) = v.intValue)
      assert(seen == keys.zipWithIndex.toMap)
      t.clear()
      keys.foreach(k => assert(t.get(k) == null))
    }
  }

  test("WindowEndAggregateP groups by window end and emits on watermark") {
    val outQ   = new SpscQueue(1024)
    val outbox = new Outbox(Array(new EdgeCollector(Array(new LocalQueueSink(outQ)), RoutingPolicy.RoundRobin)))
    val p = new WindowEndAggregateP((we, vs) => Iterator.single((we, vs.size)))
    val inbox = new Inbox
    inbox.add(DataItem(KeyedWindowResult("a", 100L, 1L), 100))
    inbox.add(DataItem(KeyedWindowResult("b", 100L, 2L), 100))
    inbox.add(DataItem(KeyedWindowResult("a", 200L, 3L), 200))
    p.process(0, inbox, outbox)
    assert(p.tryProcessWatermark(Watermark(100), outbox))
    var got = Vector.empty[Any]
    var x   = outQ.poll()
    while (x != null) { got :+= x.asInstanceOf[DataItem].value; x = outQ.poll() }
    assert(got == Vector((100L, 2)))
    assert(p.complete(outbox))
    got = Vector.empty
    x = outQ.poll()
    while (x != null) { got :+= x.asInstanceOf[DataItem].value; x = outQ.poll() }
    assert(got == Vector((200L, 1)))
  }

  /** Combine instances as a snapshot finds them, restored into one fresh
    * instance that receives every instance's entries (the broadcast metas
    * included, in the given order); returns the restored instance's output
    * from `complete()` and a reference instance's output after the same
    * watermark, both as (key, window end, count).
    */
  private def restoreAll(
      wd: WindowDef,
      instances: Seq[(Seq[(Any, Long)], Long)]
  ): (Vector[(Any, Long, Long)], Vector[(Any, Long, Long)]) = {
    val op = AggregateOperations.counting
    val q  = new SpscQueue(1 << 16)
    val out = outboxInto(q)
    def drain(): Vector[(Any, Long, Long)] =
      Iterator.continually(q.poll()).takeWhile(_ != null).collect {
        case DataItem(r: KeyedWindowResult[_, _], _) => (r.key: Any, r.windowEnd, r.result.asInstanceOf[Long])
      }.toVector
    def fed(partials: Seq[(Any, Long)], wm: Long): CombineFramesP[LongAcc, Long] = {
      val c     = new CombineFramesP(op, wd)
      val inbox = new Inbox
      partials.foreach { case (k, fe) =>
        val acc = op.create(); op.accumulate(acc, ())
        inbox.add(DataItem(FrameAggregate(k, fe, acc), fe))
      }
      c.process(0, inbox, out)
      if (wm != Long.MinValue) assert(c.tryProcessWatermark(Watermark(wm), out))
      c
    }
    val saved = instances.flatMap { case (ps, wm) => fed(ps, wm).saveSnapshot().toVector }.toVector
    drain()
    val restored = new CombineFramesP(op, wd)
    restored.restoreSnapshot(roundTrip(saved).iterator)
    assert(restored.complete(out))
    val got = drain()
    val expected = instances.flatMap { case (ps, wm) =>
      val c = fed(ps, wm)
      drain()
      assert(c.complete(out))
      drain()
    }.toVector
    (got, expected)
  }

  test("restoring every instance's meta: an unset meta from an instance without frames loses no window") {
    val wd = WindowDef(40, 10)
    val (got, expected) = restoreAll(wd, Seq(
      (Seq(("a", 10L), ("a", 20L), ("b", 30L)), 20L),
      (Seq.empty, Long.MinValue) // saw no frames: its meta is unset, and restored last
    ))
    assert(expected.nonEmpty)
    assert(got.sortBy(_.toString) == expected.sortBy(_.toString))
  }

  test("restoring every instance's meta: an instance that closed all its windows early re-closes none") {
    val wd = WindowDef(40, 10)
    val (got, expected) = restoreAll(wd, Seq(
      (Seq(("a", 10L), ("a", 20L), ("b", 30L), ("a", 50L), ("a", 70L)), 60L),
      (Seq(("c", 10L)), 60L) // its last window ended at 40, so its next window is behind the other's
    ))
    assert(expected.nonEmpty)
    assert(got.map(r => (r._1, r._2)).distinct.size == got.size, "a window was emitted twice")
    assert(got.sortBy(_.toString) == expected.sortBy(_.toString))
  }
}
