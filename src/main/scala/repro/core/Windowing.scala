package repro.core

import scala.collection.mutable

/** Sliding (or, when `slideMs == sizeMs`, tumbling) event-time window. */
final case class WindowDef(sizeMs: Long, slideMs: Long) {
  require(sizeMs > 0 && slideMs > 0, "window size and slide must be positive")
  require(sizeMs % slideMs == 0, "window size must be a multiple of the slide")
  def frameCount: Int = (sizeMs / slideMs).toInt
}

object Windowing {
  /** End (exclusive upper bound, slide-aligned) of the frame containing `ts`. */
  def frameEnd(ts: Long, slideMs: Long): Long =
    Math.floorDiv(ts, slideMs) * slideMs + slideMs

  /** Window-end timestamps of every window containing `ts`. */
  def windowEnds(ts: Long, wd: WindowDef): Seq[Long] = {
    val first = frameEnd(ts, wd.slideMs)
    first.until(first + wd.sizeMs, wd.slideMs)
  }
}

/** Which sliding windows a keyed window processor has still to close: the
  * next window end, and the last frame seen so far, which bounds closing
  * when the final watermark is +inf. Snapshotted as one "meta" entry.
  */
private[core] final class WindowCloser(wd: WindowDef) {
  private var nextW       = Long.MinValue
  private var maxFrameEnd = Long.MinValue

  def sawFrame(fe: Long): Unit = {
    if (nextW == Long.MinValue || fe < nextW) nextW = fe
    if (fe > maxFrameEnd) maxFrameEnd = fe
  }

  /** Calls `emitWindow` once per window end up to `upTo`, in order. */
  def closeUpTo(upTo: Long)(emitWindow: Long => Unit): Unit =
    if (nextW != Long.MinValue) {
      // The last window any known frame can contribute to.
      val target = math.min(upTo, maxFrameEnd + wd.sizeMs - wd.slideMs)
      while (nextW <= target) {
        emitWindow(nextW)
        nextW += wd.slideMs
      }
    }

  def snapshotEntry: (Any, Any) = ("meta", (nextW, maxFrameEnd))

  def restore(meta: Any): Unit = {
    val (nw, mfe) = meta.asInstanceOf[(Long, Long)]
    if (nextW == Long.MinValue || nw < nextW) nextW = nw
    if (mfe > maxFrameEnd) maxFrameEnd = mfe
  }
}

/** Stage 1 of the two-stage windowed aggregation (§3.1): accumulates items
  * into per-(key, frame) partial accumulators *locally* and releases each
  * frame's partials downstream once the watermark passes the frame end.
  * Its input edge is partitioned but node-local, so no network is touched.
  */
final class AccumulateByFrameP[A](
    keyFn: Any => Any,
    aggrOp: AggregateOperation[A, _],
    slideMs: Long
) extends Processor {
  private val frames = mutable.HashMap.empty[(Any, Long), A]

  def process(ordinal: Int, inbox: Inbox, outbox: Outbox): Unit = {
    var d = inbox.poll()
    while (d != null) {
      val fe  = Windowing.frameEnd(d.timestamp, slideMs)
      val acc = frames.getOrElseUpdate((keyFn(d.value), fe), aggrOp.create())
      aggrOp.accumulate(acc, d.value)
      d = inbox.poll()
    }
  }

  override def tryProcessWatermark(wm: Watermark, outbox: Outbox): Boolean = emitUpTo(wm.ts, outbox)

  override def complete(outbox: Outbox): Boolean = emitUpTo(Long.MaxValue, outbox)

  private def emitUpTo(upTo: Long, outbox: Outbox): Boolean = {
    val ready = frames.iterator.filter { case ((_, fe), _) => fe <= upTo }.toVector
    // Deterministic order keeps runs reproducible for tests.
    ready.sortBy { case ((k, fe), _) => (fe, k.toString) }.foreach { case ((k, fe), acc) =>
      frames.remove((k, fe))
      outbox.emit(FrameAggregate(k, fe, acc), fe)
    }
    outbox.flush()
  }

  override def saveSnapshot(): Iterator[(Any, Any)] =
    frames.iterator.map { case (kf, acc) => (kf: Any, aggrOp.copyAcc(acc): Any) }

  override def restoreSnapshot(entries: Iterator[(Any, Any)]): Unit =
    entries.foreach { case (kf, acc) =>
      val key = kf.asInstanceOf[(Any, Long)]
      frames.get(key) match {
        case Some(existing) => aggrOp.combine(existing, acc.asInstanceOf[A])
        case None           => frames(key) = acc.asInstanceOf[A]
      }
    }
}

/** Stage 2 of the two-stage windowed aggregation: receives frame partials
  * over a partitioned *distributed* edge, combines them per key, and emits
  * one result per (key, window) when the watermark passes the window end.
  *
  * When the aggregate supports `deduct`, each slide advances a per-key
  * running accumulator by adding the entering frame and deducting the
  * expiring one — O(keys) per slide, which is what lets Jet trigger a 10 s
  * window every 10 ms (§7.3). Without `deduct` it recombines the frames of
  * the window.
  */
final class CombineFramesP[A, R](
    aggrOp: AggregateOperation[A, R],
    wd: WindowDef,
    mapResult: (Any, Long, R) => Any = (k: Any, we: Long, r: R) => KeyedWindowResult(k, we, r)
) extends Processor {

  private final class KeyState {
    var running: A                          = _
    val frames: java.util.TreeMap[Long, A] = new java.util.TreeMap[Long, A]()
  }

  private val states   = mutable.HashMap.empty[Any, KeyState]
  private val closer   = new WindowCloser(wd)
  private val deductFn = aggrOp.deduct

  def process(ordinal: Int, inbox: Inbox, outbox: Outbox): Unit = {
    var d = inbox.poll()
    while (d != null) {
      val fa = d.value.asInstanceOf[FrameAggregate[Any, A]]
      val ks = states.getOrElseUpdate(fa.key, new KeyState)
      val existing = ks.frames.get(fa.frameEnd)
      if (existing == null) ks.frames.put(fa.frameEnd, fa.acc)
      else aggrOp.combine(existing, fa.acc)
      closer.sawFrame(fa.frameEnd)
      d = inbox.poll()
    }
  }

  override def tryProcessWatermark(wm: Watermark, outbox: Outbox): Boolean = emitUpTo(wm.ts, outbox)

  override def complete(outbox: Outbox): Boolean = emitUpTo(Long.MaxValue, outbox)

  private def emitUpTo(upTo: Long, outbox: Outbox): Boolean = {
    closer.closeUpTo(upTo)(emitWindow(_, outbox))
    outbox.flush()
  }

  private def emitWindow(we: Long, outbox: Outbox): Unit = {
    val emptied = Vector.newBuilder[Any]
    // Deterministic key order for reproducible runs.
    for (key <- states.keys.toVector.sortBy(_.toString)) {
      val ks = states(key)
      if (deductFn.isDefined) {
        val entering = ks.frames.get(we)
        if (entering != null) {
          if (ks.running == null) ks.running = aggrOp.create()
          aggrOp.combine(ks.running, entering)
        }
        val hasData = !ks.frames.subMap(we - wd.sizeMs, false, we, true).isEmpty
        if (hasData)
          outbox.emit(mapResult(key, we, aggrOp.finish(aggrOp.copyAcc(ks.running))), we)
        val expiring = ks.frames.remove(we - wd.sizeMs + wd.slideMs)
        if (expiring != null) deductFn.get(ks.running, expiring)
        if (ks.frames.isEmpty) emptied += key
      } else {
        val sub = ks.frames.subMap(we - wd.sizeMs, false, we, true)
        if (!sub.isEmpty) {
          val acc = aggrOp.create()
          sub.values.forEach(f => aggrOp.combine(acc, f))
          outbox.emit(mapResult(key, we, aggrOp.finish(acc)), we)
        }
        ks.frames.headMap(we - wd.sizeMs + wd.slideMs, true).clear()
        if (ks.frames.isEmpty) emptied += key
      }
    }
    emptied.result().foreach(states.remove)
  }

  override def saveSnapshot(): Iterator[(Any, Any)] = {
    import scala.jdk.CollectionConverters._
    val keyEntries = states.iterator.map { case (k, ks) =>
      val framesCopy = ks.frames.entrySet.asScala
        .map(e => (e.getKey: Long, aggrOp.copyAcc(e.getValue))).toVector
      (("ks", k): Any, (Option(ks.running).map(aggrOp.copyAcc), framesCopy): Any)
    }
    keyEntries ++ Iterator(closer.snapshotEntry)
  }

  override def restoreSnapshot(entries: Iterator[(Any, Any)]): Unit =
    entries.foreach {
      case ("meta", v) => closer.restore(v)
      case (("ks", k), v) =>
        val (running, framesVec) = v.asInstanceOf[(Option[A], Vector[(Long, A)])]
        val ks = states.getOrElseUpdate(k, new KeyState)
        running.foreach { r =>
          if (ks.running == null) ks.running = r else aggrOp.combine(ks.running, r)
        }
        framesVec.foreach { case (fe, acc) =>
          val existing = ks.frames.get(fe)
          if (existing == null) ks.frames.put(fe, acc) else aggrOp.combine(existing, acc)
        }
      case other => throw new IllegalStateException(s"unexpected snapshot entry: $other")
    }
}

/** Groups already-windowed results by window end (its input edge partitions
  * on `windowEnd`) and applies a whole-window function when the watermark
  * closes the window — e.g. "auctions with the most bids" in NEXMark Q5.
  */
final class WindowEndAggregateP(
    resultFn: (Long, Vector[Any]) => Iterator[Any]
) extends Processor {
  private val byWindow = mutable.HashMap.empty[Long, mutable.ArrayBuffer[Any]]

  def process(ordinal: Int, inbox: Inbox, outbox: Outbox): Unit = {
    var d = inbox.poll()
    while (d != null) {
      val kwr = d.value.asInstanceOf[KeyedWindowResult[_, _]]
      byWindow.getOrElseUpdate(kwr.windowEnd, mutable.ArrayBuffer.empty) += kwr
      d = inbox.poll()
    }
  }

  override def tryProcessWatermark(wm: Watermark, outbox: Outbox): Boolean = emitUpTo(wm.ts, outbox)

  override def complete(outbox: Outbox): Boolean = emitUpTo(Long.MaxValue, outbox)

  private def emitUpTo(upTo: Long, outbox: Outbox): Boolean = {
    val ready = byWindow.keys.filter(_ <= upTo).toVector.sorted
    ready.foreach { we =>
      val items = byWindow.remove(we).get
      resultFn(we, items.toVector).foreach(outbox.emit(_, we))
    }
    outbox.flush()
  }

  override def saveSnapshot(): Iterator[(Any, Any)] =
    byWindow.iterator.map { case (we, buf) => (we: Any, buf.toVector: Any) }

  override def restoreSnapshot(entries: Iterator[(Any, Any)]): Unit =
    entries.foreach { case (we, v) =>
      byWindow.getOrElseUpdate(we.asInstanceOf[Long], mutable.ArrayBuffer.empty) ++=
        v.asInstanceOf[Vector[Any]]
    }
}

/** Keyed sliding-window join of two streams (NEXMark Q8): buffers both
  * inputs per (key, frame); when a window closes, keys present on *both*
  * sides within the window produce `resultFn(key, lefts, rights, windowEnd)`.
  * Joins run as a single distributed stage (both edges partition on the
  * join key), like Jet's stream-to-stream joins.
  */
final class TwoInputWindowJoinP(
    keyL: Any => Any,
    keyR: Any => Any,
    wd: WindowDef,
    resultFn: (Any, Vector[Any], Vector[Any], Long) => Iterator[Any]
) extends Processor {

  private final class KeyState {
    val frames = new java.util.TreeMap[Long, (mutable.ArrayBuffer[Any], mutable.ArrayBuffer[Any])]()
  }

  private val states = mutable.HashMap.empty[Any, KeyState]
  private val closer = new WindowCloser(wd)

  def process(ordinal: Int, inbox: Inbox, outbox: Outbox): Unit = {
    var d = inbox.poll()
    while (d != null) {
      val key = if (ordinal == 0) keyL(d.value) else keyR(d.value)
      val fe  = Windowing.frameEnd(d.timestamp, wd.slideMs)
      val ks  = states.getOrElseUpdate(key, new KeyState)
      var pair = ks.frames.get(fe)
      if (pair == null) {
        pair = (mutable.ArrayBuffer.empty[Any], mutable.ArrayBuffer.empty[Any])
        ks.frames.put(fe, pair)
      }
      (if (ordinal == 0) pair._1 else pair._2) += d.value
      closer.sawFrame(fe)
      d = inbox.poll()
    }
  }

  override def tryProcessWatermark(wm: Watermark, outbox: Outbox): Boolean = emitUpTo(wm.ts, outbox)

  override def complete(outbox: Outbox): Boolean = emitUpTo(Long.MaxValue, outbox)

  private def emitUpTo(upTo: Long, outbox: Outbox): Boolean = {
    closer.closeUpTo(upTo)(emitWindow(_, outbox))
    outbox.flush()
  }

  private def emitWindow(we: Long, outbox: Outbox): Unit = {
    val emptied = Vector.newBuilder[Any]
    for (key <- states.keys.toVector.sortBy(_.toString)) {
      val ks  = states(key)
      val sub = ks.frames.subMap(we - wd.sizeMs, false, we, true)
      if (!sub.isEmpty) {
        val lefts  = Vector.newBuilder[Any]
        val rights = Vector.newBuilder[Any]
        sub.values.forEach { case (l, r) => lefts ++= l; rights ++= r }
        val (ls, rs) = (lefts.result(), rights.result())
        if (ls.nonEmpty && rs.nonEmpty)
          resultFn(key, ls, rs, we).foreach(outbox.emit(_, we))
      }
      ks.frames.headMap(we - wd.sizeMs + wd.slideMs, true).clear()
      if (ks.frames.isEmpty) emptied += key
    }
    emptied.result().foreach(states.remove)
  }

  override def saveSnapshot(): Iterator[(Any, Any)] = {
    import scala.jdk.CollectionConverters._
    val keyEntries = states.iterator.map { case (k, ks) =>
      val frames = ks.frames.entrySet.asScala
        .map(e => (e.getKey: Long, (e.getValue._1.toVector, e.getValue._2.toVector))).toVector
      (("ks", k): Any, frames: Any)
    }
    keyEntries ++ Iterator(closer.snapshotEntry)
  }

  override def restoreSnapshot(entries: Iterator[(Any, Any)]): Unit =
    entries.foreach {
      case ("meta", v) => closer.restore(v)
      case (("ks", k), v) =>
        val ks = states.getOrElseUpdate(k, new KeyState)
        v.asInstanceOf[Vector[(Long, (Vector[Any], Vector[Any]))]].foreach {
          case (fe, (ls, rs)) =>
            var pair = ks.frames.get(fe)
            if (pair == null) {
              pair = (mutable.ArrayBuffer.empty[Any], mutable.ArrayBuffer.empty[Any])
              ks.frames.put(fe, pair)
            }
            pair._1 ++= ls
            pair._2 ++= rs
        }
      case other => throw new IllegalStateException(s"unexpected snapshot entry: $other")
    }
}
