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
  * when the final watermark is +inf. Snapshotted as one broadcast "meta"
  * entry, so a restored instance gets every instance's: it resumes at the
  * earliest next window of those that held frames. An instance holding no
  * frames writes an unset meta, which restores nothing: it has nothing left
  * to close, and its next window may lie behind the others' (it closed all
  * its windows early), where closing again would emit duplicates.
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

  def snapshotEntry(holdsFrames: Boolean): (Any, Any) =
    (WindowCloser.MetaKey, if (holdsFrames) (nextW, maxFrameEnd) else (Long.MinValue, Long.MinValue))

  def restore(meta: Any): Unit = {
    val (nw, mfe) = meta.asInstanceOf[(Long, Long)]
    if (nw != Long.MinValue && (nextW == Long.MinValue || nw < nextW)) nextW = nw
    if (mfe > maxFrameEnd) maxFrameEnd = mfe
  }
}

private[core] object WindowCloser {
  val MetaKey: BroadcastKey = BroadcastKey("meta")
}

/** Open-addressing hash map (linear probing) from key to value, compared
  * with `equals`. Its one array is kept when it is cleared, so a table reused
  * frame after frame allocates nothing per entry: a window's partials then
  * cost the collector one object each (the accumulator), where a
  * `java.util.HashMap` adds a node per entry.
  */
private[core] final class FrameTable[K, V] {
  // Key at 2i, its value at 2i + 1, so a lookup reads one cache line.
  private var tab   = new Array[AnyRef](32)
  private var count = 0

  /** The slot holding `k`, or the empty slot where it would go. The start
    * slot is the top bits of a Fibonacci hash, which spreads sequential ids
    * evenly and depends on every bit of the key's hash.
    */
  private def find(t: Array[AnyRef], k: Any): Int = {
    val mask = t.length - 2
    val h    = k.hashCode * 0x9e3779b9
    var i    = (h >>> (33 - Integer.numberOfTrailingZeros(t.length))) << 1
    while (t(i) != null && !t(i).equals(k)) i = (i + 2) & mask
    i
  }

  def get(k: K): V = {
    val t = tab
    t(find(t, k) + 1).asInstanceOf[V]
  }

  /** Adds `k -> v`; `k` must be absent. */
  def add(k: K, v: V): Unit = {
    if (4 * (count + 1) > tab.length) grow()
    put(tab, k.asInstanceOf[AnyRef], v.asInstanceOf[AnyRef])
    count += 1
  }

  private def put(t: Array[AnyRef], k: AnyRef, v: AnyRef): Unit = {
    val i = find(t, k)
    t(i) = k
    t(i + 1) = v
  }

  private def grow(): Unit = {
    val old = tab
    tab = new Array[AnyRef](old.length * 2)
    var i = 0
    while (i < old.length) {
      if (old(i) != null) put(tab, old(i), old(i + 1))
      i += 2
    }
  }

  def forEach(f: (K, V) => Unit): Unit = {
    val t = tab
    var i = 0
    while (i < t.length) {
      if (t(i) != null) f(t(i).asInstanceOf[K], t(i + 1).asInstanceOf[V])
      i += 2
    }
  }

  def clear(): Unit =
    if (count > 0) {
      java.util.Arrays.fill(tab, null)
      count = 0
    }
}

/** Frame-major window state: per frame end, in order, one [[FrameTable]]
  * from key to the frame's partial accumulator. Frames are the slices of
  * general stream slicing (Traub et al., EDBT 2019): each is added to a
  * window once and leaves it once, as a whole. Items and partials arrive
  * frame by frame, so the current frame's table is cached, and a table
  * whose frame is done is cleared and reused for the next new frame, so a
  * steady stream allocates no tables.
  */
private[core] final class FrameMaps[K, A](aggrOp: AggregateOperation[A, _]) {
  type Frame = FrameTable[K, A]

  private val byEnd         = new java.util.TreeMap[java.lang.Long, Frame]()
  private var curEnd        = 0L
  private var cur: Frame    = null
  private var spare: Frame  = null

  /** The table of frame `fe`, created if absent. */
  def apply(fe: Long): Frame = {
    if (cur == null || curEnd != fe) {
      cur = byEnd.get(fe)
      if (cur == null) {
        cur = if (spare != null) spare else new Frame()
        spare = null
        byEnd.put(fe, cur)
      }
      curEnd = fe
    }
    cur
  }

  /** The table of frame `fe`, or null. */
  def get(fe: Long): Frame = byEnd.get(fe)

  /** Adds `acc` to `key`'s partial in frame `fe`, taking `acc` over if new. */
  def merge(fe: Long, key: K, acc: A): Unit = {
    val m        = apply(fe)
    val existing = m.get(key)
    if (existing == null) m.add(key, acc) else aggrOp.combine(existing, acc)
  }

  /** Removes frame `fe`, if present, handing its table to `use` first. */
  def take(fe: Long)(use: Frame => Unit): Unit = {
    val m = byEnd.remove(fe)
    if (m != null) {
      use(m)
      recycle(m)
    }
  }

  /** Removes every frame ending at or before `upTo`, in order, handing
    * each to `use` first.
    */
  def takeUpTo(upTo: Long)(use: (Long, Frame) => Unit): Unit =
    while (!byEnd.isEmpty && byEnd.firstKey <= upTo) {
      val f = byEnd.pollFirstEntry()
      use(f.getKey, f.getValue)
      recycle(f.getValue)
    }

  private def recycle(m: Frame): Unit = {
    if (m eq cur) cur = null
    m.clear()
    spare = m
  }

  /** The tables of the frames ending in (`lo`, `hi`], in frame order. */
  def range(lo: Long, hi: Long): java.util.Collection[Frame] = byEnd.subMap(lo, false, hi, true).values

  /** Every (frame end, key, partial), frame by frame. */
  def entries: Iterator[(Long, K, A)] = {
    import scala.jdk.CollectionConverters._
    byEnd.entrySet.iterator.asScala.flatMap { f =>
      val fe  = f.getKey.longValue
      val out = mutable.ArrayBuffer.empty[(Long, K, A)]
      f.getValue.forEach((k, acc) => out += ((fe, k, acc)))
      out
    }
  }
}

/** Stage 1 of the two-stage windowed aggregation (§3.1): accumulates items
  * into per-frame, per-key partial accumulators *locally* and releases each
  * whole frame downstream, in hash order, once the watermark passes the
  * frame end. Its input edge is partitioned but node-local, so no network
  * is touched.
  */
final class AccumulateByFrameP[A](
    keyFn: Any => Any,
    aggrOp: AggregateOperation[A, _],
    slideMs: Long
) extends Processor {
  private val frames = new FrameMaps[Any, A](aggrOp)

  def process(ordinal: Int, inbox: Inbox, outbox: Outbox): Unit = {
    var d = inbox.poll()
    while (d != null) {
      val m   = frames(Windowing.frameEnd(d.timestamp, slideMs))
      val key = keyFn(d.value)
      var acc = m.get(key)
      if (acc == null) {
        acc = aggrOp.create()
        m.add(key, acc)
      }
      aggrOp.accumulate(acc, d.value)
      d = inbox.poll()
    }
  }

  override def tryProcessWatermark(wm: Watermark, outbox: Outbox): Boolean = emitUpTo(wm.ts, outbox)

  override def complete(outbox: Outbox): Boolean = emitUpTo(Long.MaxValue, outbox)

  private def emitUpTo(upTo: Long, outbox: Outbox): Boolean = {
    frames.takeUpTo(upTo)((fe, m) => m.forEach((k, acc) => outbox.emit(FrameAggregate(k, fe, acc), fe)))
    outbox.flush()
  }

  override def saveSnapshot(): Iterator[(Any, Any)] =
    frames.entries.map { case (fe, k, acc) => ((k, fe): Any, aggrOp.copyAcc(acc): Any) }

  override def restoreSnapshot(entries: Iterator[(Any, Any)]): Unit =
    entries.foreach { case (kf, acc) =>
      val (k, fe) = kf.asInstanceOf[(Any, Long)]
      frames.merge(fe, k, acc.asInstanceOf[A])
    }
}

/** Stage 2 of the two-stage windowed aggregation: receives frame partials
  * over a partitioned *distributed* edge, keeps them frame-major, and emits
  * one result per (key, window) when the watermark passes the window end.
  * The order of the results within a window is unspecified.
  *
  * Each key has one state object, which the frames refer to in place of
  * the key. When the aggregate supports `deduct`, that state also holds a
  * running accumulator of the frames in the key's open window. Closing a
  * window adds the entering frame, emits every live key and deducts the
  * expiring frame, so one slide costs O(results + the two frames'
  * partials) — what lets Jet trigger a 10 s window every 10 ms (§7.3).
  * Without `deduct` it recombines the window's frames.
  *
  * A window's worth of partials is the state that outlives a young
  * collection, and copying it is most of that collection's pause; so each
  * partial costs it one object, its accumulator, and no key or map node.
  */
final class CombineFramesP[A, R](
    aggrOp: AggregateOperation[A, R],
    wd: WindowDef
) extends Processor {

  /** A key's state: its running accumulator (null while the key is in no
    * open window), the last frame added to it, and the last frame the key
    * has a partial in. Compared by identity; hashed like the key.
    */
  private final class KeyState(val key: Any) {
    var running: A     = null.asInstanceOf[A]
    var lastFrame      = Long.MinValue
    var lastSeen       = Long.MinValue
    private val h      = key.hashCode
    override def hashCode: Int = h
  }

  private val frames   = new FrameMaps[KeyState, A](aggrOp)
  private val keys     = new java.util.HashMap[Any, KeyState]()
  private val closer   = new WindowCloser(wd)
  private val deductFn = aggrOp.deduct.orNull

  private def stateOf(k: Any): KeyState = {
    var ks = keys.get(k)
    if (ks == null) {
      ks = new KeyState(k)
      keys.put(k, ks)
    }
    ks
  }

  private def addPartial(fe: Long, ks: KeyState, acc: A): Unit = {
    frames.merge(fe, ks, acc)
    if (fe > ks.lastSeen) ks.lastSeen = fe
  }

  def process(ordinal: Int, inbox: Inbox, outbox: Outbox): Unit = {
    var d = inbox.poll()
    while (d != null) {
      val fa = d.value.asInstanceOf[FrameAggregate[Any, A]]
      addPartial(fa.frameEnd, stateOf(fa.key), fa.acc)
      closer.sawFrame(fa.frameEnd)
      d = inbox.poll()
    }
  }

  override def tryProcessWatermark(wm: Watermark, outbox: Outbox): Boolean = emitUpTo(wm.ts, outbox)

  override def complete(outbox: Outbox): Boolean = emitUpTo(Long.MaxValue, outbox)

  private def emitUpTo(upTo: Long, outbox: Outbox): Boolean = {
    closer.closeUpTo(upTo)(we => if (deductFn != null) slide(we, outbox) else recombine(we, outbox))
    outbox.flush()
  }

  /** Drops a key with no partial left once frame `expiringEnd` is gone:
    * every frame before it was taken by an earlier close.
    */
  private def forgetIfDone(ks: KeyState, expiringEnd: Long): Unit =
    if (ks.lastSeen <= expiringEnd) keys.remove(ks.key)

  /** A frame that arrives after its first window closed (only an
    * at-least-once replay does that) makes the closer close windows again
    * from that frame on; keys may then overcount, never undercount.
    */
  private def slide(we: Long, outbox: Outbox): Unit = {
    val entering = frames.get(we)
    if (entering != null) entering.forEach { (ks, acc) =>
      if (ks.running == null) ks.running = aggrOp.copyAcc(acc) else aggrOp.combine(ks.running, acc)
      ks.lastFrame = math.max(ks.lastFrame, we)
    }
    keys.forEach { (k, ks) =>
      if (ks.running != null) outbox.emit(KeyedWindowResult(k, we, aggrOp.finish(aggrOp.copyAcc(ks.running))), we)
    }
    val expiringEnd = we - wd.sizeMs + wd.slideMs
    frames.take(expiringEnd)(_.forEach { (ks, acc) =>
      if (ks.running != null) {
        if (ks.lastFrame <= expiringEnd) ks.running = null.asInstanceOf[A] else deductFn(ks.running, acc)
      }
      forgetIfDone(ks, expiringEnd)
    })
  }

  private def recombine(we: Long, outbox: Outbox): Unit = {
    val window = new java.util.HashMap[KeyState, A]()
    frames.range(we - wd.sizeMs, we).forEach(_.forEach { (ks, acc) =>
      var w = window.get(ks)
      if (w == null) {
        w = aggrOp.create()
        window.put(ks, w)
      }
      aggrOp.combine(w, acc)
    })
    window.forEach((ks, acc) => outbox.emit(KeyedWindowResult(ks.key, we, aggrOp.finish(acc)), we))
    val expiringEnd = we - wd.sizeMs + wd.slideMs
    frames.takeUpTo(expiringEnd)((_, f) => f.forEach((ks, _) => forgetIfDone(ks, expiringEnd)))
  }

  /** One entry per key, `key -> (running, lastFrame, frames)` (running is
    * null for a key in no open window), plus the broadcast "meta" entry.
    * Keyed by the data key itself, so a restore hands the key's state to
    * the instance the input edge routes the key to. A key is kept only
    * while it has a partial in some frame, so every key has frames.
    */
  override def saveSnapshot(): Iterator[(Any, Any)] = {
    val perKey = new java.util.HashMap[KeyState, mutable.ArrayBuffer[(Long, A)]]()
    frames.entries.foreach { case (fe, ks, acc) =>
      perKey.computeIfAbsent(ks, _ => mutable.ArrayBuffer.empty) += ((fe, aggrOp.copyAcc(acc)))
    }
    import scala.jdk.CollectionConverters._
    val keyEntries = keys.values.iterator.asScala.map { ks =>
      val fs    = perKey.get(ks)
      val state =
        if (ks.running == null) (null, Long.MinValue, fs.toVector)
        else (aggrOp.copyAcc(ks.running), ks.lastFrame, fs.toVector)
      (ks.key, state: Any)
    }
    keyEntries ++ Iterator(closer.snapshotEntry(holdsFrames = !keys.isEmpty))
  }

  override def restoreSnapshot(entries: Iterator[(Any, Any)]): Unit =
    entries.foreach {
      case (WindowCloser.MetaKey, v) => closer.restore(v)
      case (b: BroadcastKey, _)      => throw new IllegalStateException(s"unexpected snapshot entry: $b")
      case (k, v) =>
        val (running, lastFrame, fs) = v.asInstanceOf[(A, Long, Vector[(Long, A)])]
        val ks                       = stateOf(k)
        if (running != null) {
          ks.running = running
          ks.lastFrame = lastFrame
        }
        fs.foreach { case (fe, acc) => addPartial(fe, ks, acc) }
    }
}

/** Groups already-windowed results by window end (its input edge partitions
  * on `windowEnd`) and applies a whole-window function when the watermark
  * closes the window — e.g. "auctions with the most bids" in NEXMark Q5.
  */
final class WindowEndAggregateP(
    resultFn: (Long, Vector[Any]) => Iterator[Any]
) extends Processor {
  private val byWindow = new java.util.TreeMap[java.lang.Long, mutable.ArrayBuffer[Any]]()

  def process(ordinal: Int, inbox: Inbox, outbox: Outbox): Unit = {
    var d = inbox.poll()
    while (d != null) {
      val kwr = d.value.asInstanceOf[KeyedWindowResult[_, _]]
      byWindow.computeIfAbsent(kwr.windowEnd, _ => mutable.ArrayBuffer.empty) += kwr
      d = inbox.poll()
    }
  }

  override def tryProcessWatermark(wm: Watermark, outbox: Outbox): Boolean = emitUpTo(wm.ts, outbox)

  override def complete(outbox: Outbox): Boolean = emitUpTo(Long.MaxValue, outbox)

  private def emitUpTo(upTo: Long, outbox: Outbox): Boolean = {
    while (!byWindow.isEmpty && byWindow.firstKey <= upTo) {
      val w  = byWindow.pollFirstEntry()
      val we = w.getKey.longValue
      resultFn(we, w.getValue.toVector).foreach(outbox.emit(_, we))
    }
    outbox.flush()
  }

  override def saveSnapshot(): Iterator[(Any, Any)] = {
    import scala.jdk.CollectionConverters._
    byWindow.entrySet.iterator.asScala.map(e => (e.getKey.longValue: Any, e.getValue.toVector: Any))
  }

  override def restoreSnapshot(entries: Iterator[(Any, Any)]): Unit =
    entries.foreach { case (we, v) =>
      byWindow.computeIfAbsent(we.asInstanceOf[Long], _ => mutable.ArrayBuffer.empty) ++=
        v.asInstanceOf[Vector[Any]]
    }
}
