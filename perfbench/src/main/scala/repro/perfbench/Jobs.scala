package repro.perfbench

import java.util.concurrent.atomic.{AtomicLong, AtomicLongArray}
import java.util.concurrent.atomic.LongAdder
import java.util.concurrent.locks.LockSupport
import repro.core._
import repro.nexmark._
import repro.pipeline._

/** Call counts of the windowed aggregation's operation (traced runs). */
final class AggCounters extends Serializable {
  val accumulate, combine, deduct, copy, finish = new LongAdder
}

/** Counts every call into `inner`, which it then forwards. */
final class CountingAggregate[A, R](inner: AggregateOperation[A, R], c: AggCounters)
    extends AggregateOperation[A, R] {
  def create(): A                       = inner.create()
  def accumulate(acc: A, item: Any): Unit = { c.accumulate.increment(); inner.accumulate(acc, item) }
  def combine(acc: A, other: A): Unit   = { c.combine.increment(); inner.combine(acc, other) }
  override def deduct: Option[(A, A) => Unit] =
    inner.deduct.map(d => (a: A, o: A) => { c.deduct.increment(); d(a, o) })
  def copyAcc(acc: A): A = { c.copy.increment(); inner.copyAcc(acc) }
  def finish(acc: A): R  = { c.finish.increment(); inner.finish(acc) }
}

/** The callbacks one job runs with. With tracing off they record only what
  * the end-to-end metrics need: the first read, and in a closed loop when
  * the source first read past each slide.
  */
final class Probe(
    val w: Workload,
    val gen: Generator,
    val totalEvents: Long,
    val traced: Boolean
) {
  /** Shared schedule of an open loop; null when unthrottled. */
  val pacer: Pacer  = if (w.openLoop) new Pacer(w.ratePerSec) else null
  val slideMs: Long = Workloads.Window.slideMs
  val lastTs: Long  = gen.tsOf(totalEvents - 1)

  @volatile var firstReadNanos = 0L
  private val slideRead = if (pacer == null) new AtomicLongArray((lastTs / slideMs + 2).toInt) else null
  // Written by the single source instance only.
  private var lastSlide  = -1L
  private var lastLagSeq = -1L

  val sourceLag = new Recorder
  val keyCalls  = new LongAdder
  val agg       = new AggCounters

  /** The source's event function. The source calls it again for the same
    * `seq` each time its outbox refuses the event, so the lag is recorded
    * on the first call only.
    */
  def event(seq: Long): Any = {
    val e = gen.eventOf(seq)
    if (firstReadNanos == 0L) firstReadNanos = System.nanoTime()
    if (slideRead != null && e.ts / slideMs > lastSlide) {
      val now = System.nanoTime()
      while (lastSlide < e.ts / slideMs) { lastSlide += 1; slideRead.set(lastSlide.toInt, now) }
    }
    if (traced && pacer != null && seq != lastLagSeq) {
      lastLagSeq = seq
      sourceLag.record(System.nanoTime() - pacer.dueNanos(e.ts, 0L))
    }
    e
  }

  /** When the window ending at `we` was due: its place in the open-loop
    * schedule, or in a closed loop when the source read the first event at
    * or past `we` (the read that lets the watermark close it).
    */
  def dueNanos(we: Long): Long =
    if (pacer != null) pacer.dueNanos(we, 0L) else slideRead.get((we / slideMs).toInt)

  def key[T](f: T => Long): T => Long =
    if (traced) { t => keyCalls.increment(); f(t) } else f

  def aggregate[A, R](op: AggregateOperation[A, R]): AggregateOperation[A, R] =
    if (traced) new CountingAggregate(op, agg) else op
}

/** A sink callback that tallies rows and row hashes per window end for the
  * correctness check and, when `latencyFrom` is set, records each row's
  * latency: from its window's due time to the moment the sink sees it.
  * Only windows ending in `[latencyFrom, lastTs]` are timed: earlier ones are
  * warm-up, and later ones are flushed at completion with no due time.
  *
  * The timed span is cut into equal segments of at least
  * [[SinkCheck.SegmentMs]] of event time, one recorder each, so a quantile
  * can be read per segment and a disturbance confined to one segment does
  * not decide a run's figure.
  *
  * When the first row of a window ending at one of `heapAtMs` arrives, the
  * sink forces a full collection and reads the live heap into `liveBytes`,
  * while the job still holds its open windows.
  */
final class SinkCheck(expected: Expected, probe: Probe, latencyFrom: Option[Long], heapAtMs: Array[Long]) {
  private val n      = expected.windows
  private val slide  = expected.slideMs
  private val rows   = new AtomicLongArray(n)
  private val sums   = new AtomicLongArray(n)
  private val stray  = new AtomicLong
  private val from   = latencyFrom.getOrElse(0L)
  private val span   = math.max(1L, probe.lastTs + 1 - from)
  val segments       = Array.fill(math.max(1L, span / SinkCheck.SegmentMs).toInt)(new Recorder)
  /** Per window: when the sink saw its first and last row (traced runs). */
  val first: AtomicLongArray = if (probe.traced) new AtomicLongArray(n) else null
  val last: AtomicLongArray  = if (probe.traced) new AtomicLongArray(n) else null
  private val heapRead       = new AtomicLongArray(heapAtMs.length)
  val liveBytes              = new AtomicLongArray(heapAtMs.length)

  val timed: Long => Boolean = we => latencyFrom.exists(we >= _) && we <= probe.lastTs

  def onResult(value: Any, ts: Long): Unit = {
    val now = System.nanoTime()
    val i   = (ts / slide - 1).toInt
    if (ts % slide != 0 || i < 0 || i >= n) { stray.incrementAndGet(); return }
    if (heapAtMs.length > 0) readHeap(ts)
    rows.incrementAndGet(i)
    sums.addAndGet(i, SinkCheck.rowHash(value))
    if (timed(ts)) segments(((ts - from) * segments.length / span).toInt).record(now - probe.dueNanos(ts))
    if (first != null) {
      first.compareAndSet(i, 0L, now)
      last.accumulateAndGet(i, now, math.max)
    }
  }

  private def readHeap(ts: Long): Unit = {
    val h = heapAtMs.indexOf(ts)
    if (h >= 0 && heapRead.compareAndSet(h, 0L, 1L)) liveBytes.set(h, Jvm.liveBytesAfterFullGc())
  }

  def windows: Int = n
  def windowEnd(i: Int): Long = (i + 1L) * slide

  /** Windows whose row count or hash sum differs from the recount, plus
    * rows for windows the recount has none of.
    */
  def wrong: Long =
    (0 until n).count(i => rows.get(i) != expected.rows(i) || sums.get(i) != expected.sums(i)) +
      stray.get()
}

object SinkCheck {
  /** 10 s: 1 000 window closes at a 10 ms slide, so 10 lie beyond p99. */
  val SegmentMs = 10000L

  def rowHash(v: Any): Long = v match {
    case KeyedWindowResult(k: Long, we, r: Long) => Recount.rowHash(we, k, r)
    case Q5Out(we, auction, cnt)                 => Recount.rowHash(we, auction, cnt)
    case _                                       => 0L
  }
}

/** What one job run measured. */
final class Outcome(
    val events: Long,
    val setupNs: Long,
    val toDagNs: Long,
    val submitNs: Long,
    val wallNs: Long,
    val cpuNs: Long,
    val attempted: Long,
    val wrong: Long,
    val probe: Probe,
    val measured: SinkCheck,
    val gc: Vector[GcEvent],
    val snapshots: Vector[(Long, Long)],
    val coopCpuNs: Long,
    val replicaEntries: Long
)

/** Builds and runs the benchmark's jobs, each on a fresh `JetInstance`. */
object Jobs {

  private val ids = new AtomicLong

  /** Expected results per sink name for an input of `events` events. */
  def expected(w: Workload, seed: Long, events: Long): Map[String, Expected] = {
    val gen = new Generator(w.genCfg(seed))
    w.query match {
      case Query.Q5Measured =>
        val (agg, top) = Recount.q5(gen, events, Workloads.Window)
        Map("agg" -> agg, "top" -> top)
      case Query.Q5 => Map("top" -> Recount.q5(gen, events, Workloads.Window)._2)
    }
  }

  /** The sink whose rows are timed. */
  def measuredSink(w: Workload): String = w.query match {
    case Query.Q5Measured => "agg"
    case Query.Q5         => "top"
  }

  private def topAuctions(we: Long, results: Vector[KeyedWindowResult[Long, Long]]): Iterator[Q5Out] =
    if (results.isEmpty) Iterator.empty
    else {
      val mx = results.iterator.map(_.result).max
      results.iterator.filter(_.result == mx).map(r => Q5Out(we, r.key, r.result))
    }

  /** The workload's query, stage for stage as in `Queries`, with the
    * probe's callbacks in place of the source function, key function and
    * aggregate operation.
    */
  def build(p: Pipeline, probe: Probe, sinks: Map[String, SinkCheck]): Unit = {
    val w = probe.w
    def sink(name: String) = ForeachSinkDef(sinks(name).onResult, 1)
    val events = p.readFrom[Event](StreamSourceDef(
      probe.event, probe.gen.tsOf, probe.totalEvents, Option(probe.pacer), Workloads.WmStrideMs))
    val agg = events
      .flatMap { case b: Bid => b :: Nil; case _ => Nil }
      .groupingKey(probe.key[Bid](_.auction))
      .window(Workloads.Window)
      .aggregate(probe.aggregate(AggregateOperations.counting))
    if (w.query == Query.Q5Measured) agg.writeTo(sink("agg"))
    agg.windowEndAggregate[Q5Out](topAuctions).writeTo(sink("top"))
  }

  private final class Started(
      val inst: JetInstance,
      val job: Job,
      val jobName: String,
      val probe: Probe,
      val sinks: Map[String, SinkCheck],
      val t0: Long,
      val toDagNs: Long,
      val submitStart: Long,
      val submitNs: Long,
      val cpu0: Long
  )

  private def start(w: Workload, seed: Long, expected: Map[String, Expected], events: Long,
      traced: Boolean, warmupMs: Long, heapAtMs: Array[Long]): Started = {
    val gen   = new Generator(w.genCfg(seed))
    val probe = new Probe(w, gen, events, traced)
    val sinks = expected.map { case (name, e) =>
      val measured = name == measuredSink(w)
      name -> new SinkCheck(e, probe, if (measured) Some(warmupMs) else None, if (measured) heapAtMs else Array.emptyLongArray)
    }
    val t0   = System.nanoTime()
    val ft   = w.guarantee != Guarantee.NoGuarantee
    val inst = new JetInstance(1, w.threads, backupCount = 1, extraGridMembers = if (ft) 1 else 0)
    try {
      val p = new Pipeline
      build(p, probe, sinks)
      val t1          = System.nanoTime()
      val dag         = p.toDag()
      val submitStart = System.nanoTime()
      val cpu0        = Jvm.processCpuNanos
      val jobName     = s"${w.name}-${ids.incrementAndGet()}"
      val job         = inst.submit(dag, JobConfig(jobName, w.guarantee, Workloads.SnapshotIntervalMs))
      val t3          = System.nanoTime()
      new Started(inst, job, jobName, probe, sinks, t0, submitStart - t1, submitStart, t3 - submitStart, cpu0)
    } catch { case e: Throwable => inst.shutdown(); throw e }
  }

  private def awaitFirstRead(s: Started): Unit = {
    val deadline = System.nanoTime() + 30000000000L
    while (s.probe.firstReadNanos == 0L && System.nanoTime() < deadline) LockSupport.parkNanos(50000L)
    require(s.probe.firstReadNanos != 0L, s"${s.jobName}: the source read nothing within 30 s")
  }

  /** Set-up only: from constructing the instance to the source's first
    * read; returns (setup, toDag, submit) nanos. The job is then cancelled.
    */
  def setupOnce(w: Workload, seed: Long, expected: Map[String, Expected], events: Long,
      traced: Boolean): (Long, Long, Long) = {
    val s = start(w, seed, expected, events, traced, 0L, Array.emptyLongArray)
    try {
      awaitFirstRead(s)
      (s.probe.firstReadNanos - s.t0, s.toDagNs, s.submitNs)
    } finally {
      s.job.cancel()
      s.job.awaitTerminated(30000)
      s.inst.shutdown()
    }
  }

  /** Run `events` events to completion and check every window. The
    * measured sink reads the live heap as each window ending at one of
    * `heapAtMs` closes (see [[SinkCheck]]).
    */
  def run(w: Workload, seed: Long, expected: Map[String, Expected], events: Long, traced: Boolean,
      warmupMs: Long, timeoutMs: Long, heapAtMs: Array[Long]): Outcome = {
    val s      = start(w, seed, expected, events, traced, warmupMs, heapAtMs)
    val poller = if (traced && w.guarantee != Guarantee.NoGuarantee) new SnapshotPoller(s.job, s.inst, s.jobName) else null
    try {
      val completed =
        try { s.job.awaitCompletion(timeoutMs); true }
        catch {
          case e: IllegalStateException =>
            System.err.println(s"${s.jobName}: ${e.getMessage}")
            s.job.cancel()
            s.job.awaitTerminated(30000)
            false
        }
      val end   = System.nanoTime()
      val cpu   = Jvm.processCpuNanos - s.cpu0
      val coop  = Jvm.threadCpuNanos("-coop-")
      val grid  = s.inst.grid
      val replicas = grid.members.map(id => grid.node(id).replicaEntryCount).sum
      val gc    = Jvm.gcEvents(s.submitStart, end)
      val attempted = s.sinks.values.map(_.windows.toLong).sum
      val wrong     = if (completed) s.sinks.values.map(_.wrong).sum else attempted
      new Outcome(events, s.probe.firstReadNanos - s.t0, s.toDagNs, s.submitNs, end - s.submitStart, cpu,
        attempted, wrong, s.probe, s.sinks(measuredSink(w)), gc,
        if (poller == null) Vector.empty else poller.commits, coop, replicas)
    } finally {
      if (poller != null) poller.finish()
      s.inst.shutdown()
    }
  }
}

/** Polls `Job.snapshotsCompleted` every millisecond and records when each
  * snapshot committed and how many entries it holds in the grid.
  */
final class SnapshotPoller(job: Job, inst: JetInstance, jobName: String) {
  // Only used for the controller's naming of its grid maps; never started.
  private val names        = new SnapshotController(jobName, inst.grid, Workloads.SnapshotIntervalMs)
  @volatile private var on = true
  private val found        = Vector.newBuilder[(Long, Long)]
  private val thread = new Thread(() => {
    var seen = 0
    while (on) {
      val c = job.snapshotsCompleted
      if (c != seen) {
        seen = c
        val id = inst.grid.getMap[String, Long](names.metaMapName).get("committed").getOrElse(0L)
        found += ((System.nanoTime(), inst.grid.getMap[Any, Any](names.snapshotMapName(id)).size))
      }
      Thread.sleep(1)
    }
  }, s"perfbench-snapshot-poller-$jobName")
  thread.setDaemon(true)
  thread.start()

  def finish(): Unit = if (on) { on = false; thread.join() }

  /** (commit nanos, entries) per observed commit. */
  def commits: Vector[(Long, Long)] = { finish(); found.result() }
}
