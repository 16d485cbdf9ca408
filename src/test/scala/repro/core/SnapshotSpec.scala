package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.imdg.GridCluster
import repro.pipeline._

/** Fault-tolerance tests (§4.4–4.6): periodic Chandy–Lamport snapshots into
  * the IMDG, node-failure recovery with backup promotion, exactly-once via
  * the two-phase transactional sink, and at-least-once semantics.
  */
class SnapshotSpec extends AnyFunSuite {

  private val Keys = 13

  /** Windowed count over a deterministic finite stream; results go to an
    * exactly-once transactional store.
    */
  private def buildJob(
      store: ResultStore,
      totalEvents: Long,
      pacer: Option[Pacer]
  ): Pipeline = {
    val p = new Pipeline
    p.readFrom[Long](StreamSourceDef(seq => seq, seq => seq / 20, totalEvents, pacer, 10, 1))
      .groupingKey(_ % Keys)
      .window(WindowDef(100, 50))
      .aggregate(AggregateOperations.counting)
      .writeTo(TransactionalSinkDef(store))
    p
  }

  /** The expected multiset of (key, windowEnd, count). */
  private def expected(totalEvents: Long): Map[(Long, Long, Long), Int] = {
    val wd = WindowDef(100, 50)
    (for {
      seq <- 0L until totalEvents
      we  <- Windowing.windowEnds(seq / 20, wd)
    } yield (seq % Keys, we))
      .groupBy(identity)
      .map { case ((k, we), xs) => (k, we, xs.size.toLong) }
      .groupBy(identity)
      .map { case (r, xs) => r -> xs.size }
  }

  private def collected(store: ResultStore): Map[(Long, Long, Long), Int] =
    store.results
      .map { v =>
        val r = v.asInstanceOf[KeyedWindowResult[Long, Long]]
        (r.key, r.windowEnd, r.result)
      }
      .groupBy(identity)
      .map { case (r, xs) => r -> xs.size }

  test("exactly-once without failures produces the exact result set") {
    val inst  = new JetInstance(2, 2)
    try {
      val store = new ResultStore
      val total = 40000L
      val job = inst.submit(
        buildJob(store, total, None).toDag(),
        JobConfig("eo-nofail", Guarantee.ExactlyOnce, snapshotIntervalMs = 100)
      )
      job.awaitCompletion(120000)
      assert(collected(store) == expected(total))
    } finally inst.shutdown()
  }

  test("snapshots complete periodically while a job runs") {
    val inst = new JetInstance(2, 2)
    try {
      val store = new ResultStore
      val pacer = new Pacer(30000)
      val job = inst.submit(
        buildJob(store, 90000L, Some(pacer)).toDag(), // ~3s of wall time
        JobConfig("snap-periodic", Guarantee.ExactlyOnce, snapshotIntervalMs = 200)
      )
      job.awaitCompletion(120000)
      assert(job.snapshotsCompleted >= 3, s"only ${job.snapshotsCompleted} snapshots")
      assert(collected(store) == expected(90000L))
    } finally inst.shutdown()
  }

  test("exactly-once: node failure mid-job recovers to the exact result set") {
    val inst = new JetInstance(3, 2)
    try {
      val store = new ResultStore
      val total = 120000L
      val pacer = new Pacer(40000) // ~3s run
      val job = inst.submit(
        buildJob(store, total, Some(pacer)).toDag(),
        JobConfig("eo-fail", Guarantee.ExactlyOnce, snapshotIntervalMs = 200)
      )
      // Wait for at least two committed snapshots, then kill a member.
      val deadline = System.currentTimeMillis() + 30000
      while (job.snapshotsCompleted < 2 && System.currentTimeMillis() < deadline) Thread.sleep(10)
      assert(job.snapshotsCompleted >= 2, "no snapshots committed before failure injection")
      val victim = inst.nodes.head.id
      val job2   = inst.failNodeAndRecover(job, victim)
      job2.awaitCompletion(180000)
      assert(collected(store) == expected(total))
    } finally inst.shutdown()
  }

  test("exactly-once: window-join state survives a node failure") {
    val inst = new JetInstance(3, 2)
    try {
      val store = new ResultStore
      val total = 120000L
      val wd    = WindowDef(100, 50)
      val p     = new Pipeline
      val src   = p.readFrom[Long](StreamSourceDef(seq => seq, seq => seq / 20, total, Some(new Pacer(40000)), 10, 1))
      src.filter(_ % 2 == 0)
        .windowJoin[Long, Long, (Long, Long, Long, Long)](
          src.filter(_ % 2 == 1), _ % 7, _ % 7, wd,
          (k, ls, rs, we) => Iterator.single((k, ls.size.toLong, rs.size.toLong, we))
        )
        .writeTo(TransactionalSinkDef(store))
      val job = inst.submit(p.toDag(), JobConfig("eo-join-fail", Guarantee.ExactlyOnce, snapshotIntervalMs = 200))
      val deadline = System.currentTimeMillis() + 30000
      while (job.snapshotsCompleted < 2 && System.currentTimeMillis() < deadline) Thread.sleep(10)
      assert(job.snapshotsCompleted >= 2, "no snapshots committed before failure injection")
      val job2 = inst.failNodeAndRecover(job, inst.nodes.head.id)
      job2.awaitCompletion(180000)

      def byWin(side: Long) = (for {
        seq <- side until total by 2
        we  <- Windowing.windowEnds(seq / 20, wd)
      } yield (seq % 7, we)).groupBy(identity).view.mapValues(_.size.toLong).toMap
      val (lw, rw) = (byWin(0), byWin(1))
      val expected = (lw.keySet intersect rw.keySet).toVector.map { case (k, we) => (k, lw((k, we)), rw((k, we)), we) }
      val got      = store.results.map(_.asInstanceOf[(Long, Long, Long, Long)])
      assert(got.size == got.distinct.size, "duplicate join results")
      assert(got.toSet == expected.toSet)
    } finally inst.shutdown()
  }

  test("at-least-once: failure recovery never loses a window, may duplicate") {
    val inst = new JetInstance(2, 2)
    try {
      val out = new java.util.concurrent.ConcurrentLinkedQueue[KeyedWindowResult[Long, Long]]()
      val total = 100000L
      val pacer = new Pacer(40000)
      val p = new Pipeline
      p.readFrom[Long](StreamSourceDef(seq => seq, seq => seq / 20, total, Some(pacer), 10, 1))
        .groupingKey(_ % Keys)
        .window(WindowDef(100, 50))
        .aggregate(AggregateOperations.counting)
        .writeTo(ForeachSinkDef((v, _) => { out.add(v.asInstanceOf[KeyedWindowResult[Long, Long]]); () }, 1))
      val job = inst.submit(
        p.toDag(),
        JobConfig("alo-fail", Guarantee.AtLeastOnce, snapshotIntervalMs = 200)
      )
      val deadline = System.currentTimeMillis() + 30000
      while (job.snapshotsCompleted < 2 && System.currentTimeMillis() < deadline) Thread.sleep(10)
      assert(job.snapshotsCompleted >= 2)
      val job2 = inst.failNodeAndRecover(job, inst.nodes.head.id)
      job2.awaitCompletion(180000)

      import scala.jdk.CollectionConverters._
      val got = out.asScala.toVector.groupBy(r => (r.key, r.windowEnd))
      val exp = expected(total).keySet.map { case (k, we, cnt) => (k, we) -> cnt }.toMap
      // Every expected window appears, and its (possibly replayed) count is
      // at least the true count.
      exp.foreach { case ((k, we), cnt) =>
        val rs = got.getOrElse((k, we), Vector.empty)
        assert(rs.nonEmpty, s"window ($k,$we) lost")
        assert(rs.map(_.result).max >= cnt, s"window ($k,$we) undercounted: ${rs.map(_.result)} < $cnt")
      }
    } finally inst.shutdown()
  }

  test("transactional sink publishes only committed transactions, idempotently") {
    val store = new ResultStore
    val sink  = new TransactionalSinkP(store)
    sink.init(ProcessorContext(1, "sink", 0, 1, 0))
    val inbox  = new Inbox
    val outbox = new Outbox(Array.empty)
    inbox.add(DataItem("a", 0)); inbox.add(DataItem("b", 0))
    sink.process(0, inbox, outbox)
    assert(store.results.isEmpty, "uncommitted output must not be visible")
    sink.onSnapshot(1)
    assert(store.results.isEmpty, "prepared-but-uncommitted output must not be visible")
    sink.onSnapshotCommitted(1)
    assert(store.results == Vector("a", "b"))
    // Replays of the same transaction are deduplicated.
    store.commitTxn(0, 1, Vector("a", "b"))
    assert(store.results == Vector("a", "b"))
  }

  test("transactional sink restore republishes prepared transactions exactly once") {
    val store = new ResultStore
    val sink  = new TransactionalSinkP(store)
    sink.init(ProcessorContext(1, "sink", 0, 1, 0))
    val inbox  = new Inbox
    val outbox = new Outbox(Array.empty)
    inbox.add(DataItem("x", 0))
    sink.process(0, inbox, outbox)
    sink.onSnapshot(5)
    val state = sink.saveSnapshot().toVector
    // Crash before commit; a new sink restores the prepared txn.
    val sink2 = new TransactionalSinkP(store)
    sink2.init(ProcessorContext(2, "sink", 0, 1, 0))
    sink2.restoreSnapshot(state.iterator)
    assert(store.results == Vector("x"))
    sink2.restoreSnapshot(state.iterator) // idempotent
    assert(store.results == Vector("x"))
  }

  test("generator source snapshots and restores its offset") {
    val src = new GeneratorSourceP(seq => seq, seq => seq, 100, None, 10)
    src.init(ProcessorContext(1, "src", 0, 2, 0))
    val q      = new SpscQueue(64)
    val outbox = new Outbox(Array(new EdgeCollector(Array(new LocalQueueSink(q)), RoutingPolicy.RoundRobin)))
    src.complete(outbox) // emits some events
    val state = src.saveSnapshot().toVector
    val emitted = Iterator.continually(q.poll()).takeWhile(_ != null).collect {
      case DataItem(v: Long, _) => v
    }.toVector
    // A restored instance continues exactly after the snapshot.
    val src2 = new GeneratorSourceP(seq => seq, seq => seq, 100, None, 10)
    src2.init(ProcessorContext(1, "src", 0, 2, 0))
    src2.restoreSnapshot(state.iterator)
    val q2      = new SpscQueue(256)
    val outbox2 = new Outbox(Array(new EdgeCollector(Array(new LocalQueueSink(q2)), RoutingPolicy.RoundRobin)))
    while (!src2.complete(outbox2)) ()
    val emitted2 = Iterator.continually(q2.poll()).takeWhile(_ != null).collect {
      case DataItem(v: Long, _) => v
    }.toVector
    assert((emitted ++ emitted2) == (0L until 100L by 2).toVector)
  }

  test("exactly-once: a barrier follows every item produced before it") {
    val fourCopies = (v: Any) => Iterator(v, v, v, v)
    val processors = Seq(
      (0, new FusedStatelessP(fourCopies)),
      (1, new HashJoinP(identity, identity, (v, _) => fourCopies(v)))
    )
    for ((ordinal, p) <- processors) {
      val in  = new SpscQueue(4)
      val out = new SpscQueue(2)
      in.offer(DataItem("a", 0)); in.offer(SnapshotBarrier(1))
      val tasklet = new ProcessorTasklet(
        "t", ProcessorContext(1, "v", 0, 1, 0), p,
        Array(new InputChannel(in, ordinal, 0, null)),
        new Outbox(Array(new EdgeCollector(Array(new LocalQueueSink(out)), RoutingPolicy.RoundRobin))),
        Guarantee.ExactlyOnce,
        new SnapshotController("barrier-order", new GridCluster(1), 1000),
        (_, _) => (), _ => (), e => throw e
      )
      val seen = Vector.newBuilder[AnyRef]
      for (_ <- 1 to 20) {
        tasklet.call()
        Iterator.continually(out.poll()).takeWhile(_ != null).foreach(seen += _)
      }
      assert(seen.result() == Vector.fill(4)(DataItem("a", 0)) :+ SnapshotBarrier(1), p.getClass.getSimpleName)
    }
  }

  test("snapshot state lands in the IMDG and survives node failure") {
    val inst = new JetInstance(3, 2)
    try {
      val store = new ResultStore
      val pacer = new Pacer(30000)
      val job = inst.submit(
        buildJob(store, 90000L, Some(pacer)).toDag(),
        JobConfig("snap-imdg", Guarantee.ExactlyOnce, snapshotIntervalMs = 150)
      )
      val deadline = System.currentTimeMillis() + 30000
      while (job.snapshotsCompleted < 1 && System.currentTimeMillis() < deadline) Thread.sleep(10)
      assert(job.snapshotsCompleted >= 1)
      val committed = inst.grid.getMap[String, Long]("snapmeta-snap-imdg").get("committed")
      assert(committed.exists(_ >= 1))
      val snapMap = inst.grid.getMap[Any, Any](s"snap-snap-imdg-${committed.get % 2}")
      assert(snapMap.size > 0, "committed snapshot map is empty")
      job.cancel()
      job.awaitTerminated()
    } finally inst.shutdown()
  }

  private def awaitSnapshots(job: Job, n: Int): Unit = {
    val deadline = System.currentTimeMillis() + 30000
    while (job.snapshotsCompleted < n && System.currentTimeMillis() < deadline) Thread.sleep(10)
    assert(job.snapshotsCompleted >= n, s"only ${job.snapshotsCompleted} of $n snapshots committed")
  }

  test("exactly-once: a source that finished before the failure is not replayed") {
    val inst = new JetInstance(3, 2)
    try {
      val store      = new ResultStore
      val wd         = WindowDef(100, 50)
      val shortTotal = 4000L
      val total      = 120000L
      // The short source covers the same event time as the long one with
      // fewer events, unthrottled, so it finishes long before the job.
      val shortTs  = (seq: Long) => seq * 3 / 2
      val lastSeqs = java.util.concurrent.ConcurrentHashMap.newKeySet[Long]()
      val p        = new Pipeline
      val short = p.readFrom[Long](StreamSourceDef(
        seq => { if (seq >= shortTotal - 3) lastSeqs.add(seq); seq }, shortTs, shortTotal, None, 10, 1))
      val long = p.readFrom[Long](StreamSourceDef(seq => seq, seq => seq / 20, total, Some(new Pacer(40000)), 10, 1))
      short
        .windowJoin[Long, Long, (Long, Long, Long, Long)](
          long, _ % 7, _ % 7, wd,
          (k, ls, rs, we) => Iterator.single((k, ls.size.toLong, rs.size.toLong, we))
        )
        .writeTo(TransactionalSinkDef(store))
      val job = inst.submit(p.toDag(), JobConfig("eo-short-src", Guarantee.ExactlyOnce, snapshotIntervalMs = 200))
      // All three short-source instances emitted their last event ...
      val deadline = System.currentTimeMillis() + 30000
      while (lastSeqs.size < 3 && System.currentTimeMillis() < deadline) Thread.sleep(5)
      assert(lastSeqs.size == 3, "the short source did not finish")
      // ... and two snapshots committed since, so at least one began after
      // the short source had finished.
      awaitSnapshots(job, job.snapshotsCompleted + 2)
      val job2 = inst.failNodeAndRecover(job, inst.nodes.head.id)
      job2.awaitCompletion(180000)

      def byWin(n: Long, ts: Long => Long) = (for {
        seq <- 0L until n
        we  <- Windowing.windowEnds(ts(seq), wd)
      } yield (seq % 7, we)).groupBy(identity).view.mapValues(_.size.toLong).toMap
      val (lw, rw) = (byWin(shortTotal, shortTs), byWin(total, _ / 20))
      val expected = (lw.keySet intersect rw.keySet).toVector.map { case (k, we) => (k, lw((k, we)), rw((k, we)), we) }
      val got      = store.results.map(_.asInstanceOf[(Long, Long, Long, Long)])
      assert(got.size == got.distinct.size, "duplicate join results")
      assert(got.toSet == expected.toSet)
    } finally inst.shutdown()
  }

  /** Passes everything through to a [[CombineFramesP]], recording which
    * instance of which job restored and received each key.
    */
  private final class KeySpyP(
      inner: Processor,
      restored: java.util.Queue[(Long, Int, Any)],
      received: java.util.Queue[(Long, Int, Any)]
  ) extends Processor {
    private var ctx: ProcessorContext = _
    override def init(c: ProcessorContext): Unit = { ctx = c; inner.init(c) }
    def process(ordinal: Int, inbox: Inbox, outbox: Outbox): Unit = {
      val seen = new Inbox
      var d    = inbox.poll()
      while (d != null) {
        received.add((ctx.jobId, ctx.globalIndex, d.value.asInstanceOf[FrameAggregate[Any, Any]].key))
        seen.add(d)
        d = inbox.poll()
      }
      inner.process(ordinal, seen, outbox)
    }
    override def tryProcessWatermark(wm: Watermark, outbox: Outbox): Boolean = inner.tryProcessWatermark(wm, outbox)
    override def complete(outbox: Outbox): Boolean                          = inner.complete(outbox)
    override def saveSnapshot(): Iterator[(Any, Any)]                       = inner.saveSnapshot()
    override def restoreSnapshot(entries: Iterator[(Any, Any)]): Unit = {
      val es = entries.toVector
      es.foreach {
        case (_: BroadcastKey, _) => ()
        case (k, _)               => restored.add((ctx.jobId, ctx.globalIndex, k))
      }
      inner.restoreSnapshot(es.iterator)
    }
  }

  test("after failNode and addNode, restore hands every combine key to the instance its edge routes it to") {
    val inst = new JetInstance(3, 2)
    try {
      val restored = new java.util.concurrent.ConcurrentLinkedQueue[(Long, Int, Any)]()
      val received = new java.util.concurrent.ConcurrentLinkedQueue[(Long, Int, Any)]()
      val wd       = WindowDef(100, 50)
      val op       = AggregateOperations.counting
      val keyFn    = (v: Any) => v.asInstanceOf[Long] % 101
      val pacer    = new Pacer(40000)
      val store    = new ResultStore
      val dag      = new Dag
      dag.newVertex("src", () => new GeneratorSourceP(seq => seq, seq => seq / 20, 120000L, Some(pacer), 10), 1)
      dag.newVertex("acc", () => new AccumulateByFrameP(keyFn, op, wd.slideMs))
      dag.newVertex("comb", () => new KeySpyP(new CombineFramesP(op, wd), restored, received))
      dag.newVertex("sink", () => new TransactionalSinkP(store), 1)
      dag.edge(EdgeDef("src", 0, "acc", 0, RoutingPolicy.Partitioned(keyFn), distributed = false))
      dag.edge(EdgeDef("acc", 0, "comb", 0,
        RoutingPolicy.Partitioned(v => v.asInstanceOf[FrameAggregate[Any, Any]].key), distributed = true))
      dag.edge(EdgeDef("comb", 0, "sink", 0, RoutingPolicy.RoundRobin, distributed = false))
      val job = inst.submit(dag, JobConfig("eo-owner", Guarantee.ExactlyOnce, snapshotIntervalMs = 200))
      awaitSnapshots(job, 2)
      val job2 = inst.failNodeAndRecover(job, inst.nodes.head.id)
      job2.awaitCompletion(180000)

      import scala.jdk.CollectionConverters._
      def of(q: java.util.Queue[(Long, Int, Any)]) =
        q.asScala.toVector.collect { case (j, i, k) if j == job2.jobId => (k, i) }
      val restoredAt = of(restored).groupMap(_._1)(_._2)
      val routedTo   = of(received).groupMap(_._1)(_._2).view.mapValues(_.toSet).toMap
      assert(restoredAt.nonEmpty, "no key state was restored")
      restoredAt.foreach { case (k, is) =>
        assert(is.size == 1, s"key $k restored on instances $is")
        assert(routedTo.get(k).forall(_ == is.toSet), s"key $k restored on ${is.head}, routed to ${routedTo(k)}")
      }
      assert(restoredAt.keySet.exists(routedTo.contains), "no restored key received items after the restore")
    } finally inst.shutdown()
  }

  test("restoring a source from a snapshot of another parallelism fails, naming both") {
    val src = new GeneratorSourceP(seq => seq, seq => seq, 100, None, 10)
    src.init(ProcessorContext(1, "src-v", 0, 2, 0))
    val state = src.saveSnapshot().toVector
    val src2  = new GeneratorSourceP(seq => seq, seq => seq, 100, None, 10)
    src2.init(ProcessorContext(2, "src-v", 0, 3, 0))
    val e = intercept[IllegalStateException](src2.restoreSnapshot(state.iterator))
    assert(e.getMessage.contains("src-v") && e.getMessage.contains("parallelism 2") &&
      e.getMessage.contains("parallelism 3"), e.getMessage)
  }

  test("restore fails on a keyed entry whose vertex has no owning instance") {
    val grid = new GridCluster(1)
    val ctl  = new SnapshotController("orphan", grid, 1000)
    grid.getMap[SnapshotKey, Array[Byte]](ctl.snapshotMapName(1))
      .put(SnapshotKey("gone", 0, 42L), ExecutionPlan.serialize(7L))
    val dag = new Dag
    dag.newVertex("src", () => new BatchSourceP(Vector(1)), 1)
    val node = new JetNode(0, 1)
    try {
      val e = intercept[IllegalStateException](
        ExecutionPlan.build(dag, Vector(node), 1, JobConfig("orphan", Guarantee.ExactlyOnce), grid, ctl, 1))
      assert(e.getMessage.contains("gone") && e.getMessage.contains("no owning instance"), e.getMessage)
    } finally node.shutdown()
  }

  test("a finished source's final state goes into the snapshot in flight and every later one") {
    val ctl     = new SnapshotController("finished-src", new GridCluster(1), 5)
    val written = new java.util.concurrent.ConcurrentLinkedQueue[Long]()
    ctl.register("other")
    // Snapshot 1 is in flight and the source wrote none yet.
    ctl.requestedId = 1
    ctl.sourceFinished("src", 0, id => { written.add(id); () })
    assert(written.toArray.toSeq == Seq(1L))
    // A source that wrote the snapshot in flight itself keeps its entry there.
    val written2 = new java.util.concurrent.ConcurrentLinkedQueue[Long]()
    ctl.sourceFinished("src2", 1, id => { written2.add(id); () })
    assert(written2.isEmpty)
    ctl.start()
    try {
      val deadline = System.currentTimeMillis() + 30000
      while (written.size < 4 && System.currentTimeMillis() < deadline) {
        ctl.ack("other", ctl.requestedId)
        Thread.sleep(1)
      }
    } finally ctl.stop()
    assert(written.toArray.toSeq.take(4) == Seq(1L, 2L, 3L, 4L))
    assert(written2.toArray.toSeq.take(3) == Seq(2L, 3L, 4L))
  }
}
