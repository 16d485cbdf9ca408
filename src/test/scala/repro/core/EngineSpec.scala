package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestSupport
import repro.nexmark.{Generator, NexmarkConfig, Queries}
import repro.pipeline._

/** End-to-end engine tests: pipelines run on the simulated cluster and the
  * output is checked against directly computed expectations.
  */
class EngineSpec extends AnyFunSuite {

  private def streamSource(n: Long, ratePerSecEventTime: Double = 1000.0) =
    StreamSourceDef(
      seq => seq,
      seq => (seq * 1000.0 / ratePerSecEventTime).toLong,
      n,
      None,
      wmStrideMs = 10,
      localParallelism = 1
    )

  test("identity map pipeline delivers every event exactly once (1 node)") {
    val out = TestSupport.runCollect(1, 2) { (p, sink) =>
      p.readFrom[Long](streamSource(1000)).map(identity).writeTo(sink)
    }
    assert(out.map(_.asInstanceOf[Long]).sorted == (0L until 1000L).toVector)
  }

  test("identity map pipeline delivers every event exactly once (3 nodes)") {
    val out = TestSupport.runCollect(3, 2) { (p, sink) =>
      p.readFrom[Long](streamSource(5000)).map(identity).writeTo(sink)
    }
    assert(out.map(_.asInstanceOf[Long]).sorted == (0L until 5000L).toVector)
  }

  test("parallel source instances partition the sequence space") {
    val src = StreamSourceDef(seq => seq, _ => 0L, 999, None, 10, localParallelism = 3)
    val out = TestSupport.runCollect(2, 2) { (p, sink) =>
      p.readFrom[Long](src).writeTo(sink)
    }
    assert(out.map(_.asInstanceOf[Long]).sorted == (0L until 999L).toVector)
  }

  test("filter + flatMap fused chain computes the right multiset") {
    val out = TestSupport.runCollect(2, 2) { (p, sink) =>
      p.readFrom[Long](streamSource(500))
        .filter(_ % 2 == 0)
        .flatMap(x => Seq(x, x + 1000000))
        .writeTo(sink)
    }
    val expected = (0L until 500L).filter(_ % 2 == 0).flatMap(x => Seq(x, x + 1000000)).sorted
    assert(out.map(_.asInstanceOf[Long]).sorted == expected.toVector)
  }

  test("small queues still deliver everything (backpressure path)") {
    val out = TestSupport.runCollect(2, 2, JobConfig(queueSize = 16)) { (p, sink) =>
      p.readFrom[Long](streamSource(20000)).map(identity).writeTo(sink)
    }
    assert(out.size == 20000)
    assert(out.map(_.asInstanceOf[Long]).sorted == (0L until 20000L).toVector)
  }

  test("sliding-window count matches a naive computation") {
    val n     = 4000L
    val wd    = WindowDef(100, 20)
    val nkeys = 7
    val out = TestSupport.runCollect(2, 2) { (p, sink) =>
      p.readFrom[Long](streamSource(n))
        .groupingKey(_ % nkeys)
        .window(wd)
        .aggregate(AggregateOperations.counting)
        .writeTo(sink)
    }
    // Naive: every event with ts in (we-size, we] counts into window we.
    val events = (0L until n).map(seq => (seq % nkeys, seq)) // ts == seq at 1000 ev/s
    val expected = (for {
      (k, ts) <- events
      we      <- Windowing.windowEnds(ts, wd)
    } yield (k, we)).groupBy(identity).map { case ((k, we), xs) => (k, we, xs.size.toLong) }.toSet
    val got = out.map { v =>
      val r = v.asInstanceOf[KeyedWindowResult[Long, Long]]
      (r.key, r.windowEnd, r.result)
    }.toSet
    assert(got == expected)
  }

  test("sliding-window aggregation without deduct (toList) matches counting totals") {
    val n  = 1500L
    val wd = WindowDef(60, 30)
    val out = TestSupport.runCollect(1, 2) { (p, sink) =>
      p.readFrom[Long](streamSource(n))
        .groupingKey(_ % 3)
        .window(wd)
        .aggregate(AggregateOperations.toList)
        .writeTo(sink)
    }
    val got = out.map { v =>
      val r = v.asInstanceOf[KeyedWindowResult[Long, List[Any]]]
      (r.key, r.windowEnd, r.result.size.toLong)
    }.toSet
    val expected = (for {
      seq <- 0L until n
      we  <- Windowing.windowEnds(seq, wd)
    } yield (seq % 3, we)).groupBy(identity).map { case ((k, we), xs) => (k, we, xs.size.toLong) }.toSet
    assert(got == expected)
  }

  test("windowed results per key never duplicate (exactly one result per key+window)") {
    val out = TestSupport.runCollect(3, 2) { (p, sink) =>
      p.readFrom[Long](streamSource(3000))
        .groupingKey(_ % 11)
        .window(WindowDef(50, 10))
        .aggregate(AggregateOperations.counting)
        .writeTo(sink)
    }
    val keysAndWindows =
      out.map(v => { val r = v.asInstanceOf[KeyedWindowResult[Long, Long]]; (r.key, r.windowEnd) })
    assert(keysAndWindows.size == keysAndWindows.distinct.size, "duplicate (key, window) results")
  }

  test("batch grouped aggregation (two-stage) computes correct sums") {
    val data = (1 to 10000).map(i => (i % 13).toLong -> i.toLong)
    val out = TestSupport.runCollect(2, 3) { (p, sink) =>
      p.readFrom[(Long, Long)](BatchSourceDef(data.toVector))
        .groupingKey(_._1)
        .aggregate(AggregateOperations.summingLong(v => v.asInstanceOf[(Long, Long)]._2))
        .writeTo(sink)
    }
    val expected = data.groupBy(_._1).map { case (k, xs) => (k, xs.map(_._2).sum) }.toSet
    assert(out.map(_.asInstanceOf[(Long, Long)]).toSet == expected)
  }

  test("hash join: every probe event joins the broadcast build side") {
    val side = (0L until 50L).map(i => (i, s"v$i")).toVector
    val out = TestSupport.runCollect(2, 2) { (p, sink) =>
      val build = p.readFrom[(Long, String)](BatchSourceDef(side))
      p.readFrom[Long](streamSource(2000))
        .hashJoin[(Long, String), Long, (Long, String)](
          build,
          x => x % 50,
          _._1,
          (x, ms) => ms.iterator.map(m => (x, m._2))
        )
        .writeTo(sink)
    }
    assert(out.size == 2000)
    assert(out.forall { v =>
      val (x, s) = v.asInstanceOf[(Long, String)]
      s == s"v${x % 50}"
    })
  }

  test("window join emits keys present on both sides in the window") {
    val n  = 2000L
    val wd = WindowDef(100, 50)
    val out = TestSupport.runCollect(2, 2) { (p, sink) =>
      val evens = p.readFrom[Long](streamSource(n)).filter(_ % 2 == 0)
      val p2    = evens // left side: even seqs keyed by seq % 5
      val odds  = p.readFrom[Long](
        StreamSourceDef(seq => seq, seq => seq, n, None, 10, 1)
      ).filter(_ % 2 == 1)
      p2.windowJoin[Long, Long, (Long, Long, Long, Long)](
          odds,
          _ % 5,
          _ % 5,
          wd,
          (k, ls, rs, we) => Iterator.single((k, ls.size.toLong, rs.size.toLong, we))
        )
        .writeTo(sink)
    }
    // Naive check.
    val lefts  = (0L until n).filter(_ % 2 == 0)
    val rights = (0L until n).filter(_ % 2 == 1)
    def byWin(xs: Seq[Long]) = (for {
      x  <- xs
      we <- Windowing.windowEnds(x, wd) // ts == seq
    } yield ((x % 5, we), x)).groupBy(_._1).view.mapValues(_.size.toLong).toMap
    val lw = byWin(lefts)
    val rw = byWin(rights)
    val expected = (lw.keySet intersect rw.keySet).map { case (k, we) => (k, lw((k, we)), rw((k, we)), we) }
    val got = out.map(_.asInstanceOf[(Long, Long, Long, Long)]).toSet
    assert(got == expected)
  }

  test("diamond topology: one source feeding two sinks delivers all to both") {
    val inst = new JetInstance(1, 2)
    try {
      val out1 = new java.util.concurrent.ConcurrentLinkedQueue[Any]()
      val out2 = new java.util.concurrent.ConcurrentLinkedQueue[Any]()
      val p    = new Pipeline
      val src  = p.readFrom[Long](streamSource(800))
      src.map(identity).writeTo(ForeachSinkDef((v, _) => { out1.add(v); () }, 1))
      src.filter(_ % 2 == 0).writeTo(ForeachSinkDef((v, _) => { out2.add(v); () }, 1))
      inst.submit(p.toDag()).awaitCompletion(60000)
      import scala.jdk.CollectionConverters._
      assert(out1.asScala.map(_.asInstanceOf[Long]).toVector.sorted == (0L until 800L).toVector)
      assert(out2.asScala.map(_.asInstanceOf[Long]).toVector.sorted ==
        (0L until 800L).filter(_ % 2 == 0).toVector)
    } finally inst.shutdown()
  }

  test("job cancellation stops an infinite job") {
    val inst = new JetInstance(1, 2)
    try {
      val p = new Pipeline
      p.readFrom[Long](StreamSourceDef(seq => seq, seq => seq, Long.MaxValue, None, 10, 1))
        .map(identity)
        .writeTo(ForeachSinkDef((_, _) => (), 1))
      val job = inst.submit(p.toDag())
      Thread.sleep(300)
      job.cancel()
      job.awaitTerminated(30000)
      assert(job.isCancelled)
    } finally inst.shutdown()
  }

  test("processor failure fails the job") {
    val inst = new JetInstance(1, 2)
    try {
      val p = new Pipeline
      p.readFrom[Long](streamSource(100))
        .map { x => if (x == 50L) throw new RuntimeException("boom"); x }
        .writeTo(ForeachSinkDef((_, _) => (), 1))
      val job = inst.submit(p.toDag())
      val e   = intercept[IllegalStateException](job.awaitCompletion(60000))
      assert(e.getCause != null && e.getCause.getMessage == "boom")
    } finally inst.shutdown()
  }

  test("operator fusion: consecutive stateless stages become one vertex") {
    val p = new Pipeline
    p.readFrom[Long](streamSource(10))
      .map(_ + 1)
      .filter(_ % 2 == 0)
      .flatMap(x => Seq(x))
      .writeTo(ForeachSinkDef((_, _) => (), 1))
    val dag = p.toDag()
    // source + 1 fused vertex + sink = 3 vertices
    assert(dag.vertices.size == 3, dag.vertices.map(_.name).mkString(","))
    assert(dag.vertices.count(_.name.contains("fused")) == 1)
  }

  test("two-stage windowed aggregation compiles to accumulate + combine vertices") {
    val p = new Pipeline
    p.readFrom[Long](streamSource(10))
      .groupingKey(identity)
      .window(WindowDef(100, 10))
      .aggregate(AggregateOperations.counting)
      .writeTo(ForeachSinkDef((_, _) => (), 1))
    val dag = p.toDag()
    assert(dag.vertices.exists(_.name.contains("accumulate")))
    assert(dag.vertices.exists(_.name.contains("combine")))
    val combineEdge = dag.edges.find(_.to.contains("combine")).get
    assert(combineEdge.distributed, "combine stage must sit behind a distributed edge")
    val accEdge = dag.edges.find(_.to.contains("accumulate")).get
    assert(!accEdge.distributed, "accumulate stage must be node-local")
  }

  test("Queries.q5 compiles to a pinned DAG, and Q8 to a co-group on the window stages") {
    // Vertex order decides which cooperative thread each tasklet lands on.
    def edges(dag: Dag) = dag.edges.map { e =>
      val kind = e.routing match {
        case RoutingPolicy.RoundRobin     => "round-robin"
        case _: RoutingPolicy.Partitioned => "partitioned"
        case RoutingPolicy.Broadcast      => "broadcast"
      }
      (e.from, e.to, e.toOrdinal, kind, e.distributed)
    }
    val sp   = Queries.StreamParams(new Generator(NexmarkConfig()), 10)
    val sink = ForeachSinkDef((_, _) => (), 1)
    val q5   = new Pipeline
    Queries.q5(q5, sp, WindowDef(1000, 10), sink)
    val dag5 = q5.toDag()
    assert(dag5.vertices.map(_.name) ==
      Vector("v1-src", "v2-fused", "v3-accumulate", "v3-combine", "v4-winend", "v5-sink"))
    assert(edges(dag5) == Vector(
      ("v1-src", "v2-fused", 0, "round-robin", false),
      ("v2-fused", "v3-accumulate", 0, "partitioned", false),
      ("v3-accumulate", "v3-combine", 0, "partitioned", true),
      ("v3-combine", "v4-winend", 0, "partitioned", true),
      ("v4-winend", "v5-sink", 0, "round-robin", false)
    ))

    val q8 = new Pipeline
    Queries.q8(q8, sp, WindowDef(1000, 10), sink)
    val dag8 = q8.toDag()
    val acc  = dag8.vertices.map(_.name).filter(_.endsWith("-accumulate"))
    assert(acc.size == 1)
    assert(dag8.inboundEdges(acc.head).map(_.toOrdinal) == Vector(0, 1))
    assert(!dag8.vertices.exists(_.name.contains("winjoin")))
  }
}
