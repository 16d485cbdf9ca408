package repro.pipeline

import scala.collection.mutable
import repro.core._

/** Source descriptors for `Pipeline.readFrom` (§2.1). */
sealed trait SourceDef
/** Finite in-memory batch source, split round-robin across instances. */
final case class BatchSourceDef(data: IndexedSeq[Any], localParallelism: Int = -1) extends SourceDef
/** Replayable deterministic generator stream source (§4.5).
  *
  * `maxSkewMs > 0` bounds the event-time skew between parallel instances
  * via a shared [[SkewGuard]] (see its doc for why unthrottled multi-node
  * ingestion needs this).
  */
final case class StreamSourceDef(
    gen: Long => Any,
    tsOf: Long => Long,
    totalEvents: Long,
    pacer: Option[Pacer],
    wmStrideMs: Long,
    localParallelism: Int = 1,
    maxSkewMs: Long = 1000
) extends SourceDef

/** Sink descriptors. */
sealed trait SinkDef
/** Side-effecting sink — collectors and latency probes. */
final case class ForeachSinkDef(f: (Any, Long) => Unit, localParallelism: Int = 1) extends SinkDef
/** Exactly-once two-phase-commit sink over a [[ResultStore]] (§4.5). */
final case class TransactionalSinkDef(store: ResultStore, localParallelism: Int = 1) extends SinkDef

/** Internal stage graph nodes the fluent API builds up. */
private[pipeline] sealed trait StageDef { def id: Int }
private[pipeline] final case class SourceStage(id: Int, src: SourceDef) extends StageDef
private[pipeline] final case class MapStage(id: Int, upstream: StageDef, f: Any => Iterator[Any])
    extends StageDef
/** Two-stage windowed aggregation of `upstreams`, input ordinal `i` of the
  * accumulate stage fed by `upstreams(i)`.
  */
private[pipeline] final case class WindowAggStage(
    id: Int,
    upstreams: Vector[StageDef],
    keyFn: Any => Any,
    aggrOp: AggregateOperation[Any, Any],
    wd: WindowDef
) extends StageDef
private[pipeline] final case class BatchAggStage(
    id: Int,
    upstream: StageDef,
    keyFn: Any => Any,
    aggrOp: AggregateOperation[Any, Any]
) extends StageDef
private[pipeline] final case class WindowEndStage(
    id: Int,
    upstream: StageDef,
    resultFn: (Long, Vector[Any]) => Iterator[Any]
) extends StageDef
private[pipeline] final case class HashJoinStage(
    id: Int,
    probe: StageDef,
    build: StageDef,
    probeKey: Any => Any,
    buildKey: Any => Any,
    joinFn: (Any, Vector[Any]) => Iterator[Any]
) extends StageDef
private[pipeline] final case class SinkStage(id: Int, upstream: StageDef, sink: SinkDef)
    extends StageDef

/** The high-level fluent API (§2.1): stages are type-safe wrappers over an
  * untyped stage graph; `toDag` compiles the graph to the Core API DAG,
  * fusing consecutive stateless stages into one vertex (§3.1) and expanding
  * each windowed aggregation into the two-stage accumulate/combine pair.
  */
final class Pipeline {
  private var nextId                      = 0
  private[pipeline] val sinkStages        = mutable.ArrayBuffer.empty[SinkStage]
  private[pipeline] def freshId(): Int    = { nextId += 1; nextId }

  def readFrom[T](src: BatchSourceDef): BatchStage[T] =
    new BatchStage[T](this, SourceStage(freshId(), src))
  def readFrom[T](src: StreamSourceDef): StreamStage[T] =
    new StreamStage[T](this, SourceStage(freshId(), src))

  private[pipeline] def addSink(s: SinkStage): Unit = { sinkStages += s; () }

  /** Compile to the Core DAG. */
  def toDag(): Dag = new PipelinePlanner(this).compile()
}

/** A finite (batch) stage (§2.1). */
final class BatchStage[T] private[pipeline] (p: Pipeline, private[pipeline] val node: StageDef) {
  def map[U](f: T => U): BatchStage[U] =
    new BatchStage[U](p, MapStage(p.freshId(), node, v => Iterator.single(f(v.asInstanceOf[T]))))
  def filter(pred: T => Boolean): BatchStage[T] =
    new BatchStage[T](p, MapStage(p.freshId(), node, v => if (pred(v.asInstanceOf[T])) Iterator.single(v) else Iterator.empty))
  def flatMap[U](f: T => IterableOnce[U]): BatchStage[U] =
    new BatchStage[U](p, MapStage(p.freshId(), node, v => f(v.asInstanceOf[T]).iterator.map(x => x: Any)))
  def groupingKey[K](k: T => K): BatchStageWithKey[T, K] = new BatchStageWithKey[T, K](p, node, k)
  def writeTo(sink: SinkDef): Unit = p.addSink(SinkStage(p.freshId(), node, sink))
}

final class BatchStageWithKey[T, K] private[pipeline] (p: Pipeline, node: StageDef, keyFn: T => K) {
  /** Two-stage grouped aggregation: local partials, partitioned combine. */
  def aggregate[A, R](op: AggregateOperation[A, R]): BatchStage[(K, R)] =
    new BatchStage[(K, R)](
      p,
      BatchAggStage(p.freshId(), node, v => keyFn(v.asInstanceOf[T]),
        op.asInstanceOf[AggregateOperation[Any, Any]])
    )
}

/** An infinite (streaming) stage (§2.1). */
final class StreamStage[T] private[pipeline] (p: Pipeline, private[pipeline] val node: StageDef) {
  def map[U](f: T => U): StreamStage[U] =
    new StreamStage[U](p, MapStage(p.freshId(), node, v => Iterator.single(f(v.asInstanceOf[T]))))
  def filter(pred: T => Boolean): StreamStage[T] =
    new StreamStage[T](p, MapStage(p.freshId(), node, v => if (pred(v.asInstanceOf[T])) Iterator.single(v) else Iterator.empty))
  def flatMap[U](f: T => IterableOnce[U]): StreamStage[U] =
    new StreamStage[U](p, MapStage(p.freshId(), node, v => f(v.asInstanceOf[T]).iterator.map(x => x: Any)))

  def groupingKey[K](k: T => K): StreamStageWithKey[T, K] = new StreamStageWithKey[T, K](p, node, k)

  /** Hybrid hash join (Listing 2): `build` is consumed entirely first
    * (broadcast to every join instance), then this stream probes it.
    */
  def hashJoin[B, K, R](
      build: BatchStage[B],
      probeKey: T => K,
      buildKey: B => K,
      joinFn: (T, Vector[B]) => Iterator[R]
  ): StreamStage[R] =
    new StreamStage[R](
      p,
      HashJoinStage(
        p.freshId(), node, build.node,
        v => probeKey(v.asInstanceOf[T]),
        v => buildKey(v.asInstanceOf[B]),
        (v, ms) => joinFn(v.asInstanceOf[T], ms.asInstanceOf[Vector[B]]).map(x => x: Any)
      )
    )

  /** Keyed sliding-window stream-to-stream join (NEXMark Q8), as a
    * windowed co-group: both sides, tagged `Left`/`Right`, feed one two-stage
    * window aggregation with [[AggregateOperations.toTwoBags]], and each key
    * present on both sides within a window yields
    * `resultFn(key, lefts, rights, windowEnd)`.
    */
  def windowJoin[U, K, R](
      right: StreamStage[U],
      keyL: T => K,
      keyR: U => K,
      wd: WindowDef,
      resultFn: (K, Vector[T], Vector[U], Long) => Iterator[R]
  ): StreamStage[R] = {
    val keyFn: Any => Any = {
      case Left(v)  => keyL(v.asInstanceOf[T])
      case Right(v) => keyR(v.asInstanceOf[U])
    }
    val bags = WindowAggStage(p.freshId(), Vector(map(Left(_)).node, right.map(Right(_)).node), keyFn,
      AggregateOperations.toTwoBags.asInstanceOf[AggregateOperation[Any, Any]], wd)
    new StreamStage[KeyedWindowResult[K, (Vector[T], Vector[U])]](p, bags).flatMap { r =>
      val (ls, rs) = r.result
      if (ls.isEmpty || rs.isEmpty) Iterator.empty else resultFn(r.key, ls, rs, r.windowEnd)
    }
  }

  /** Whole-window post-aggregation keyed by window end (NEXMark Q5's
    * "auction with the most bids"); `T` must be [[KeyedWindowResult]].
    */
  def windowEndAggregate[R](f: (Long, Vector[T]) => Iterator[R]): StreamStage[R] =
    new StreamStage[R](
      p,
      WindowEndStage(p.freshId(), node, (we, vs) => f(we, vs.asInstanceOf[Vector[T]]).map(x => x: Any))
    )

  def writeTo(sink: SinkDef): Unit = p.addSink(SinkStage(p.freshId(), node, sink))
}

final class StreamStageWithKey[T, K] private[pipeline] (p: Pipeline, node: StageDef, keyFn: T => K) {
  def window(wd: WindowDef): WindowedStage[T, K] = new WindowedStage[T, K](p, node, keyFn, wd)
}

final class WindowedStage[T, K] private[pipeline] (
    p: Pipeline,
    node: StageDef,
    keyFn: T => K,
    wd: WindowDef
) {
  /** Two-stage sliding-window aggregation (§3.1). */
  def aggregate[A, R](op: AggregateOperation[A, R]): StreamStage[KeyedWindowResult[K, R]] =
    new StreamStage[KeyedWindowResult[K, R]](
      p,
      WindowAggStage(p.freshId(), Vector(node), v => keyFn(v.asInstanceOf[T]),
        op.asInstanceOf[AggregateOperation[Any, Any]], wd)
    )
}

/** Compiles the stage graph to a Core DAG with operator fusion. */
private[pipeline] final class PipelinePlanner(pipeline: Pipeline) {
  private val dag  = new Dag
  private val memo = mutable.Map.empty[Int, String] // stage id -> vertex name

  def compile(): Dag = {
    require(pipeline.sinkStages.nonEmpty, "pipeline has no sinks")
    pipeline.sinkStages.foreach(compileSink)
    dag
  }

  private def compileSink(s: SinkStage): Unit = {
    val upstream = compileStage(s.upstream)
    val name     = s"v${s.id}-sink"
    s.sink match {
      case ForeachSinkDef(f, lp) =>
        dag.newVertex(name, () => new ForeachSinkP(f), lp)
      case TransactionalSinkDef(store, lp) =>
        dag.newVertex(name, () => new TransactionalSinkP(store), lp)
    }
    dag.edge(EdgeDef(upstream, 0, name, 0, RoutingPolicy.RoundRobin, distributed = false))
    ()
  }

  /** Returns the name of the vertex producing this stage's output. */
  private def compileStage(stage: StageDef): String = memo.getOrElseUpdate(stage.id, stage match {

    case SourceStage(id, BatchSourceDef(data, lp)) =>
      dag.newVertex(s"v$id-batchsrc", () => new BatchSourceP(data), lp).name

    case SourceStage(id, StreamSourceDef(gen, tsOf, total, pacer, wmStride, lp, maxSkewMs)) =>
      val guard = if (maxSkewMs > 0) new SkewGuard(maxSkewMs) else null
      dag.newVertex(s"v$id-src", () => new GeneratorSourceP(gen, tsOf, total, pacer, wmStride, guard), lp).name

    case MapStage(id, _, _) =>
      // Fuse the maximal chain of consecutive stateless stages (§3.1).
      var chain: List[Any => Iterator[Any]] = Nil
      var cursor: StageDef                  = stage
      while (cursor.isInstanceOf[MapStage]) {
        val m = cursor.asInstanceOf[MapStage]
        chain = m.f :: chain
        cursor = m.upstream
      }
      val upstream = compileStage(cursor)
      val fused: Any => Iterator[Any] =
        chain.reduceLeft((f, g) => (v: Any) => f(v).flatMap(g))
      val v = dag.newVertex(s"v$id-fused", () => new FusedStatelessP(fused))
      dag.edge(EdgeDef(upstream, 0, v.name, 0, RoutingPolicy.RoundRobin, distributed = false))
      v.name

    case WindowAggStage(id, upstreams, keyFn, op, wd) =>
      val ups  = upstreams.map(compileStage)
      val accV = dag.newVertex(s"v$id-accumulate", () => new AccumulateByFrameP(keyFn, op, wd.slideMs))
      val combV = dag.newVertex(s"v$id-combine", () => new CombineFramesP(op, wd))
      ups.zipWithIndex.foreach { case (up, ordinal) =>
        dag.edge(EdgeDef(up, 0, accV.name, ordinal, RoutingPolicy.Partitioned(keyFn), distributed = false))
      }
      dag.edge(EdgeDef(accV.name, 0, combV.name, 0,
        RoutingPolicy.Partitioned(v => v.asInstanceOf[FrameAggregate[Any, Any]].key),
        distributed = true))
      combV.name

    case BatchAggStage(id, upstream, keyFn, op) =>
      val up   = compileStage(upstream)
      val accV = dag.newVertex(s"v$id-baccumulate", () => new AccumulateBatchP(keyFn, op))
      val combV = dag.newVertex(s"v$id-bcombine", () => new CombineBatchP(op))
      dag.edge(EdgeDef(up, 0, accV.name, 0, RoutingPolicy.RoundRobin, distributed = false))
      dag.edge(EdgeDef(accV.name, 0, combV.name, 0,
        RoutingPolicy.Partitioned(v => v.asInstanceOf[(Any, Any)]._1),
        distributed = true))
      combV.name

    case WindowEndStage(id, upstream, resultFn) =>
      val up = compileStage(upstream)
      val v  = dag.newVertex(s"v$id-winend", () => new WindowEndAggregateP(resultFn))
      dag.edge(EdgeDef(up, 0, v.name, 0,
        RoutingPolicy.Partitioned(x => x.asInstanceOf[KeyedWindowResult[_, _]].windowEnd),
        distributed = true))
      v.name

    case HashJoinStage(id, probe, build, probeKey, buildKey, joinFn) =>
      val buildV = compileStage(build)
      val probeV = compileStage(probe)
      val v = dag.newVertex(s"v$id-hashjoin", () => new HashJoinP(buildKey, probeKey, joinFn))
      dag.edge(EdgeDef(buildV, 0, v.name, 0, RoutingPolicy.Broadcast, distributed = true,
        priority = 0))
      dag.edge(EdgeDef(probeV, 0, v.name, 1, RoutingPolicy.RoundRobin, distributed = false,
        priority = 1))
      v.name

    case s: SinkStage =>
      throw new IllegalStateException(s"sink stage in compileStage: $s")
  })
}
