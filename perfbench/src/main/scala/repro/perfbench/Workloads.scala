package repro.perfbench

import repro.core._
import repro.nexmark._

/** Which NEXMark query a workload runs; see [[Jobs]] for the pipelines. */
sealed trait Query
object Query {
  /** `Queries.q5Measured`: latency taken at the aggregating stage. */
  case object Q5Measured extends Query
  /** `Queries.q5`: latency taken at the query's output. */
  case object Q5 extends Query
}

/** One benchmark workload: a query on one node, and an input schedule.
  *
  * @param ratePerSec open-loop input rate; 0 runs unthrottled (closed loop)
  *                   over passes of `passEvents` events.
  */
final case class Workload(
    name: String,
    query: Query,
    threads: Int,
    ratePerSec: Double,
    guarantee: Guarantee = Guarantee.NoGuarantee,
    passEvents: Long = 0L
) {
  def openLoop: Boolean = ratePerSec > 0
  def layout: String    = s"1 node x $threads cooperative thread(s)"

  /** Event-time density of the input. In an open loop it equals the rate,
    * so event time runs with wall-clock time.
    */
  def eventsPerSecond: Double = if (openLoop) ratePerSec else Workloads.ClosedLoopDensity

  def genCfg(seed: Long, keys: Int = Workloads.Keys): NexmarkConfig =
    NexmarkConfig(numPersons = keys, numAuctions = keys, eventsPerSecond = eventsPerSecond, seed = seed)

  /** The same job with 500 ms exactly-once snapshots, replicated to one
    * compute-free grid member: what the traced run reads the snapshot and
    * grid layers from.
    */
  def exactlyOnce: Workload = copy(name = s"$name+exactly-once", guarantee = Guarantee.ExactlyOnce)
}

object Workloads {
  /** Distinct auctions and persons. Q5's tail grows steeply with the key
    * count (about 10 ms p99 at 1 k keys, over 100 ms at 5 k on a 4-core
    * host), so the count stays at 1 k until the window stage gets faster.
    */
  val Keys               = 1000
  val WmStrideMs         = 10L
  val SnapshotIntervalMs = 500L
  /** Event-time density of the closed-loop input: 100 k events per second
    * of event time, as the repository's max-throughput runs use.
    */
  val ClosedLoopDensity  = 100000.0
  /** Q5's window: 1 s, triggered every 10 ms. */
  val Window             = WindowDef(1000, 10)

  /** The workloads, on one node of `nproc` cooperative threads:
    *
    *  - q5-1node: open loop at 500 k ev/s, the paper's headline path
    *    (two-stage windowing triggered every 10 ms), where the window layer
    *    does most of the work.
    *  - q5-max-throughput: closed loop, so per-item cost anywhere becomes
    *    ingest rate directly (the Fig. 7 knee). Passes of 2 M events, so
    *    that a run holds several and reports their median.
    */
  def all(nproc: Int): Vector[Workload] = Vector(
    Workload("q5-1node", Query.Q5Measured, nproc, 5e5),
    Workload("q5-max-throughput", Query.Q5, nproc, 0, passEvents = 2000000L)
  )
}
