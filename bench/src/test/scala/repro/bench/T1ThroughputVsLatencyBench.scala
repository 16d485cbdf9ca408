package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.harness.Tables

/** T1 — Fig. 7 (§7.3): Q5 with a 10 ms slide on one node, sweeping the
  * input rate. Shape: latency is flat at low load and rises sharply as the
  * rate approaches the node's capacity (paper: 13 ms → 98 ms p99.99 from
  * 0.5 M to 2 M ev/s/core).
  */
class T1ThroughputVsLatencyBench extends AnyFunSuite {

  test("T1: p99.99 latency rises with per-core throughput toward saturation") {
    val rows = Tables.t1()
    assert(rows.size == 4)
    rows.foreach { case (_, s) => assert(s.count > 0, "no latency samples recorded") }
    val first = rows.head._2
    val last  = rows.last._2
    // The knee: the top rate's tail must sit clearly above the lowest rate's.
    assert(
      last.p9999 >= first.p9999,
      s"tail latency did not grow with load: ${first.p9999}ms -> ${last.p9999}ms"
    )
    assert(
      last.p9999 >= 2 * first.p50,
      s"no saturation signal: top-rate p99.99 ${last.p9999}ms vs low-rate p50 ${first.p50}ms"
    )
  }

  test("T1 at the paper's 10 k keys (§7.3): latency rows are recorded") {
    val rows = Tables.t1(keys = 10000)
    assert(rows.size == 4)
    rows.foreach { case (_, s) => assert(s.count > 0, "no latency samples recorded") }
  }
}
