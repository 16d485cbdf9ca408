package repro.perfbench

import repro.core.WindowDef
import repro.nexmark.{Bid, Generator}

/** The results one sink must see, per window end: how many rows and the sum
  * of their [[Recount.rowHash]]es (so the order rows arrive in does not
  * matter). Window `i` ends at `(i + 1) * slideMs`.
  */
final class Expected(val slideMs: Long, val rows: Array[Long], val sums: Array[Long]) {
  def windows: Int = rows.length
}

/** A plain recount of Q5 from the same [[Generator]] the job reads: no
  * engine code, one pass over the events in sequence order, with per-key
  * running counts over a ring of frames.
  *
  * A window ending at `we` holds the bids with `we - size <= ts < we`, and
  * windows run from the first slide end to the last one any event belongs
  * to, so the trailing windows flushed at completion are included.
  */
object Recount {

  private def mix(z0: Long): Long = {
    var z = z0
    z = (z ^ (z >>> 30)) * 0xbf58476d1ce4e5b9L
    z = (z ^ (z >>> 27)) * 0x94d049bb133111ebL
    z ^ (z >>> 31)
  }

  /** Order-independent fingerprint of one result row. */
  def rowHash(windowEnd: Long, key: Long, value: Long): Long =
    mix(windowEnd * 0x9e3779b97f4a7c15L ^ mix(key * 0xc2b2ae3d27d4eb4fL + value))

  /** Per window: every auction with at least one bid and its count (the
    * aggregating stage's rows), and the auctions with the highest count
    * (the query's rows).
    */
  def q5(gen: Generator, totalEvents: Long, wd: WindowDef): (Expected, Expected) = {
    val keys    = gen.cfg.numAuctions
    val frames  = wd.frameCount
    val n       = (gen.tsOf(totalEvents - 1) / wd.slideMs + frames).toInt
    val agg     = new Expected(wd.slideMs, new Array[Long](n), new Array[Long](n))
    val top     = new Expected(wd.slideMs, new Array[Long](n), new Array[Long](n))
    val ring    = Array.fill(frames)(new Array[Long](keys))
    val running = new Array[Long](keys)
    var seq     = 0L
    for (w <- 0 until n) {
      val we    = (w + 1L) * wd.slideMs
      val frame = ring(w % frames)
      java.util.Arrays.fill(frame, 0L)
      while (seq < totalEvents && gen.tsOf(seq) < we) {
        gen.eventOf(seq) match {
          case b: Bid => frame(b.auction.toInt) += 1
          case _      => ()
        }
        seq += 1
      }
      var mx = 0L
      for (k <- 0 until keys) {
        running(k) += frame(k)
        if (running(k) > 0) {
          agg.rows(w) += 1
          agg.sums(w) += rowHash(we, k, running(k))
          mx = math.max(mx, running(k))
        }
      }
      for (k <- 0 until keys if mx > 0 && running(k) == mx) {
        top.rows(w) += 1
        top.sums(w) += rowHash(we, k, mx)
      }
      // The oldest frame of this window leaves before the next one.
      val oldest = ring((w + 1) % frames)
      for (k <- 0 until keys) running(k) -= oldest(k)
    }
    (agg, top)
  }
}
