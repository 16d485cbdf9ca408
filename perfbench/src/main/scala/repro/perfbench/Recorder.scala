package repro.perfbench

import java.util.concurrent.atomic.AtomicLongArray

/** Thread-safe log-linear recorder of non-negative nanosecond values, in the
  * style of HdrHistogram.
  *
  * Values below 128 ns get a bucket each. Above that, every power of two is
  * split into 128 equal buckets, so a bucket is at most 1/128 of its value
  * wide, and reporting its midpoint is off by at most 0.4 %. 4 480 buckets
  * cover 0 ns to 2^41 ns (about 37 minutes); larger values land in the last
  * bucket.
  */
final class Recorder {
  import Recorder._

  private val counts = new AtomicLongArray(NumBuckets)

  def record(nanos: Long): Unit = { counts.incrementAndGet(indexOf(nanos)); () }

  def addAll(other: Recorder): Unit = {
    var i = 0
    while (i < NumBuckets) {
      val c = other.counts.get(i)
      if (c != 0) counts.addAndGet(i, c)
      i += 1
    }
  }

  def count: Long = {
    var n = 0L
    var i = 0
    while (i < NumBuckets) { n += counts.get(i); i += 1 }
    n
  }

  /** Value at quantile `q` in [0, 1], in nanoseconds (0 when empty). */
  def quantile(q: Double): Long = {
    val total = count
    if (total == 0) return 0L
    val rank = math.max(1L, math.ceil(q * total).toLong)
    var seen = 0L
    var i    = 0
    while (i < NumBuckets) {
      seen += counts.get(i)
      if (seen >= rank) return midpoint(i)
      i += 1
    }
    midpoint(NumBuckets - 1)
  }

  def max: Long = {
    var i = NumBuckets - 1
    while (i > 0 && counts.get(i) == 0) i -= 1
    if (counts.get(i) == 0) 0L else midpoint(i)
  }

  def quantileMs(q: Double): Double = quantile(q) / 1e6
  def maxMs: Double                 = max / 1e6
}

object Recorder {
  private val SubBits    = 7
  private val Sub        = 1 << SubBits
  private val MaxExp     = 40
  private val MaxValue   = (1L << (MaxExp + 1)) - 1
  private val NumBuckets = (MaxExp - SubBits + 2) * Sub

  private def indexOf(nanos: Long): Int = {
    val v = math.min(math.max(nanos, 0L), MaxValue)
    if (v < Sub) v.toInt
    else {
      val exp = 63 - java.lang.Long.numberOfLeadingZeros(v)
      (exp - SubBits + 1) * Sub + ((v >>> (exp - SubBits)) - Sub).toInt
    }
  }

  private def midpoint(index: Int): Long =
    if (index < Sub) index.toLong
    else {
      val shift = index / Sub - 1
      val low   = (Sub + index % Sub).toLong << shift
      low + ((1L << shift) >>> 1)
    }
}
