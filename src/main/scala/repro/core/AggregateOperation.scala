package repro.core

import scala.collection.mutable

/** A composable aggregate over mutable accumulators, mirroring Jet's
  * `AggregateOperation`: `accumulate` folds an item into a local partial,
  * `combine` merges partials from parallel instances (the second stage of
  * §3.1's two-stage aggregation), and the optional `deduct` reverses a
  * `combine` — which is what lets the sliding-window combiner advance a
  * window by one slide in O(keys) instead of recombining every frame.
  */
trait AggregateOperation[A, R] extends Serializable {
  def create(): A
  def accumulate(acc: A, item: Any): Unit
  def combine(acc: A, other: A): Unit
  /** Reverse of `combine`, when the aggregate supports it. */
  def deduct: Option[(A, A) => Unit] = None
  /** Deep copy, so snapshots stay stable while the live accumulator mutates. */
  def copyAcc(acc: A): A
  def finish(acc: A): R
}

/** Mutable boxes used as accumulators (Serializable: accumulator copies ride
  * inside IMDG-stored snapshots).
  */
final class LongAcc(var value: Long) extends Serializable {
  override def toString = s"LongAcc($value)"
}
final class DoubleAcc(var sum: Double, var count: Long) extends Serializable {
  override def toString = s"DoubleAcc($sum,$count)"
}

/** Stock aggregate operations (Jet's `AggregateOperations` factory). */
object AggregateOperations {

  /** Count of items; supports `deduct`. */
  def counting: AggregateOperation[LongAcc, Long] =
    new AggregateOperation[LongAcc, Long] {
      def create()                          = new LongAcc(0)
      def accumulate(acc: LongAcc, i: Any)  = acc.value += 1
      def combine(acc: LongAcc, o: LongAcc) = acc.value += o.value
      override def deduct                   = Some((a, o) => a.value -= o.value)
      def copyAcc(a: LongAcc)               = new LongAcc(a.value)
      def finish(a: LongAcc)                = a.value
    }

  /** Sum of `f(item)`; supports `deduct`. */
  def summingLong(f: Any => Long): AggregateOperation[LongAcc, Long] =
    new AggregateOperation[LongAcc, Long] {
      def create()                          = new LongAcc(0)
      def accumulate(acc: LongAcc, i: Any)  = acc.value += f(i)
      def combine(acc: LongAcc, o: LongAcc) = acc.value += o.value
      override def deduct                   = Some((a, o) => a.value -= o.value)
      def copyAcc(a: LongAcc)               = new LongAcc(a.value)
      def finish(a: LongAcc)                = a.value
    }

  /** Arithmetic mean of `f(item)`; supports `deduct`. */
  def averagingDouble(f: Any => Double): AggregateOperation[DoubleAcc, Double] =
    new AggregateOperation[DoubleAcc, Double] {
      def create()                            = new DoubleAcc(0, 0)
      def accumulate(acc: DoubleAcc, i: Any)  = { acc.sum += f(i); acc.count += 1 }
      def combine(acc: DoubleAcc, o: DoubleAcc) = { acc.sum += o.sum; acc.count += o.count }
      override def deduct = Some { (a: DoubleAcc, o: DoubleAcc) => a.sum -= o.sum; a.count -= o.count }
      def copyAcc(a: DoubleAcc) = new DoubleAcc(a.sum, a.count)
      def finish(a: DoubleAcc)  = if (a.count == 0) 0.0 else a.sum / a.count
    }

  /** Collect items into a list (no `deduct`; forces the recombine path). */
  def toList: AggregateOperation[mutable.ArrayBuffer[Any], List[Any]] =
    new AggregateOperation[mutable.ArrayBuffer[Any], List[Any]] {
      def create()                                        = mutable.ArrayBuffer.empty[Any]
      def accumulate(acc: mutable.ArrayBuffer[Any], i: Any) = { acc += i; () }
      def combine(acc: mutable.ArrayBuffer[Any], o: mutable.ArrayBuffer[Any]) = { acc ++= o; () }
      def copyAcc(a: mutable.ArrayBuffer[Any])            = a.clone()
      def finish(a: mutable.ArrayBuffer[Any])             = a.toList
    }

  /** The two bags of [[toTwoBags]]: left items, then right items. */
  type TwoBags = (mutable.ArrayBuffer[Any], mutable.ArrayBuffer[Any])

  /** Co-group of two tagged inputs into two bags (Jet's `toTwoBags`): a
    * `Left(v)` item goes to the first bag, a `Right(v)` item to the second.
    * No `deduct`, so a window recombines its frames. Grouped by key over a
    * window, this is a window join.
    */
  def toTwoBags: AggregateOperation[TwoBags, (Vector[Any], Vector[Any])] =
    new AggregateOperation[TwoBags, (Vector[Any], Vector[Any])] {
      def create()                         = (mutable.ArrayBuffer.empty[Any], mutable.ArrayBuffer.empty[Any])
      def accumulate(acc: TwoBags, i: Any) = i match {
        case Left(v)  => acc._1 += v; ()
        case Right(v) => acc._2 += v; ()
        case other    => throw new IllegalArgumentException(s"toTwoBags needs a Left or Right item, got $other")
      }
      def combine(acc: TwoBags, o: TwoBags) = { acc._1 ++= o._1; acc._2 ++= o._2; () }
      def copyAcc(a: TwoBags)               = (a._1.clone(), a._2.clone())
      def finish(a: TwoBags)                = (a._1.toVector, a._2.toVector)
    }
}
