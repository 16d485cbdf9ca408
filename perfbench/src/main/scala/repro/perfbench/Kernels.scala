package repro.perfbench

import java.util.concurrent.CountDownLatch
import repro.core._
import repro.imdg.GridCluster
import repro.nexmark._

/** Small loops that exercise single layers through their public classes,
  * fed with the workload's own items and key count. Each reports the median
  * of a few repeats; none starts a `JetInstance`.
  */
object Kernels {

  import Bench.median

  @volatile private var blackhole: Any = _

  private def thread(name: String)(body: => Unit): Thread = {
    val t = new Thread(() => body, name)
    t.setDaemon(true)
    t.start()
    t
  }

  /** The bids the workload's first partitioned edge carries. */
  private def edgeItems(gen: Generator, n: Int): Array[DataItem] =
    Iterator.iterate(0L)(_ + 1).map(gen.eventOf).collect { case b: Bid => DataItem(b, b.ts) }.take(n).toArray

  private val byAuction: Any => Any = v => v.asInstanceOf[Bid].auction

  /** An outbox over `queues`, partitioned by `key` (round-robin if null). */
  private def outboxOver(queues: Array[SpscQueue], key: Any => Any): Outbox = {
    val routing = if (key == null) RoutingPolicy.RoundRobin else RoutingPolicy.Partitioned(key)
    new Outbox(Array(new EdgeCollector(queues.map(q => new LocalQueueSink(q): QueueSink), routing)))
  }

  private def drain(queues: Array[SpscQueue]): Int = {
    var n = 0
    queues.foreach(q => while (q.poll() != null) n += 1)
    n
  }

  /** Bids grouped by the frame (slide) they fall into: `slides` frames. */
  private def bidFrames(gen: Generator, slideMs: Long, slides: Int): Array[Array[Bid]] = {
    val frames = Array.fill(slides)(Array.newBuilder[Bid])
    var seq    = 0L
    while (gen.tsOf(seq) < slides * slideMs) {
      gen.eventOf(seq) match {
        case b: Bid => frames((b.ts / slideMs).toInt) += b
        case _      => ()
      }
      seq += 1
    }
    frames.map(_.result())
  }

  /** Frame partials, one per auction with bids in the frame. */
  private def partials(bids: Array[Bid], frameEnd: Long): Array[DataItem] =
    bids.groupBy(_.auction).iterator.map { case (k, bs) =>
      DataItem(FrameAggregate[Any, LongAcc](k, frameEnd, new LongAcc(bs.length.toLong)), frameEnd)
    }.toArray

  def all(w: Workload, seed: Long): Vector[Metric] = {
    val gen = new Generator(w.genCfg(seed))
    val items = edgeItems(gen, 200000)
    generator(gen) ++ accumulate(gen) ++ combine(w, seed) ++ spsc(items) ++ outbox(items) ++
      link() ++ snapshot(gen) ++ imdg() ++ scheduler()
  }

  /** `Generator.eventOf` cost per event. */
  def generator(gen: Generator): Vector[Metric] = {
    val n = 1000000
    val reps = (0 until 3).map { r =>
      var acc = 0L
      val t0  = System.nanoTime()
      var s   = 0L
      while (s < n) { acc += gen.eventOf(r.toLong * n + s).ts; s += 1 }
      blackhole = acc
      (System.nanoTime() - t0).toDouble / n
    }
    Vector(Metric("nexmark.gen_ns", median(reps), "ns"))
  }

  /** `AccumulateByFrameP.process` cost per bid, frame by frame, with a
    * watermark (and the partials it releases) after every frame.
    */
  def accumulate(gen: Generator): Vector[Metric] = {
    val slide  = Workloads.Window.slideMs
    val frames = bidFrames(gen, slide, 200)
    val reps = (0 until 3).map { _ =>
      val proc   = new AccumulateByFrameP[LongAcc](byAuction, AggregateOperations.counting, slide)
      val queues = Array(new SpscQueue(1 << 16))
      val out    = outboxOver(queues, null)
      var ns     = 0L
      var items  = 0L
      frames.zipWithIndex.foreach { case (bids, f) =>
        val inbox = new Inbox
        bids.foreach(b => inbox.add(DataItem(b, b.ts)))
        val t0 = System.nanoTime()
        proc.process(0, inbox, out)
        ns += System.nanoTime() - t0
        items += bids.length
        while (!proc.tryProcessWatermark(Watermark((f + 1L) * slide), out)) drain(queues)
        drain(queues)
      }
      ns.toDouble / math.max(1L, items)
    }
    Vector(Metric("window.accumulate_ns_per_item", median(reps), "ns"))
  }

  /** One `CombineFramesP` slide: take the frame's partials, then the
    * watermark that closes the window. Returns per-slide nanos and results
    * per slide, measured after the window has filled.
    */
  private def combineSlides(w: Workload, seed: Long, keys: Int, measured: Int): (Double, Double) = {
    val wd     = Workloads.Window
    val fill   = wd.frameCount
    val gen    = new Generator(w.genCfg(seed, keys))
    val frames = bidFrames(gen, wd.slideMs, fill + measured)
    val proc   = new CombineFramesP[LongAcc, Long](AggregateOperations.counting, wd)
    val queues = Array(new SpscQueue(1 << 17))
    val out    = outboxOver(queues, null)
    val nanos   = Vector.newBuilder[Double]
    val results = Vector.newBuilder[Double]
    frames.zipWithIndex.foreach { case (bids, f) =>
      val fe    = (f + 1L) * wd.slideMs
      val inbox = new Inbox
      partials(bids, fe).foreach(inbox.add)
      val t0 = System.nanoTime()
      proc.process(0, inbox, out)
      var emitted = 0
      while (!proc.tryProcessWatermark(Watermark(fe), out)) emitted += drain(queues)
      val t1 = System.nanoTime()
      emitted += drain(queues)
      if (f >= fill) { nanos += (t1 - t0).toDouble; results += emitted.toDouble }
    }
    (median(nanos.result()), median(results.result()))
  }

  def combine(w: Workload, seed: Long): Vector[Metric] = {
    val (ns1k, results1k) = combineSlides(w, seed, 1000, 200)
    val (ns10k, _)        = combineSlides(w, seed, 10000, 30)
    Vector(
      Metric("window.combine_ms_per_slide_1k", ns1k / 1e6, "ms"),
      Metric("window.combine_ms_per_slide_10k", ns10k / 1e6, "ms"),
      Metric("window.combine_ns_per_result", ns1k / math.max(1.0, results1k), "ns")
    )
  }

  /** One producer thread and one consumer thread over a queue of the
    * engine's default edge capacity: wall time per item, and the share of
    * items whose first offer was refused because the queue was full.
    */
  def spsc(items: Array[DataItem]): Vector[Metric] = {
    val n = 2000000
    val reps = (0 until 3).map { _ =>
      val q       = new SpscQueue(1024)
      var refused = 0L
      val t0      = System.nanoTime()
      val producer = thread("perfbench-spsc-producer") {
        var i     = 0
        var retry = false
        while (i < n) {
          if (q.offer(items(i % items.length))) { i += 1; retry = false }
          else { if (!retry) refused += 1; retry = true; Thread.onSpinWait() }
        }
      }
      var got = 0
      while (got < n) { if (q.poll() != null) got += 1 else Thread.onSpinWait() }
      val wall = System.nanoTime() - t0
      producer.join()
      (wall.toDouble / n, refused.toDouble / (refused + n))
    }
    Vector(
      Metric("spsc.hop_ns", median(reps.map(_._1)), "ns"),
      Metric("spsc.full_ratio", median(reps.map(_._2)), "ratio")
    )
  }

  /** An `Outbox` routing the workload's bids by auction over one edge into
    * `nproc` queues that a consumer thread drains: wall time per item, and
    * the share of items whose first offer was refused while routed items
    * waited in the outbox.
    */
  def outbox(items: Array[DataItem]): Vector[Metric] = {
    val n     = 1000000
    val nproc = Runtime.getRuntime.availableProcessors
    val reps = (0 until 3).map { _ =>
      val queues  = Array.fill(nproc)(new SpscQueue(1024))
      val out     = outboxOver(queues, byAuction)
      var refused = 0L
      val t0      = System.nanoTime()
      val producer = thread("perfbench-outbox-producer") {
        var i     = 0
        var retry = false
        while (i < n) {
          val d = items(i % items.length)
          if (out.offer(d.value, d.timestamp)) { i += 1; retry = false }
          else { if (!retry) refused += 1; retry = true; Thread.onSpinWait() }
        }
        while (!out.flush()) Thread.onSpinWait()
      }
      var got = 0
      while (got < n) {
        val before = got
        queues.foreach { q => if (q.poll() != null) got += 1 }
        if (got == before) Thread.onSpinWait()
      }
      val wall = System.nanoTime() - t0
      producer.join()
      (wall.toDouble / n, refused.toDouble / (refused + n))
    }
    Vector(
      Metric("outbox.route_ns", median(reps.map(_._1)), "ns"),
      Metric("outbox.pending_ratio", median(reps.map(_._2)), "ratio")
    )
  }

  /** A consumer that drains a link's queue as a tasklet does: up to 256
    * items per call, reporting them to the receive window (or just letting
    * it ack when nothing came), backing off like a cooperative worker.
    */
  private def linkConsumer(q: SpscQueue, rw: ReceiveWindow, total: Long): Thread =
    thread("perfbench-link-consumer") {
      val idler = new Idler()
      var got   = 0L
      while (got < total) {
        var n = 0
        while (n < 256 && q.poll() != null) n += 1
        if (n > 0) { rw.onReceive(n); got += n; idler.reset() }
        else { rw.maybeAck(); idler.idle() }
      }
    }

  /** `FlowControlledSink` + `ReceiveWindow`: unpaced items per second, then
    * a replay of one burst of 1 k frame partials (one per key) per 10 ms
    * slide, as the accumulate stage releases them. For the replay: the share
    * of items whose first offer the link refused, and how long each burst
    * took from its due time until its last item was accepted.
    */
  def link(): Vector[Metric] = {
    val keys   = Workloads.Keys
    val burst  = Array.tabulate(keys)(k => DataItem(FrameAggregate[Any, LongAcc](k.toLong, 0L, new LongAcc(1)), 0L))
    val n      = 2000000
    val rates = (0 until 3).map { _ =>
      val q  = new SpscQueue(1024)
      val rw = new ReceiveWindow()
      val fs = new FlowControlledSink(q, rw)
      val t0 = System.nanoTime()
      val c  = linkConsumer(q, rw, n)
      var i  = 0
      while (i < n) { if (fs.offer(burst(i % keys))) i += 1 else Thread.onSpinWait() }
      c.join()
      n / ((System.nanoTime() - t0) / 1e9)
    }

    val slides  = 300
    val q       = new SpscQueue(1024)
    val rw      = new ReceiveWindow()
    val fs      = new FlowControlledSink(q, rw)
    val c       = linkConsumer(q, rw, slides.toLong * keys)
    val stalls  = new Recorder
    var refused = 0L
    val t0      = System.nanoTime()
    for (s <- 0 until slides) {
      val due = t0 + s * 10000000L
      while (System.nanoTime() < due) Thread.onSpinWait()
      var i     = 0
      var retry = false
      while (i < keys) {
        if (fs.offer(burst(i))) { i += 1; retry = false }
        else { if (!retry) refused += 1; retry = true; Thread.onSpinWait() }
      }
      stalls.record(System.nanoTime() - due)
    }
    c.join()
    Vector(
      Metric("link.items_per_s", median(rates), "1/s"),
      Metric("link.refused_ratio", refused.toDouble / (refused + slides.toLong * keys), "ratio"),
      Metric("link.burst_stall_p99_ms", stalls.quantileMs(0.99), "ms")
    )
  }

  private def serialize(v: Any): Array[Byte] = {
    val bos = new java.io.ByteArrayOutputStream()
    val oos = new java.io.ObjectOutputStream(bos)
    oos.writeObject(v)
    oos.close()
    bos.toByteArray
  }

  /** A 1 k-key `CombineFramesP` holding one full window: `saveSnapshot()`,
    * then Java-serialize every entry and `IMap.put` it into a two-member
    * grid with one backup, as the engine's snapshot writer does.
    */
  def snapshot(gen: Generator): Vector[Metric] = {
    val wd     = Workloads.Window
    val frames = bidFrames(gen, wd.slideMs, 2 * wd.frameCount)
    val proc   = new CombineFramesP[LongAcc, Long](AggregateOperations.counting, wd)
    val queues = Array(new SpscQueue(1 << 16))
    val out    = outboxOver(queues, null)
    frames.zipWithIndex.foreach { case (bids, f) =>
      val fe    = (f + 1L) * wd.slideMs
      val inbox = new Inbox
      partials(bids, fe).foreach(inbox.add)
      proc.process(0, inbox, out)
      while (!proc.tryProcessWatermark(Watermark(fe), out)) drain(queues)
      drain(queues)
    }
    val reps = (0 until 5).map { r =>
      val t0      = System.nanoTime()
      val entries = proc.saveSnapshot().toVector
      val t1      = System.nanoTime()
      val map     = new GridCluster(2, backupCount = 1).getMap[Any, Any](s"snap-kernel-$r")
      var bytes   = 0L
      entries.foreach { case (k, v) =>
        val b = serialize(v)
        bytes += b.length
        map.put(("combine", 0, k), b)
      }
      ((t1 - t0) / 1e6, (System.nanoTime() - t1) / 1e6, bytes.toDouble)
    }
    Vector(
      Metric("snapshot.save_ms", median(reps.map(_._1)), "ms"),
      Metric("snapshot.write_ms", median(reps.map(_._2)), "ms"),
      Metric("snapshot.bytes", median(reps.map(_._3)), "B")
    )
  }

  /** `IMap.put` of snapshot-sized values into a two-member grid, one backup. */
  def imdg(): Vector[Metric] = {
    val n     = 200000
    val value = new Array[Byte](64)
    val reps = (0 until 3).map { r =>
      val map = new GridCluster(2, backupCount = 1).getMap[Any, Any](s"put-kernel-$r")
      val t0  = System.nanoTime()
      var i   = 0L
      while (i < n) { map.put(("v", 0, i), value); i += 1 }
      (System.nanoTime() - t0).toDouble / n
    }
    Vector(Metric("imdg.put_ns", median(reps), "ns"))
  }

  /** `ExecutionService`: wall time per tasklet call on one cooperative
    * thread, and the CPU `nproc` workers burn while every tasklet reports
    * NoProgress.
    */
  def scheduler(): Vector[Metric] = {
    val tasklets = 16
    val calls    = 200000
    val callNs = (0 until 3).map { r =>
      val exec  = new ExecutionService(1, s"perfbench-call$r")
      val latch = new CountDownLatch(tasklets)
      val ts = Vector.fill(tasklets)(new Tasklet {
        private var left = calls
        def call(): TaskletState = {
          left -= 1
          if (left > 0) TaskletState.MadeProgress else { latch.countDown(); TaskletState.Done }
        }
      })
      val t0 = System.nanoTime()
      exec.submit(ts)
      latch.await()
      val ns = (System.nanoTime() - t0).toDouble / (tasklets.toLong * calls)
      exec.shutdown()
      ns
    }

    val nproc        = Runtime.getRuntime.availableProcessors
    @volatile var on = true
    val exec         = new ExecutionService(nproc, "perfbench-idle")
    exec.submit(Vector.fill(nproc)(new Tasklet {
      def call(): TaskletState = if (on) TaskletState.NoProgress else TaskletState.Done
    }))
    Thread.sleep(200)
    val cpu0 = Jvm.threadCpuNanos("perfbench-idle-coop-")
    val t0   = System.nanoTime()
    Thread.sleep(1000)
    val cores = (Jvm.threadCpuNanos("perfbench-idle-coop-") - cpu0).toDouble / (System.nanoTime() - t0)
    on = false
    exec.shutdown()
    Vector(
      Metric("scheduler.call_ns", median(callNs), "ns"),
      Metric("scheduler.idle_cpu_cores", cores, "cores")
    )
  }
}
