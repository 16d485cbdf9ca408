package repro.perfbench

import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Paths}
import repro.nexmark.Generator

/** One measured value, printed as `{"value": v, "unit": u}`. */
final case class Metric(name: String, value: Double, unit: String)

/** Runs one workload and measures it from outside the engine.
  *
  * With tracing off it reports the end-to-end metrics. With tracing on it
  * measures the same way once more, then again with the probe's counters
  * and spans switched on, runs the layer kernels and the single-thread
  * baseline, and reports the per-layer metrics with the tracing overhead.
  */
final class Bench(w: Workload, seed: Long, seconds: Int) {
  import Bench._

  var attempted = 0L
  var failed    = 0L
  /** Per-measurement facts printed beside the host facts. */
  val notes     = Vector.newBuilder[(String, String)]

  /** Events of one measured job: warm-up plus `seconds` in an open loop,
    * one fixed pass in a closed loop.
    */
  private val events: Long =
    if (w.openLoop) (w.ratePerSec * (WarmupMs / 1000.0 + seconds)).toLong else w.passEvents
  private lazy val expected = Jobs.expected(w, seed, events)

  private def timeoutMs(n: Long): Long =
    if (w.openLoop) (2000.0 * n / w.ratePerSec).toLong + 20000L else 90000L

  private def run(wl: Workload, n: Long, exp: Map[String, Expected], traced: Boolean,
      heapAtMs: Array[Long] = Array.emptyLongArray): Outcome = {
    val o = Jobs.run(wl, seed, exp, n, traced, WarmupMs, timeoutMs(n), heapAtMs)
    attempted += o.attempted
    failed += o.wrong
    if (o.wrong > 0) System.err.println(s"${wl.name}: ${o.wrong} of ${o.attempted} windows wrong")
    o
  }

  /** An untimed job of the workload itself: it warms the JVM up for the
    * measured ones, and its sink reads the live heap at five window ends
    * between half and nine tenths of its event time, when every window it
    * holds is full. Returns their median in MB: the events in flight
    * between stages vary from one reading to the next. The full
    * collections would disturb a timed job.
    */
  private def heapJob(traced: Boolean): Double = {
    val n      = if (w.openLoop) (w.ratePerSec * 3).toLong else w.passEvents
    val slide  = Workloads.Window.slideMs
    val lastTs = new Generator(w.genCfg(seed)).tsOf(n - 1)
    val at     = Array(5, 6, 7, 8, 9).map(tenths => lastTs * tenths / 10 / slide * slide)
    val o      = run(w, n, Jobs.expected(w, seed, n), traced, heapAtMs = at)
    val live   = at.indices.map(o.measured.liveBytes.get)
    require(live.forall(_ > 0), s"${w.name}: not every window ending at ${at.mkString(", ")} ms closed")
    median(live.map(_.toDouble)) / 1e6
  }

  /** The heap job, set-up repeats, then the measured job(s): one job in an
    * open loop, passes until `seconds` have gone by in a closed loop.
    */
  def measure(traced: Boolean): Measured = {
    val heapMb = heapJob(traced)
    val setups = Vector.fill(SetupWarmups + SetupRepeats)(
      Jobs.setupOnce(w, seed, expected, events, traced)).drop(SetupWarmups)
    val t0     = System.nanoTime()
    val runs   = Vector.newBuilder[Outcome]
    runs += run(w, events, expected, traced)
    while (!w.openLoop && System.nanoTime() - t0 < seconds * 1000000000L)
      runs += run(w, events, expected, traced)
    val m = Measured(heapMb, setups, runs.result())
    notes += s"latency_p99_ms_per_segment${if (traced) "_traced" else ""}" ->
      m.runs.flatMap(_.measured.segments.map(r => f"${r.quantileMs(0.99)}%.3f")).mkString(" ")
    m
  }

  def endToEnd(m: Measured): Vector[Metric] = {
    val runs = m.runs
    Vector(
      Metric("latency_p99_ms", latencyMs(m, 0.99), "ms"),
      Metric("throughput_evps", median(runs.map(o => o.events / (o.wallNs / 1e9))), "ev/s"),
      Metric("cpu_s_per_mev", runs.map(_.cpuNs).sum / 1e9 / (runs.map(_.events).sum / 1e6), "s/Mev"),
      Metric("heap_after_gc_mb", m.heapMb, "MB"),
      Metric("setup_s", median(m.setups.map(_._1.toDouble) ++ runs.map(_.setupNs.toDouble)) / 1e9, "s")
    )
  }

  /** Latency quantile `q`: the median over the segments of every measured job. */
  private def latencyMs(m: Measured, q: Double): Double =
    median(m.runs.flatMap(_.measured.segments.map(_.quantileMs(q))))

  def untraced(): Vector[Metric] = endToEnd(measure(traced = false))

  /** The end-to-end metrics and the untimed tail of an untraced
    * measurement. Its jobs are not kept past this call.
    */
  private def untracedWithTail(): (Vector[Metric], Vector[Metric]) = {
    val m       = measure(traced = false)
    val latency = pooled(m.runs.flatMap(_.measured.segments))
    val windows = m.runs.map(o => (0 until o.measured.windows).count(i => o.measured.timed(o.measured.windowEnd(i)))).sum
    (endToEnd(m), Vector(
      Metric("latency.p50_ms", latencyMs(m, 0.50), "ms"),
      Metric("latency.samples", latency.count.toDouble, "count"),
      Metric("latency.windows", windows.toDouble, "count"),
      Metric("latency.p999_ms", latency.quantileMs(0.999), "ms"),
      Metric("latency.p9999_ms", latency.quantileMs(0.9999), "ms"),
      Metric("latency.max_ms", latency.maxMs, "ms")
    ))
  }

  def traced(out: Option[java.nio.file.Path]): Vector[Metric] = {
    val (plain, tail) = untracedWithTail()
    val m         = measure(traced = true)
    val withTrace = endToEnd(m)
    val runs      = m.runs
    // How much worse each end-to-end metric reads with tracing on, in %.
    val overhead = plain.zip(withTrace).map { case (p, t) =>
      val worse = if (p.name == "throughput_evps") p.value - t.value else t.value - p.value
      Metric(s"trace.overhead_pct.${p.name}", if (p.value == 0) 0.0 else worse / p.value * 100, "%")
    }
    val first   = runs.head
    val sink    = first.measured
    val closeLag = new Recorder
    val spread   = new Recorder
    val spans    = new StringBuilder("window_end_ms\tfirst_after_due_ms\tlast_after_due_ms\n")
    for (i <- 0 until sink.windows) {
      val we = sink.windowEnd(i)
      if (sink.timed(we) && sink.first.get(i) != 0L) {
        val due = first.probe.dueNanos(we)
        closeLag.record(sink.first.get(i) - due)
        spread.record(sink.last.get(i) - sink.first.get(i))
        spans ++= s"$we\t${(sink.first.get(i) - due) / 1e6}\t${(sink.last.get(i) - due) / 1e6}\n"
      }
    }
    out.foreach(dir => Files.write(dir.resolve(s"spans-${w.name}-seed$seed.tsv"),
      spans.toString.getBytes(StandardCharsets.UTF_8)))

    // Snapshots and the grid work only with fault tolerance on, so they are
    // read from one traced exactly-once job of the same workload.
    val ft = {
      val wl = w.exactlyOnce
      val n  = if (w.openLoop) (w.ratePerSec * (WarmupMs / 1000.0 + FtSeconds)).toLong else w.passEvents
      run(wl, n, Jobs.expected(wl, seed, n), traced = true)
    }
    val commits   = ft.snapshots
    val intervals = commits.map(_._1).sliding(2).collect { case Seq(a, b) => (b - a) / 1e6 - Workloads.SnapshotIntervalMs }.toVector
    val pauses    = first.gc.filter(_.pause)
    val agg       = first.probe.agg

    val baselineWl = Workloads.all(Runtime.getRuntime.availableProcessors)
      .find(_.passEvents > 0).get.copy(name = "q5-1thread", threads = 1)
    val baselineRun = {
      val n = baselineWl.passEvents
      run(baselineWl, n, Jobs.expected(baselineWl, seed, n), traced = false)
    }

    Vector(
      Metric("source.lag_p50_ms", pooled(runs.map(_.probe.sourceLag)).quantileMs(0.50), "ms"),
      Metric("source.lag_p99_ms", pooled(runs.map(_.probe.sourceLag)).quantileMs(0.99), "ms"),
      Metric("window.close_lag_p50_ms", closeLag.quantileMs(0.50), "ms"),
      Metric("window.close_lag_p99_ms", closeLag.quantileMs(0.99), "ms"),
      Metric("window.emit_spread_p50_ms", spread.quantileMs(0.50), "ms"),
      Metric("window.emit_spread_p99_ms", spread.quantileMs(0.99), "ms"),
      Metric("window.key_calls", first.probe.keyCalls.sum.toDouble, "count"),
      Metric("window.accumulate_calls", agg.accumulate.sum.toDouble, "count"),
      Metric("window.combine_calls", agg.combine.sum.toDouble, "count"),
      Metric("window.deduct_calls", agg.deduct.sum.toDouble, "count"),
      Metric("window.copy_calls", agg.copy.sum.toDouble, "count"),
      Metric("window.finish_calls", agg.finish.sum.toDouble, "count"),
      Metric("snapshot.commits", commits.size.toDouble, "count"),
      Metric("snapshot.duration_p50_ms", if (intervals.isEmpty) 0.0 else median(intervals), "ms"),
      Metric("snapshot.duration_max_ms", if (intervals.isEmpty) 0.0 else intervals.max, "ms"),
      Metric("snapshot.entries", if (commits.isEmpty) 0.0 else median(commits.map(_._2.toDouble)), "count"),
      Metric("imdg.replica_entries", ft.replicaEntries.toDouble, "count"),
      Metric("scheduler.coop_cpu_s", first.coopCpuNs / 1e9, "s"),
      Metric("pipeline.todag_ms", median(m.setups.map(_._2.toDouble) ++ runs.map(_.toDagNs.toDouble)) / 1e6, "ms"),
      Metric("core.submit_ms", median(m.setups.map(_._3.toDouble) ++ runs.map(_.submitNs.toDouble)) / 1e6, "ms"),
      Metric("jvm.gc_count", pauses.size.toDouble, "count"),
      Metric("jvm.gc_pause_total_ms", pauses.map(_.durationMs).sum.toDouble, "ms"),
      Metric("jvm.gc_pause_max_ms", if (pauses.isEmpty) 0.0 else pauses.map(_.durationMs).max.toDouble, "ms"),
      Metric("baseline.q5_1thread_evps", baselineRun.events / (baselineRun.wallNs / 1e9), "ev/s")
    ) ++ tail ++ Kernels.all(w, seed) ++ overhead
  }
}

/** The heap job's live heap, set-up samples (set-up, toDag, submit nanos)
  * and the measured jobs.
  */
final case class Measured(heapMb: Double, setups: Vector[(Long, Long, Long)], runs: Vector[Outcome])

object Bench {
  /** Results for window ends in the first second of a job are not timed. */
  val WarmupMs     = 1000L
  /** Length of the traced run's exactly-once job in an open loop. */
  val FtSeconds    = 10
  /** Set-ups measured on their own before the measured job(s), after
    * `SetupWarmups` uncounted ones: the set-up path runs once per job, so it
    * takes a few dozen set-ups before the JIT has compiled it, and about a
    * hundred before their times settle.
    */
  val SetupWarmups = 100
  val SetupRepeats = 50

  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.isEmpty) 0.0 else if (s.size % 2 == 1) s(s.size / 2) else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }

  def pooled(rs: Seq[Recorder]): Recorder = {
    val all = new Recorder
    rs.foreach(all.addAll)
    all
  }
}

object Main {
  private def usage(msg: String): Nothing = {
    System.err.println(s"$msg\nusage: Main --workload <name> --seed <n> --seconds <n> --trace <0|1>")
    System.exit(2)
    throw new IllegalStateException(msg)
  }

  private def jsonString(s: String): String =
    "\"" + s.flatMap {
      case '"'            => "\\\""
      case '\\'           => "\\\\"
      case c if c < ' '   => f"\\u${c.toInt}%04x"
      case c              => c.toString
    } + "\""

  private def jsonNumber(name: String, d: Double): String = {
    require(!d.isNaN && !d.isInfinite, s"$name is not a number: $d")
    if (d == math.rint(d) && math.abs(d) < 1e15) d.toLong.toString else d.toString
  }

  def main(args: Array[String]): Unit = {
    val opts = args.grouped(2).map {
      case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other                             => usage(s"bad arguments: ${other.mkString(" ")}")
    }.toMap
    def opt(k: String) = opts.getOrElse(k, usage(s"missing --$k"))
    val nproc     = Runtime.getRuntime.availableProcessors
    val workloads = Workloads.all(nproc)
    val w = workloads.find(_.name == opt("workload"))
      .getOrElse(usage(s"unknown workload; one of ${workloads.map(_.name).mkString(", ")}"))
    val seed    = opt("seed").toLongOption.getOrElse(usage("--seed must be an integer"))
    val seconds = opt("seconds").toIntOption.filter(_ > 0).getOrElse(usage("--seconds must be a positive integer"))
    val trace   = opt("trace") match {
      case "0" => false
      case "1" => true
      case _   => usage("--trace must be 0 or 1")
    }
    val out = Option(System.getProperty("perfbench.out")).map { d =>
      val p = Paths.get(d); Files.createDirectories(p); p
    }

    require(Jvm.listening)
    val bench   = new Bench(w, seed, seconds)
    val metrics = if (trace) bench.traced(out) else bench.untraced()
    val correct = bench.failed == 0

    val facts = Jvm.facts ++ bench.notes.result() ++ Vector(
      "workload" -> w.name, "layout" -> w.layout, "seed" -> seed.toString,
      "seconds" -> seconds.toString, "trace" -> (if (trace) "1" else "0"),
      "windows_checked" -> bench.attempted.toString, "windows_wrong" -> bench.failed.toString,
      "results_wrong_ratio" -> (bench.failed.toDouble / math.max(1L, bench.attempted)).toString
    )
    facts.foreach { case (k, v) => println(s"# $k: $v") }
    metrics.foreach(m => println(f"${m.name}%-44s ${m.value}%16.6f ${m.unit}"))

    val metricsJson = metrics.map(m =>
      s"${jsonString(m.name)}: {\"value\": ${jsonNumber(m.name, m.value)}, \"unit\": ${jsonString(m.unit)}}").mkString(", ")
    val result =
      s"""{"correct": $correct, "attempted": ${bench.attempted}, "failed": ${bench.failed}, "metrics": {$metricsJson}}"""
    out.foreach { dir =>
      val factsJson = facts.map { case (k, v) => s"${jsonString(k)}: ${jsonString(v)}" }.mkString(", ")
      Files.write(dir.resolve(s"result-${w.name}-seed$seed-trace${if (trace) 1 else 0}.json"),
        s"""{"host": {$factsJson}, "result": $result}\n""".getBytes(StandardCharsets.UTF_8))
    }
    println(result)
    System.out.flush()
    System.exit(if (correct) 0 else 1)
  }
}
