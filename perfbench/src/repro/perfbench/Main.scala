package repro.perfbench

/** Entry point of the benchmark:
  *
  * {{{
  * Main --workload <name> --seed <n> --seconds <s> --trace <0|1>
  * }}}
  *
  * With `--trace 0` the run measures the end-to-end metrics; with
  * `--trace 1` it measures the per-layer ones. Every emitted window is
  * checked against `BruteForce`. The last line of standard output is the
  * result object; the exit code is 1 if any window was wrong or any
  * operation failed.
  */
object Main {
  /** Set-ups per run, whose median is `setup_s`: at least `MinSetups`, and
    * more until `SetupSeconds` have passed, at most `MaxSetups`.
    */
  private val MinSetups = 5
  private val MaxSetups = 25
  private val SetupSeconds = 1.0

  def main(args: Array[String]): Unit = {
    val opts = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def opt(name: String): String =
      opts.getOrElse(name, throw new IllegalArgumentException(s"missing --$name"))
    val w = Workloads.byName(opt("workload"))
    val seed = opt("seed").toLong
    val seconds = opt("seconds").toDouble
    require(seconds > 0, "--seconds must be positive")
    val traced = opt("trace") match {
      case "0" => false
      case "1" => true
      case t   => throw new IllegalArgumentException(s"--trace must be 0 or 1, not $t")
    }

    val v = new Verdict
    val m = new Metrics
    val budget = (seconds * 1e9).toLong
    def deadline(share: Double): Long = Clock.wall() + (budget * share).toLong
    var phaseStart = Clock.wall()
    def phase(name: String): Unit = {
      val now = Clock.wall()
      Console.err.println(f"[perfbench] $name: ${(now - phaseStart) / 1e9}%.2f s")
      phaseStart = now
    }

    // Set-up, repeated; the last one's stream is kept.
    val setups = new Samples
    val setupEnd = Clock.wall() + (SetupSeconds * 1e9).toLong
    var p: Prepared = null
    while (setups.size < MinSetups || (setups.size < MaxSetups && Clock.wall() < setupEnd)) {
      val w0 = Clock.wall()
      p = new Prepared(w.q, Workloads.stream(w.dataset, w.streamLen, seed))
      SlideLoop.fill(p)
      setups.add(Clock.wall() - w0)
    }
    phase("set-up")
    p.reference
    phase("reference")
    val state = SlideLoop.sampleState(p, v)
    phase("state sampling")
    SlideLoop.run(p, deadline(0.15), v, new SlideSpans)
    SlideLoop.runBatches(p, deadline(0.05), v, new BatchSpans)
    phase("warm-up")

    val steal0 = Steal.ticks()
    val start = Clock.wall()
    try {
      if (traced) perLayer(p, state, v, m, deadline)
      else endToEnd(p, state, median(setups), v, m, deadline)
    } catch { case e: Exception => v.fail("measurement", e) }
    val measured = (Clock.wall() - start) / 1e9
    phase("measurement")
    val steal = Steal.ticks() - steal0

    val conditions = Seq(
      "workload" -> Json.str(w.name), "seed" -> seed.toString, "trace" -> (if (traced) "1" else "0"),
      "nproc" -> Runtime.getRuntime.availableProcessors.toString,
      "jdk" -> Json.str(s"${System.getProperty("java.vm.name")} ${System.getProperty("java.version")}"),
      "steal_ticks" -> steal.toString, "measured_s" -> f"$measured%.3f",
      "setup_s_samples" -> setups.sorted.map(x => f"${x / 1e9}%.4f").mkString("[", ", ", "]"),
      "timer_phase" -> (if (w.dataset == "TIMER") Workloads.timerPhase(seed, w.streamLen) else -1).toString,
      "windows_checked" -> v.checked.toString, "windows_wrong" -> v.wrong.toString,
      "operations_failed" -> v.failed.toString,
      "problem" -> v.problem.map(Json.str).getOrElse("null"),
    )
    println("CONDITIONS " + conditions.map { case (k, x) => s""""$k": $x""" }.mkString("{", ", ", "}"))
    v.problem.foreach(pr => Console.err.println(s"[perfbench] FAILED: $pr"))
    val metrics = if (v.ok) m.json else "{}"
    println(s"""{"correct": ${v.ok}, "attempted": ${v.checked + v.failed}, "failed": ${v.wrong + v.failed}, "metrics": $metrics}""")
    System.out.flush()
    sys.exit(if (v.ok) 0 else 1)
  }

  private def median(s: Samples): Double = Stats.quantile(s.sorted, 0.5)

  private def endToEnd(p: Prepared, state: StateSample, setupNs: Double, v: Verdict, m: Metrics,
                       deadline: Double => Long): Unit = {
    val slides = new SlideSpans
    val batches = new BatchSpans
    SlideLoop.run(p, deadline(0.65), v, slides)
    SlideLoop.runBatches(p, deadline(0.35), v, batches)
    val cpu = slides.cpu.sorted
    val wall = batches.wall.sorted
    m.put("events_per_cpu_s", Stats.median(slides.passRates.toSeq), "1/s")
    m.put("slide_p50_us", Stats.quantile(cpu, 0.5) / 1e3, "us")
    m.put("slide_p99_us", Stats.quantile(cpu, 0.99) / 1e3, "us")
    m.put("alloc_bytes_per_event", slides.allocTotal.toDouble / slides.events, "B")
    m.put("avg_candidates", state.avgCandidates, "count")
    m.put("state_model_kb", state.modelBytes / state.samples / 1024, "KiB")
    m.put("state_serialized_kb", state.serBytes / state.serSamples / 1024, "KiB")
    m.put("setup_s", setupNs / 1e9, "s")
    m.put("batch_p50_ms", Stats.quantile(wall, 0.5) / 1e6, "ms")
    m.put("batch_p90_ms", Stats.quantile(wall, 0.9) / 1e6, "ms")
    m.put("spark_events_per_s", batches.events / (batches.wallTotal / 1e9), "1/s")
    println(s"# slides timed: ${cpu.length}, slide_us p25/p50/p75: ${Stats.quartiles(cpu, 1e3)}")
    println(s"# passes timed: ${slides.passRates.length}, events_per_cpu_s p25/p50/p75: " +
      Stats.quartiles(slides.passRates.toArray.sorted, 1.0))
    println(s"# batches timed: ${wall.length}, batch_ms p25/p50/p75: ${Stats.quartiles(wall, 1e6)}")
  }

  private def perLayer(p: Prepared, state: StateSample, v: Verdict, m: Metrics,
                       deadline: Double => Long): Unit = {
    val batches = new BatchSpans
    SlideLoop.runBatches(p, deadline(0.25), v, batches)
    val tr = new Layers.SlideTrace
    Layers.slides(p, deadline(0.45), v, tr)

    m.put("sap.plain_slide_us", median(tr.plain) / 1e3, "us")
    m.put("sap.unit_slide_us", median(tr.unit) / 1e3, "us")
    m.put("sap.unit_slide_cpu_share", tr.unitCpu.toDouble / tr.allCpu, "ratio")
    m.put("sap.partitions_live", tr.partsLive.toDouble / tr.partSamples, "count")

    Layers.scoreTree(p, math.round(state.avgCandidates).toInt, m)
    val (calls, parts) = Layers.joinCalls(p, 64)
    Layers.wrtAndJoin(p, calls, m)
    Layers.tbui(p, 64, m)
    Layers.meaningful(p, parts, m)
    Layers.ring(p, m)

    Layers.sparkState(p, v, m)
    val algo = median(tr.batchAlgo)
    m.put("spark.algo_ms_per_batch", algo / 1e6, "ms")
    m.put("spark.overhead_ms_per_batch", (median(batches.wall) - algo) / 1e6, "ms")

    m.put("driver.metric_sample_us", median(tr.metricSample) / 1e3, "us")
    m.put("driver.slide_copy_ns", Layers.slideCopyNs(p), "ns")
    m.put("driver.trace_overhead_ratio",
      (tr.tracedCpu.toDouble / tr.tracedEvents) / (tr.untracedCpu.toDouble / tr.untracedEvents), "ratio")
    m.put("verify.windows_checked", v.checked.toDouble, "count")
  }
}
