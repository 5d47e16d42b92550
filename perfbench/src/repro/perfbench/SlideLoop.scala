package repro.perfbench

import repro.baselines.BruteForce
import repro.core._
import repro.spark.{PerfbenchStateCodec, StreamState}

/** The workload's stream cut into slides, plus the brute-force answer
  * digest of every window (window w is emitted by slide m − 1 + w).
  */
final class Prepared(val q: TopKQuery, val events: Array[Event]) {
  val slides: Array[Array[Event]] =
    Array.tabulate(events.length / q.s)(i => java.util.Arrays.copyOfRange(events, i * q.s, (i + 1) * q.s))
  /** Index of the first slide that completes a window. */
  val firstAnswer: Int = q.m - 1
  def windows: Int = slides.length - firstAnswer

  /** Digests of `BruteForce`'s answer for every window of the stream,
    * computed on four threads, each feeding its own `BruteForce` the window
    * before its share of the windows, then the share.
    */
  lazy val reference: Array[Long] = {
    val out = new Array[Long](windows)
    val parts = 4
    val threads = (0 until parts).map { part =>
      val (from, until) = (windows * part / parts, windows * (part + 1) / parts)
      new Thread(() => {
        val bf = new BruteForce(q)
        var i = from
        while (i < until + firstAnswer) {
          val r = bf.processSlide(slides(i))
          if (i >= from + firstAnswer) out(i - firstAnswer) = Digest.of(r.get)
          i += 1
        }
      })
    }
    threads.foreach(_.start())
    threads.foreach(_.join())
    out
  }
}

/** Windows compared with the reference, and operations that went wrong. */
final class Verdict {
  var checked = 0L
  var wrong = 0L
  var failed = 0L
  private var firstProblem: String = _

  /** Compare the answer of slide `i` of `p` with the reference. */
  def check(p: Prepared, i: Int, res: Option[Array[Event]]): Unit = {
    if (i < p.firstAnswer) {
      if (res.isDefined) note(s"answer before the window filled (slide $i)")
    } else {
      checked += 1
      res match {
        case Some(r) if r.length == p.q.k && Digest.of(r) == p.reference(i - p.firstAnswer) =>
        case _ => note(s"window ${i - p.firstAnswer} differs from BruteForce")
      }
    }
  }

  def fail(what: String, e: Throwable): Unit = {
    failed += 1
    if (firstProblem == null) firstProblem = s"$what: $e"
  }

  private def note(msg: String): Unit = {
    wrong += 1
    if (firstProblem == null) firstProblem = msg
  }

  def ok: Boolean = wrong == 0 && failed == 0
  def problem: Option[String] = Option(firstProblem)
}

/** Per-slide spans of the untraced slide loop, and the throughput (events
  * per CPU second) of every complete pass.
  */
final class SlideSpans {
  val cpu = new Samples
  val passRates = collection.mutable.ArrayBuffer[Double]()
  var events = 0L
  var allocTotal = 0L
}

/** Wall-time spans of micro-batches. */
final class BatchSpans {
  val wall = new Samples
  var events = 0L
  var wallTotal = 0L

  def add(ns: Long, batchEvents: Long): Unit = {
    wall.add(ns); wallTotal += ns; events += batchEvents
  }
}

/** Averages of the state metrics over the answering slides of one pass. */
final class StateSample {
  var candidates = 0.0
  var modelBytes = 0.0
  var samples = 0L
  var serBytes = 0.0
  var serSamples = 0L

  def avgCandidates: Double = candidates / samples
}

/** The benchmark's own slide loop (standing in for `SlideRunner`). Slides
  * are cut before the loop and answers are checked between spans, so a
  * span covers `processSlide` alone.
  */
object SlideLoop {

  /** Feed slides 0 .. firstAnswer into a fresh instance: the window fills
    * and the first answer comes out.
    */
  def fill(p: Prepared, v: Verdict): ContinuousTopK = {
    val algo = Factories.sap(p.q)
    var i = 0
    while (i <= p.firstAnswer) { v.check(p, i, algo.processSlide(p.slides(i))); i += 1 }
    algo
  }

  /** `fill` without the check, for timing set-up. */
  def fill(p: Prepared): ContinuousTopK = {
    val algo = Factories.sap(p.q)
    var i = 0
    while (i <= p.firstAnswer) { algo.processSlide(p.slides(i)); i += 1 }
    algo
  }

  /** Timed passes over the stream until `deadline` (wall ns), and at least
    * one complete pass. Each pass starts from a fresh instance; the slides
    * that fill its window are not timed.
    */
  def run(p: Prepared, deadline: Long, v: Verdict, out: SlideSpans): Unit = {
    val spans = new Array[Long](p.slides.length)
    def more = (Clock.wall() < deadline || out.passRates.isEmpty) && v.ok
    while (more) {
      val algo = fill(p, v)
      var i = p.firstAnswer + 1
      var n = 0
      val a0 = Clock.alloc()
      try {
        while (i < p.slides.length && more) {
          val c0 = Clock.cpu()
          val r = algo.processSlide(p.slides(i))
          spans(n) = Clock.cpu() - c0
          n += 1
          v.check(p, i, r)
          i += 1
        }
      } catch { case e: Exception => v.fail(s"slide $i", e) }
      out.allocTotal += Clock.alloc() - a0
      out.cpu.addAll(spans, n)
      out.events += n.toLong * p.q.s
      if (i == p.slides.length) {
        var cpu = 0L; var j = 0
        while (j < n) { cpu += spans(j); j += 1 }
        out.passRates += n.toLong * p.q.s / (cpu / 1e9)
      }
    }
  }

  /** A multiple of `SlidesPerBatch` that spaces `samples` batch boundaries
    * evenly over the answering slides of `p`.
    */
  def batchStride(p: Prepared, samples: Int): Int =
    Workloads.SlidesPerBatch * math.max(1, p.windows / Workloads.SlidesPerBatch / samples)

  /** Candidate and memory-model samples after every answering slide, and
    * the serialized operator state at up to 32 evenly spaced batch
    * boundaries, over one untimed pass.
    */
  def sampleState(p: Prepared, v: Verdict): StateSample = {
    val out = new StateSample
    val stride = batchStride(p, 32)
    val algo = fill(p, v)
    var i = p.firstAnswer + 1
    while (i < p.slides.length) {
      v.check(p, i, algo.processSlide(p.slides(i)))
      out.candidates += algo.candidateCount
      out.modelBytes += algo.memoryBytes
      out.samples += 1
      if ((i + 1) % stride == 0) {
        out.serBytes += PerfbenchStateCodec.serialize(new StreamState(algo, Array.empty, 0L)).length
        out.serSamples += 1
      }
      i += 1
    }
    out
  }

  /** Micro-batches of the in-process operator path until `deadline`: per
    * batch, restore the query's state from bytes, feed `SlidesPerBatch`
    * slides, and store the state again — the per-group work of
    * `StructuredTopK` without Spark. Batches up to the first answer are
    * not recorded.
    */
  def runBatches(p: Prepared, deadline: Long, v: Verdict, out: BatchSpans): Unit = {
    val per = Workloads.SlidesPerBatch
    val results = new Array[Option[Array[Event]]](per)
    def more = (Clock.wall() < deadline || out.wall.size == 0) && v.ok
    while (more) {
      var bytes = PerfbenchStateCodec.serialize(new StreamState(Factories.sap(p.q), Array.empty, 0L))
      var i = 0
      while (i < p.slides.length && more) {
        val end = math.min(i + per, p.slides.length)
        try {
          val w0 = Clock.wall()
          val st = PerfbenchStateCodec.deserialize(bytes)
          var j = i
          while (j < end) { results(j - i) = st.algo.processSlide(p.slides(j)); j += 1 }
          bytes = PerfbenchStateCodec.serialize(st)
          val w = Clock.wall() - w0
          if (i > p.firstAnswer) out.add(w, (end - i).toLong * p.q.s)
        } catch { case e: Exception => v.fail(s"batch at slide $i", e) }
        var j = i
        while (j < end) { v.check(p, j, results(j - i)); j += 1 }
        i = end
      }
    }
  }
}
