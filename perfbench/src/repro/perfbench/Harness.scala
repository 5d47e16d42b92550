package repro.perfbench

import java.lang.management.ManagementFactory
import repro.core._
import repro.stream.StreamData
import scala.collection.mutable

/** Clocks of the calling thread. Thread CPU time is the timing base of every
  * single-threaded span: on a guest with hypervisor steal, wall time of a
  * short span can inflate many times over, thread CPU time much less.
  */
object Clock {
  private val bean =
    ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]

  @inline def cpu(): Long = bean.getCurrentThreadCpuTime
  @inline def alloc(): Long = bean.getCurrentThreadAllocatedBytes
  @inline def wall(): Long = System.nanoTime()
}

/** A growable array of long samples (nanoseconds, as a rule). */
final class Samples {
  private var a = new Array[Long](1024)
  private var n = 0

  def add(x: Long): Unit = {
    if (n == a.length) a = java.util.Arrays.copyOf(a, n * 2)
    a(n) = x; n += 1
  }
  def addAll(xs: Array[Long], count: Int): Unit = {
    var i = 0
    while (i < count) { add(xs(i)); i += 1 }
  }
  def size: Int = n
  def sorted: Array[Double] = {
    val out = new Array[Double](n)
    var i = 0
    while (i < n) { out(i) = a(i).toDouble; i += 1 }
    java.util.Arrays.sort(out)
    out
  }
}

object Stats {
  /** Quantile `p` of ascending `xs` by linear interpolation. */
  def quantile(xs: Array[Double], p: Double): Double = {
    require(xs.nonEmpty, "quantile of no samples")
    val pos = p * (xs.length - 1)
    val lo = math.floor(pos).toInt
    val hi = math.min(lo + 1, xs.length - 1)
    xs(lo) + (xs(hi) - xs(lo)) * (pos - lo)
  }

  def median(xs: Seq[Double]): Double = quantile(xs.toArray.sorted, 0.5)

  /** "p25 / p50 / p75" of ascending samples, each divided by `scale`. */
  def quartiles(xs: Array[Double], scale: Double): String =
    Seq(0.25, 0.5, 0.75).map(p => f"${quantile(xs, p) / scale}%.3f").mkString(" / ")
}

/** Named metrics in insertion order, printed as the result's `metrics`. */
final class Metrics {
  private val m = mutable.LinkedHashMap[String, (Double, String)]()

  def put(name: String, value: Double, unit: String): Unit = {
    require(!m.contains(name), s"metric $name reported twice")
    m(name) = (value, unit)
  }

  def json: String = m.map { case (k, (v, u)) =>
    s""""$k": {"value": ${Json.num(v)}, "unit": "$u"}"""
  }.mkString("{", ", ", "}")
}

object Json {
  def num(v: Double): String = {
    require(!v.isNaN && !v.isInfinite, s"non-finite metric value $v")
    if (v == math.rint(v) && math.abs(v) < 1e15) v.toLong.toString else v.toString
  }
  def str(s: String): String = "\"" + s.replace("\\", "\\\\").replace("\"", "\\\"") + "\""
}

/** The algorithm under test: SAP with enhanced dynamic partitioning and
  * S-AVL/UBSA meaningful sets (the configuration the paper calls SAP).
  */
object Factories {
  val sap: TopKQuery => ContinuousTopK =
    q => new Sap(q, new EnhancedDynamicPartitioner, Formation.DelayedSAvl)

  val partitioner: Partitioner = new EnhancedDynamicPartitioner
}

/** A benchmark workload: one query ⟨n, k, s⟩ over a stream of `streamLen`
  * events from `dataset`, which makes one pass.
  */
final case class Workload(name: String, dataset: String, q: TopKQuery, streamLen: Int)

object Workloads {
  /** The paper's regular default ratios (n = 2%|D|, k = 100, s = 1%n). */
  val Regular = TopKQuery(2400, 100, 24)
  /** The paper's high-speed default cell. */
  val High = TopKQuery(48000, 1000, 960)
  /** Slides per micro-batch in the batch metrics. */
  val SlidesPerBatch = 10

  val all: Seq[Workload] = Seq(
    // Small slides: fixed per-slide costs (answer assembly, TopKBuffer
    // offers, candidate deletes) dominate.
    Workload("regular_stock", "STOCK", Regular, 120_000),
    // Unit completion (WRT join test, merge-&-refine, UBSA) dominates.
    Workload("highspeed_stock", "STOCK", High, 48_000 + 960 * 1000),
    // Scores follow arrival order: long descents with ρ < k, so M_i
    // formation (TBUI, S-AVL) runs on many slides.
    Workload("highspeed_timer", "TIMER", High, 48_000 + 960 * 1000),
  )

  def byName(name: String): Workload =
    all.find(_.name == name).getOrElse(throw new IllegalArgumentException(
      s"unknown workload '$name' (known: ${all.map(_.name).mkString(", ")})"))

  /** TIMER streams are cut from a generated stream this many times longer;
    * its sine period is then half a pass.
    */
  private val TimerStretch = 2.5

  /** Seed-chosen start of a TIMER stream of `len` events. */
  def timerPhase(seed: Long, len: Int): Int =
    java.lang.Math.floorMod(new scala.util.Random(seed).nextLong(), ((TimerStretch - 1) * len).toLong).toInt

  /** A query's stream, generated from `seed`. TIMER's generator ignores the
    * seed, so its stream starts at a seed-chosen offset into a longer
    * generated stream, renumbered to t = 1, 2, … (SAP relies on t being the
    * arrival index). The generator's period is a tenth of its length, so
    * every offset yields two whole periods: the same work in every seed.
    */
  def stream(dataset: String, len: Int, seed: Long): Array[Event] = dataset match {
    case "TIMER" =>
      val long = StreamData.TimeR.generate((TimerStretch * len).toInt, seed)
      val off = timerPhase(seed, len)
      Array.tabulate(len)(i => Event(i + 1L, long(off + i).score))
    case other => StreamData.byName(other).generate(len, seed)
  }
}

object Digest {
  /** FNV-1a over (score, t) of a best-first answer, as `SlideRunner` does. */
  def of(res: Array[Event]): Long = {
    var d = 1469598103934665603L
    var i = 0
    while (i < res.length) {
      d ^= java.lang.Double.doubleToLongBits(res(i).score) + res(i).t
      d *= 1099511628211L
      i += 1
    }
    d
  }
}

/** Machine-wide hypervisor steal ticks from /proc/stat (0 where absent). */
object Steal {
  def ticks(): Long =
    try {
      val src = scala.io.Source.fromFile("/proc/stat")
      try src.getLines().next().trim.split("\\s+").lift(8).map(_.toLong).getOrElse(0L)
      finally src.close()
    } catch { case _: Exception => 0L }
}
