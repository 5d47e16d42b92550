package repro.stream

import repro.core.{ContinuousTopK, Event, TopKQuery}

/** Result of driving one algorithm over one stream.
  *
  * `cpuNanos` is the driving thread's CPU time — the reported metric. The
  * benchmarks run on shared cloud hardware where the hypervisor steals the
  * CPU for seconds at a time (observed via /proc/stat `steal`); wall-clock
  * cells would randomly inflate 10–100×. Thread CPU time is immune to
  * steal and is the honest cost of a single-threaded maintenance loop.
  */
final case class RunMetrics(
    algo: String,
    dataset: String,
    query: TopKQuery,
    cpuNanos: Long,
    avgCandidates: Double,
    peakCandidates: Int,
    avgMemoryBytes: Double,
    peakMemoryBytes: Long,
    resultDigest: Long,
    windows: Long,
) {
  def seconds: Double = cpuNanos / 1e9
  def memoryKb: Double = avgMemoryBytes / 1024.0
}

/** Drives a [[ContinuousTopK]] state machine over a full stream, slide by
  * slide through `ContinuousTopK.feed` (which rejects NaN scores and
  * stamps that do not increase strictly), and collects the paper's three
  * metrics: running time of the maintenance loop (thread CPU), average
  * candidate-set size, and structural memory. A digest over all emitted results lets benches assert that
  * every algorithm in a table cell produced identical answers.
  */
object SlideRunner {

  def run(makeAlgo: TopKQuery => ContinuousTopK, algoName: String,
          dataset: String, events: Array[Event], q: TopKQuery): RunMetrics = {
    val algo = makeAlgo(q)
    var digest = 1469598103934665603L // FNV offset basis
    var candSum = 0.0
    var candPeak = 0
    var memSum = 0.0
    var memPeak = 0L
    var samples = 0L
    var windows = 0L

    val cpuBean = java.lang.management.ManagementFactory.getThreadMXBean
    val c0 = cpuBean.getCurrentThreadCpuTime
    ContinuousTopK.feed(algo, events, Long.MinValue, s"$algoName on $dataset", 0L) { answer =>
      answer.foreach { res =>
        windows += 1
        var i = 0
        while (i < res.length) {
          digest ^= java.lang.Double.doubleToLongBits(res(i).score) + res(i).t
          digest *= 1099511628211L
          i += 1
        }
      }
      val c = algo.candidateCount
      val m = algo.memoryBytes
      candSum += c; if (c > candPeak) candPeak = c
      memSum += m; if (m > memPeak) memPeak = m
      samples += 1
    }
    val cpu = cpuBean.getCurrentThreadCpuTime - c0

    RunMetrics(algoName, dataset, q, cpu,
      if (samples > 0) candSum / samples else 0.0, candPeak,
      if (samples > 0) memSum / samples else 0.0, memPeak,
      digest, windows)
  }

  /** Run each factory and require every run to produce the same answers. */
  def runAllChecked(factories: Seq[(String, TopKQuery => ContinuousTopK)],
                    dataset: String, events: Array[Event],
                    q: TopKQuery): Seq[RunMetrics] = {
    val ms = factories.map { case (name, f) => run(f, name, dataset, events, q) }
    val digests = ms.map(_.resultDigest).distinct
    require(digests.size == 1,
      s"result divergence on $dataset/$q: " +
        ms.map(m => s"${m.algo}=${m.resultDigest}").mkString(", "))
    ms
  }
}
