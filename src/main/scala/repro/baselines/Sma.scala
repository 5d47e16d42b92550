package repro.baselines

import repro.core._
import scala.collection.mutable.ArrayBuffer

/** SMA multi-pass baseline [Mouratidis et al., SIGMOD'06], as reviewed in
  * §2.1.
  *
  * Maintains a candidate set C of up to k_max = 2k objects (the top-k′ of
  * the window with dominated entries pruned). A grid indexes every live
  * window object — here a 1-D score histogram, the specialization of SMA's
  * attribute-space grid to a scalar preference score. When expiries shrink
  * C below k, the window is re-scanned: the grid is walked from the highest
  * score bucket down, only as many cells as needed to re-fill C with the
  * top-k_max objects (dominated ones removed) — the grid-guided partial
  * re-scan of the paper.
  *
  * Per slide, the arrivals enter C, then C drops every entry stamped up to
  * the leaving slide's last stamp (`ScoreTree.expireThrough`), then a C of
  * fewer than k entries is re-filled by a re-scan.
  *
  * The experiments' expected behaviour: cheap arrivals, but frequent
  * re-scans whenever scores trend downward (TIMER), and a grid maintenance
  * cost independent of s.
  */
final class Sma(val query: TopKQuery) extends ContinuousTopK {
  import query.{k, m, n, s}
  private val kmax = 2 * k
  private val buckets = 1024 // cells of the score grid

  private val cand = new ScoreTree
  private val grid = Array.fill(buckets)(new ArrayBuffer[Event]())
  private var gridEntries = 0L
  private var lo = Double.NaN
  private var hi = Double.NaN
  // Last stamp of each of the window's m slides, at slide number mod m.
  private val slideEnds = new Array[Long](m)
  private var slides = 0L
  private var rescanCount = 0L

  /** Number of grid-guided re-scans performed (test observability). */
  def rescans: Long = rescanCount

  @inline private def bucketOf(score: Double): Int = {
    if (lo.isNaN || hi <= lo) 0
    else {
      val b = ((score - lo) / (hi - lo) * buckets).toInt
      math.max(0, math.min(buckets - 1, b))
    }
  }

  override def processSlide(events: Array[Event]): Option[Array[Event]] = {
    require(events.length == s)
    if (lo.isNaN) {
      lo = events.map(_.score).min
      hi = events.map(_.score).max + 1e-9
    }
    var i = 0
    while (i < events.length) { arrive(events(i)); i += 1 }
    // Objects stamped up to `cutoff` have left the window: the slide that
    // arrived m slides ago, if any, leaves it now.
    val slot = (slides % m).toInt
    val cutoff = if (slides >= m) slideEnds(slot) else Long.MinValue
    slideEnds(slot) = events(s - 1).t
    slides += 1
    if (slides > m) cand.expireThrough(cutoff)
    // Amortized grid compaction: drop expired entries once per window span.
    if (gridEntries > 2L * n) compact(cutoff)
    if (slides < m) None
    else {
      if (cand.size < k) { rescan(cutoff); rescanCount += 1 }
      val out = new Array[Event](k)
      var j = 0
      cand.foreachDescendingWhile { nd => out(j) = nd.event; j += 1; j < k }
      Some(out)
    }
  }

  private def arrive(e: Event): Unit = {
    grid(bucketOf(e.score)) += e
    gridEntries += 1
    val mn = cand.minNode
    // Yi-et-al top-k′ view invariant [26]: C is always the exact top-|C| of
    // the live window (minus dominance-pruned entries, which can never be
    // results). Inserting an arrival *below* min(C) — even when C is
    // underfull — would break the invariant and admit wrong answers.
    if (cand.size == 0 || Event.gt(e.score, e.t, mn.score, mn.t)) {
      // Dominance bookkeeping within C, as in the k-skyband insert.
      cand.refine(Array(e), k)
      if (cand.size > kmax) cand.popMin()
    }
  }

  /** Re-fill C with the k-skyband of the window's top-k_max objects,
    * walking grid buckets from the top score down.
    */
  private def rescan(cutoff: Long): Unit = {
    val collected = new ArrayBuffer[Event]()
    var b = buckets - 1
    while (b >= 0 && collected.length < 2 * kmax) {
      val cell = grid(b)
      var i = 0
      while (i < cell.length) {
        val e = cell(i)
        if (e.t > cutoff) collected += e
        i += 1
      }
      b -= 1
    }
    val sorted = collected.sorted(Event.desc).take(kmax).toArray
    cand.clear()
    // Keep only entries dominated by fewer than k better-and-later objects.
    var i = 0
    while (i < sorted.length) {
      val e = sorted(i)
      var dom = 0
      var j = 0
      while (j < i) { if (sorted(j).t > e.t) dom += 1; j += 1 }
      if (dom < k) cand.insert(e.score, e.t, dom = dom)
      i += 1
    }
  }

  private def compact(cutoff: Long): Unit = {
    gridEntries = 0L
    var b = 0
    while (b < buckets) {
      val kept = grid(b).filter(_.t > cutoff)
      grid(b) = kept
      gridEntries += kept.length
      b += 1
    }
  }

  override def candidateCount: Int = cand.size
  override def memoryBytes: Long =
    cand.size.toLong * ContinuousTopK.TreeNodeBytes +
      gridEntries * ContinuousTopK.HeapSlotBytes
}
