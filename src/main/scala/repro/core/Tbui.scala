package repro.core

import scala.collection.mutable.ArrayBuffer

/** Summary the TBUI algorithm keeps per unit in the list L_i (§4.3):
  * `top` holds U_v^k (best-first) while the unit is a (potential) k-unit,
  * or just the top-1 after the unit is demoted to a non-k-unit. The bounds
  * are arrival sequence numbers of the unit's objects, [startSeq, endSeq).
  */
final class UnitSummary(
    val startSeq: Long,
    val endSeq: Long, // exclusive
    var kUnit: Boolean,
    var top: Array[Event],
) extends Serializable {
  def demote(): Unit = if (kUnit) { kUnit = false; top = top.take(1) }
  def minTop: Event = top(top.length - 1)
  def memoryBytes: Long = top.length.toLong * ContinuousTopK.HeapSlotBytes + 32L
}

/** TBUI — threshold-based k-unit identification (§4.3, Algorithm 2).
  *
  * Maintains a self-adaptive threshold τ and, per unit, the set U_τ of
  * scores above τ. At each unit boundary:
  *
  *  - τ was (re-)initialized during this unit (flag set): the unit's |U_τ|
  *    was measured against its own scores, which says nothing about its
  *    predecessor — record the unit as a k-unit, demote nothing, clear the
  *    flag. (This is the Fig. 7 behaviour on downtrends: U8 and U9
  *    re-initialize τ and U7/U8 keep their k-unit labels.)
  *  - |U_τ| ≥ k: by Theorem 2 the *previous* unit cannot be a k-unit (both
  *    units have ≥ k objects above the same τ) — demote it to top-1.
  *  - |U_τ| < k: scores trend downward; the previous unit stays a k-unit
  *    and τ re-initializes starting with the next unit.
  *
  * Mid-unit, |U_τ| > max(2ζ*, ζmax) signals an uptrend: τ is raised to the
  * ζ*-th highest score of U_τ (the med-search step) and the flag is set.
  * During initialization (flag set), τ is raised whenever U_τ reaches 2ζ*.
  *
  * Demotions are threshold decisions only — they never affect correctness
  * (UBSA's unit skipping re-checks every summary against Fθ); they bound
  * how much of L_i is retained and how much of each unit is re-scanned.
  */
final class Tbui(k: Int) extends Serializable {
  private val zetaStar = Wrt.zetaStar(k)
  private val zetaMax = Wrt.zetaMax(k)
  private val midUnitCap = math.max(2 * zetaStar, zetaMax)

  private var tau = Double.NegativeInfinity // admits every score until the first raise
  private var flag = true // threshold (re-)initialization in progress
  private var uTau = new ArrayBuffer[Double]()

  /** Most recent unit summary (demotion target), possibly belonging to an
    * earlier partition — Theorem 2 does not depend on partition boundaries.
    */
  private var last: UnitSummary = _

  def onObject(score: Double): Unit = {
    if (score >= tau) {
      uTau += score
      if (flag && uTau.length == 2 * zetaStar) raiseTau()
      else if (!flag && uTau.length > midUnitCap) { raiseTau(); flag = true }
    }
  }

  private def raiseTau(): Unit = {
    // med-search: τ becomes the ζ*-th highest of U_τ; keep strictly-above.
    val sorted = uTau.toArray
    java.util.Arrays.sort(sorted)
    tau = sorted(sorted.length - zetaStar)
    uTau = uTau.filter(_ > tau)
  }

  /** Close the unit of arrivals [startSeq, endSeq); `topDesc` is its top-k, best-first. */
  def completeUnit(topDesc: Array[Event], startSeq: Long, endSeq: Long): UnitSummary = {
    if (flag) {
      flag = false // initialization completed within this unit
    } else if (uTau.length >= k) {
      if (last != null) last.demote() // Theorem 2: previous is a non-k-unit
    } else {
      flag = true // downtrend: re-initialize τ from the next unit on
      tau = Double.NegativeInfinity
    }
    val summary = new UnitSummary(startSeq, endSeq, kUnit = true, topDesc)
    last = summary
    uTau = new ArrayBuffer[Double]()
    summary
  }

  /** Current threshold (test observability). */
  def threshold: Double = tau
}
