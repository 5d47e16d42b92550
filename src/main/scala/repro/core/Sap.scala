package repro.core

import scala.collection.mutable.ArrayBuffer

/** Meaningful-set formation policy — the rows of Table 2. */
sealed trait Formation extends Serializable
object Formation {
  /** "non-delay": build M_i for *every* partition as soon as it is
    * finalized. No global pruning is available then (all other candidates
    * arrived earlier and may expire first), so these sets are large.
    */
  case object EagerExact extends Formation

  /** "Algo 1": delay formation until the partition is about to drain, then
    * re-scan it into an exact bounded k-skyband tree (no S-AVL).
    */
  case object DelayedExact extends Formation

  /** "Algo 1 + S-AVL": delayed formation into the S-AVL structure (§5.1);
    * with a TBUI-enabled partitioner the UBSA unit-skipping construction
    * (§5.2) is used.
    */
  case object DelayedSAvl extends Formation
}

/** The SAP framework (§3, Algorithm 1).
  *
  * The window is partitioned into sub-windows built from units, as decided
  * by the pluggable [[Partitioner]]. Per finalized partition we retain the
  * top-k snapshot P_i^k; the candidate set C (a dominance-counted tree) is
  * the merge of all P_i^k with removable candidates refined away (Fig. 4).
  * When a partition is about to become the draining front, its group
  * dominance number ρ (Definition 1) is read off the dominance counter of
  * min(P_i^k) in C; if ρ < k its meaningful object set M_i is formed by the
  * configured [[Formation]] policy (Lemma 2 pruning). The per-slide answer
  * is the top-k of C ∪ P_cur^k ∪ U_cur^k ∪ M_0 (Lemma 1).
  */
final class Sap(
    val query: TopKQuery,
    val partitioner: Partitioner,
    val formation: Formation = Formation.DelayedSAvl,
) extends ContinuousTopK {
  import query.{k, n, s}

  private val unitSz = partitioner.unitSize(query)
  require(unitSz % s == 0 && unitSz >= math.max(s, k) && unitSz <= n,
    s"unit size $unitSz violates structural constraints (s=$s k=$k n=$n)")

  /** A finalized partition. */
  private final class Part(val startT: Long, val endT: Long,
                           val topK: Array[Event],
                           val units: ArrayBuffer[UnitSummary]) extends Serializable {
    var meaningful: MeaningfulSet = _
    var prepared = false
    def minTop: Event = topK(topK.length - 1)
  }

  private val ring = new WindowRing(n)
  private val parts = new java.util.ArrayDeque[Part]()
  private val cand = new ScoreTree // C, with dominance counters

  // Current (still growing) partition.
  private var curStartT = 1L
  private var curSize = 0
  private var curTop: Array[Event] = Array.empty // P_cur^k, best-first
  private var curUnits = new ArrayBuffer[UnitSummary]()

  // Current (still filling) unit.
  private var unitStartT = 1L
  private var unitFill = 0
  private var unitTop = new TopKBuffer(k)

  private val tbui: Tbui = if (partitioner.useTbui) new Tbui(k) else null

  private var arrivals = 0L
  private var formed = 0

  // ---------------------------------------------------------------- slides

  override def processSlide(events: Array[Event]): Option[Array[Event]] = {
    require(events.length == s)
    val cutoffNew = arrivals + s - n // post-slide window start − 1

    // 1. Prepare the partition that starts draining this slide *before* its
    //    objects are overwritten in the ring or removed from C.
    var outgoing: Array[Event] = null
    if (cutoffNew > 0) {
      val front = parts.peekFirst()
      if (front != null && !front.prepared && front.startT <= cutoffNew)
        prepareFront(front)
      val cutoffOld = math.max(0L, arrivals - n)
      outgoing = new Array[Event]((cutoffNew - cutoffOld).toInt)
      var j = 0
      var t = cutoffOld + 1
      while (t <= cutoffNew) { outgoing(j) = ring.at(t); j += 1; t += 1 }
    }

    // 2. Process arrivals.
    var i = 0
    while (i < events.length) { arrive(events(i)); i += 1 }

    // 3. Expiry bookkeeping.
    if (outgoing != null) {
      val front = parts.peekFirst()
      var j = 0
      while (j < outgoing.length) {
        val e = outgoing(j)
        cand.delete(e.score, e.t)
        j += 1
      }
      if (front != null && front.meaningful != null)
        front.meaningful.expire(outgoing, cutoffNew)
      while (!parts.isEmpty && parts.peekFirst().endT - 1 <= cutoffNew)
        parts.pollFirst()
    }

    // 4. Answer.
    if (arrivals < n) None else Some(answer())
  }

  private def arrive(e: Event): Unit = {
    ring.append(e)
    arrivals += 1
    unitTop.offer(e.score, e.t)
    if (tbui != null) tbui.onObject(e.score)
    unitFill += 1
    if (unitFill == unitSz) completeUnit(e.t)
  }

  // ----------------------------------------------------------------- units

  private def completeUnit(lastT: Long): Unit = {
    val topDesc = unitTop.toDescendingArray
    val summary =
      if (tbui != null) tbui.completeUnit(topDesc, unitStartT, lastT + 1)
      else new UnitSummary(unitStartT, lastT + 1, kUnit = true, topDesc)

    if (curSize == 0) {
      adoptUnitAsNewPartition(topDesc, summary)
    } else {
      val mergedTop = mergeTop(curTop, topDesc, k)
      val history = historyTopScores(curSize + unitSz)
      if (partitioner.join(query, curSize, mergedTop.map(_.score), history)) {
        curTop = mergedTop
        curSize += unitSz
        curUnits += summary
      } else {
        finalizeCurrent()
        adoptUnitAsNewPartition(topDesc, summary)
      }
    }
    unitTop = new TopKBuffer(k)
    unitFill = 0
    unitStartT = lastT + 1
  }

  private def adoptUnitAsNewPartition(topDesc: Array[Event], summary: UnitSummary): Unit = {
    curStartT = summary.startT
    curTop = topDesc
    curSize = unitSz
    curUnits = new ArrayBuffer[UnitSummary]()
    curUnits += summary
  }

  /** Merge-&-refine (Fig. 4): fold the finalized partition's P^k into C in
    * one ascending co-walk, bumping the dominance counters of existing
    * candidates below each new one and removing those reaching k.
    */
  private def finalizeCurrent(): Unit = {
    val p = new Part(curStartT, curStartT + curSize, curTop, curUnits)
    val newAsc = p.topK.reverse
    val doomed = new ArrayBuffer[Event]()
    var j = 0
    cand.foreachAscending { node =>
      while (j < newAsc.length &&
             !Event.gt(newAsc(j).score, newAsc(j).t, node.score, node.t)) j += 1
      // everything in newAsc[j..] is strictly greater than this candidate
      node.dom += newAsc.length - j
      if (node.dom >= k) doomed += node.event
    }
    doomed.foreach(d => cand.delete(d.score, d.t))
    var i = 0
    while (i < newAsc.length) {
      cand.insert(newAsc(i).score, newAsc(i).t, dom = 0)
      i += 1
    }
    parts.addLast(p)
    if (formation == Formation.EagerExact) formEager(p)
    curSize = 0
    curUnits = new ArrayBuffer[UnitSummary]()
    curTop = Array.empty
  }

  // --------------------------------------------------------- M_i formation

  /** Group dominance number ρ of a partition (Definition 1): the dominance
    * counter of min(P^k) in C. If that candidate was already refined away,
    * at least k later-arriving candidates beat it — equivalent to ρ ≥ k.
    */
  private def rhoOf(p: Part): Int = {
    val mn = p.minTop
    val node = cand.find(mn.score, mn.t)
    if (node == null) k else math.min(k, node.dom)
  }

  /** Fθ (Lemma 2): k-th highest candidate score outside partition `p` —
    * i.e. among C entries not from p, plus the current partition/unit tops
    * (all of which arrived after p and therefore outlive it).
    */
  private def fThetaFor(p: Part): Double = {
    val later = mergeTop(curTop, unitTop.toDescendingArray, k)
    var count = 0
    var kth = Double.NegativeInfinity
    var li = 0
    var done = false
    // co-walk C (descending, skipping p's own candidates) with `later`
    cand.foreachDescendingWhile { node =>
      if (node.t < p.startT || node.t >= p.endT) {
        while (count < k && li < later.length &&
               Event.gt(later(li).score, later(li).t, node.score, node.t)) {
          count += 1; kth = later(li).score; li += 1
        }
        if (count < k) { count += 1; kth = node.score }
      }
      if (count >= k) { done = true; false } else true
    }
    if (!done) {
      while (count < k && li < later.length) { count += 1; kth = later(li).score; li += 1 }
    }
    if (count >= k) kth else Double.NegativeInfinity
  }

  private def prepareFront(p: Part): Unit = {
    p.prepared = true
    if (formation == Formation.EagerExact) return // formed at finalize time
    val rho = rhoOf(p)
    if (rho >= k) return // Lemma 1: R ⊆ C, no M needed
    val fTheta = fThetaFor(p)
    val limit = k - rho
    val m: MeaningfulSet = formation match {
      case Formation.DelayedExact => new ExactSkybandSet(limit, fTheta)
      case _                      => new SAvl(limit, fTheta)
    }
    if (partitioner.useTbui && formation == Formation.DelayedSAvl)
      ubsaScan(p, m, fTheta)
    else
      scanRange(p, p.endT - 1, p.startT, m)
    p.meaningful = m
    formed += 1
  }

  /** "non-delay": M is built at finalize time. No later-arriving candidates
    * exist yet, so neither global pruning (Fθ) nor ρ is available — the
    * full k-skyband of P − P^k is kept. This is exactly why the paper's
    * delay policy wins in Table 2.
    */
  private def formEager(p: Part): Unit = {
    val m = new ExactSkybandSet(k, Double.NegativeInfinity)
    scanRange(p, p.endT - 1, p.startT, m)
    p.meaningful = m
    formed += 1
  }

  /** Reverse-arrival-order scan of [lowT, highT] ⊆ `p` from the ring,
    * feeding every object of P − P^k into `m`. Keys are unique, so an
    * object of `p` is in P^k exactly when its key is at least min(P^k).
    */
  private def scanRange(p: Part, highT: Long, lowT: Long, m: MeaningfulSet): Unit = {
    val mn = p.minTop
    ring.slot(lowT) // bounds check of the low end
    var i = ring.slot(highT)
    var t = highT
    while (t >= lowT) {
      val score = ring.scoreAt(i)
      if (Event.gt(mn.score, mn.t, score, t)) m.insert(score, t)
      i = ring.prevSlot(i)
      t -= 1
    }
  }

  /** UBSA (§5.2): unit-skipping construction driven by the TBUI list L_i.
    * Units are visited newest-first (preserving the reverse-arrival order
    * the S-AVL requires):
    *  - non-k-unit with top-1 ≤ Fθ: the whole unit is globally pruned;
    *  - k-unit with min(U_v^k) < Fθ: only U_v^k can pass the global filter,
    *    so feeding the summary replaces scanning the unit;
    *  - otherwise the unit is scanned in full from the ring.
    */
  private def ubsaScan(p: Part, m: MeaningfulSet, fTheta: Double): Unit = {
    val mn = p.minTop
    var ui = p.units.length - 1
    while (ui >= 0) {
      val u = p.units(ui)
      if (!u.kUnit) {
        if (u.top(0).score > fTheta) scanRange(p, u.endT - 1, u.startT, m)
        // else: every object of the unit fails the global pruning — skip
      } else {
        if (u.minTop.score < fTheta) {
          // feed only U_v^k, in reverse arrival order
          val byTDesc = u.top.sortBy(e => -e.t)
          var i = 0
          while (i < byTDesc.length) {
            val e = byTDesc(i)
            if (Event.gt(mn.score, mn.t, e.score, e.t)) m.insert(e.score, e.t)
            i += 1
          }
        } else scanRange(p, u.endT - 1, u.startT, m)
      }
      ui -= 1
    }
  }

  // --------------------------------------------------------------- answers

  /** Top-k of C ∪ P_cur^k ∪ U_cur^k ∪ M_0 (Lemma 1). */
  private def answer(): Array[Event] = {
    val out = new Array[Event](k)
    var filled = 0

    val a = curTop
    val b = unitTop.toDescendingArray
    val front = parts.peekFirst()
    val mArr: Array[Event] =
      if (front != null && front.meaningful != null) front.meaningful.collectTop(k)
      else Array.empty
    var ai = 0; var bi = 0; var mi = 0

    // 4-way merge: C iterated lazily, the other three as arrays.
    val buf = new ArrayBuffer[Event](k)
    cand.foreachDescendingWhile { node =>
      buf += node.event
      buf.length < k
    }
    val c = buf.toArray
    var ci = 0

    while (filled < k) {
      var best: Event = null
      var src = -1
      if (ci < c.length) { best = c(ci); src = 0 }
      if (ai < a.length && (best == null || Event.gt(a(ai).score, a(ai).t, best.score, best.t))) { best = a(ai); src = 1 }
      if (bi < b.length && (best == null || Event.gt(b(bi).score, b(bi).t, best.score, best.t))) { best = b(bi); src = 2 }
      if (mi < mArr.length && (best == null || Event.gt(mArr(mi).score, mArr(mi).t, best.score, best.t))) { best = mArr(mi); src = 3 }
      if (best == null)
        throw new IllegalStateException(s"candidate underflow: only $filled of $k results available")
      src match {
        case 0 => ci += 1
        case 1 => ai += 1
        case 2 => bi += 1
        case 3 => mi += 1
      }
      out(filled) = best
      filled += 1
    }
    out
  }

  // --------------------------------------------------------------- metrics

  override def candidateCount: Int = {
    var m0 = 0
    val it = parts.iterator()
    while (it.hasNext) {
      val p = it.next()
      if (p.meaningful != null) m0 += p.meaningful.size
    }
    cand.size + curTop.length + unitTop.size + m0
  }

  override def memoryBytes: Long = {
    var bytes =
      (cand.size + curTop.length + unitTop.size).toLong * ContinuousTopK.TreeNodeBytes
    val it = parts.iterator()
    while (it.hasNext) {
      val p = it.next()
      if (p.meaningful != null) bytes += p.meaningful.memoryBytes
      bytes += p.topK.length.toLong * ContinuousTopK.HeapSlotBytes
      if (partitioner.useTbui) {
        val ui = p.units.iterator
        while (ui.hasNext) bytes += ui.next().memoryBytes
      }
    }
    bytes
  }

  /** Number of M_i sets formed so far (test observability). */
  def meaningfulFormed: Int = formed

  /** Sizes (object counts) of live finalized partitions, oldest first. */
  def partitionSizes: Seq[Int] = {
    val out = new ArrayBuffer[Int]()
    val it = parts.iterator()
    while (it.hasNext) { val p = it.next(); out += (p.endT - p.startT).toInt }
    out.toSeq
  }

  // ---------------------------------------------------------------- helpers

  /** Top-ηk candidate scores within the lookback interval I (§4.2). */
  private def historyTopScores(pPrimeSize: Int): Array[Double] = {
    val minT = arrivals - n + pPrimeSize + 1
    val want = Wrt.etaK(k)
    val out = new ArrayBuffer[Double](want)
    cand.foreachDescendingWhile { node =>
      if (node.t >= minT) out += node.score
      out.length < want
    }
    out.toArray
  }

  /** Merge two disjoint best-first arrays into the best `limit`. */
  private def mergeTop(a: Array[Event], b: Array[Event], limit: Int): Array[Event] = {
    val out = new Array[Event](math.min(limit, a.length + b.length))
    var i = 0; var j = 0; var o = 0
    while (o < out.length) {
      if (j >= b.length || (i < a.length && Event.gt(a(i).score, a(i).t, b(j).score, b(j).t)))
        { out(o) = a(i); i += 1 }
      else { out(o) = b(j); j += 1 }
      o += 1
    }
    out
  }
}
