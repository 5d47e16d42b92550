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

/** The SAP framework (§3, Algorithm 1) as a state machine over slides.
  *
  * The window is the last m slides and a unit is u whole slides. A slide
  * may carry any number of objects, as in the time-based windows of
  * Appendix A; a count-based query ⟨n, k, s⟩ is the case of exactly s
  * objects per slide, m = n/s. Ring slots, partition and unit bounds and
  * expiry cutoffs are positions in an internal arrival sequence (1, 2, 3,
  * …); an object's stamp `t` serves only as the tie-breaking half of its
  * (score, t) key, so stamps need only increase strictly.
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
final class Sap private[core] (
    val query: TopKQuery,
    val partitioner: Partitioner,
    val formation: Formation,
    windowSlides: Int,
    unitSlides: Int,
    fixedSlides: Boolean, // every slide holds exactly query.s objects
) extends ContinuousTopK {
  import query.k

  /** Count-based window ⟨n, k, s⟩: m = n/s slides of exactly s objects and
    * units of `partitioner.unitSize(query)` objects.
    */
  def this(query: TopKQuery, partitioner: Partitioner,
           formation: Formation = Formation.DelayedSAvl) =
    this(query, partitioner, formation, query.m, Sap.unitSlides(query, partitioner),
      fixedSlides = true)

  require(unitSlides >= 1 && unitSlides <= windowSlides,
    s"a unit of $unitSlides slides does not fit a window of $windowSlides")

  /** A finalized partition: arrival sequence numbers [startSeq, endSeq). */
  private final class Part(val startSeq: Long, val endSeq: Long,
                           val topK: Array[Event],
                           val units: ArrayBuffer[UnitSummary]) extends Serializable {
    var meaningful: MeaningfulSet = _
    var prepared = false
    def minTop: Event = topK(topK.length - 1)
  }

  private val ring = new WindowRing(query.n)
  private val slideSizes = new Array[Int](windowSlides) // last m slides, at slide number mod m
  private val parts = new java.util.ArrayDeque[Part]()
  private val cand = new ScoreTree // C, with dominance counters

  // Current (still growing) partition; curSize == 0 when there is none.
  private var curStartSeq = 1L
  private var curSize = 0
  private var curTop: Array[Event] = Array.empty // P_cur^k, best-first
  private var curUnits = new ArrayBuffer[UnitSummary]()

  // Current (still filling) unit.
  private var unitStartSeq = 1L
  private var unitFill = 0 // slides
  private var unitTop = new TopKBuffer(k)

  private val tbui: Tbui = if (partitioner.useTbui) new Tbui(k) else null

  private var slides = 0L
  private var arrivals = 0L // sequence number of the latest arrival
  private var expired = 0L // sequence number of the latest expired object
  private var formed = 0

  // ---------------------------------------------------------------- slides

  override def processSlide(events: Array[Event]): Option[Array[Event]] = {
    require(!fixedSlides || events.length == query.s,
      s"slide of ${events.length} events, expected s=${query.s}")
    // The slot of the slide that leaves now takes the arriving slide's size.
    val slot = (slides % windowSlides).toInt
    val cutoffNew = if (slides >= windowSlides) expired + slideSizes(slot) else 0L
    slideSizes(slot) = events.length
    slides += 1

    // 1. Prepare the partition that starts draining this slide *before* its
    //    objects are overwritten in the ring or removed from C.
    var outgoing: Array[Event] = null
    if (cutoffNew > expired) {
      // With units of over half the window, the current partition can start
      // draining before the next unit completes: finalize it now.
      if (curSize > 0 && curStartSeq <= cutoffNew) finalizeCurrent()
      val front = parts.peekFirst()
      if (front != null && !front.prepared && front.startSeq <= cutoffNew)
        prepareFront(front)
      outgoing = new Array[Event]((cutoffNew - expired).toInt)
      var j = 0
      var seq = expired + 1
      while (seq <= cutoffNew) { outgoing(j) = ring.at(seq); j += 1; seq += 1 }
    }

    // 2. Process arrivals; a unit completes with its last slide.
    ring.reserve((arrivals + events.length - cutoffNew).toInt)
    var i = 0
    while (i < events.length) { arrive(events(i)); i += 1 }
    unitFill += 1
    if (unitFill == unitSlides) completeUnit()

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
        front.meaningful.expire(outgoing, outgoing(outgoing.length - 1).t)
      expired = cutoffNew
    }
    while (!parts.isEmpty && parts.peekFirst().endSeq - 1 <= expired)
      parts.pollFirst()

    // 4. Answer.
    if (slides < windowSlides) None else Some(answer())
  }

  private def arrive(e: Event): Unit = {
    ring.append(e)
    arrivals += 1
    unitTop.offer(e.score, e.t)
    if (tbui != null) tbui.onObject(e.score)
  }

  // ----------------------------------------------------------------- units

  private def completeUnit(): Unit = {
    val unitSize = (arrivals + 1 - unitStartSeq).toInt
    val topDesc = unitTop.toDescendingArray
    val summary =
      if (tbui != null) tbui.completeUnit(topDesc, unitStartSeq, arrivals + 1)
      else new UnitSummary(unitStartSeq, arrivals + 1, kUnit = true, topDesc)

    if (curSize == 0) {
      adoptUnitAsNewPartition(topDesc, summary, unitSize)
    } else {
      val mergedTop = mergeTop(curTop, topDesc, k)
      val history = historyTopScores((curUnits.length + 1) * unitSlides)
      if (partitioner.join(query, curSize, mergedTop.map(_.score), history)) {
        curTop = mergedTop
        curSize += unitSize
        curUnits += summary
      } else {
        finalizeCurrent()
        adoptUnitAsNewPartition(topDesc, summary, unitSize)
      }
    }
    unitTop = new TopKBuffer(k)
    unitFill = 0
    unitStartSeq = arrivals + 1
  }

  private def adoptUnitAsNewPartition(topDesc: Array[Event], summary: UnitSummary,
                                      unitSize: Int): Unit = {
    curStartSeq = summary.startT
    curTop = topDesc
    curSize = unitSize
    curUnits = new ArrayBuffer[UnitSummary]()
    curUnits += summary
  }

  /** Merge-&-refine (Fig. 4): fold the finalized partition's P^k into C in
    * one ascending co-walk, bumping the dominance counters of existing
    * candidates below each new one and removing those reaching k.
    */
  private def finalizeCurrent(): Unit = {
    val p = new Part(curStartSeq, curStartSeq + curSize, curTop, curUnits)
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

  /** Fθ (Lemma 2): k-th highest candidate score outside the front
    * partition `p` — i.e. among C entries not from p, plus the current
    * partition/unit tops (all of which arrived after p and therefore
    * outlive it). Earlier partitions have expired from C, so the entries
    * not from p are those stamped after p's last object.
    */
  private def fThetaFor(p: Part): Double = {
    val pLastT = ring.at(p.endSeq - 1).t
    val later = mergeTop(curTop, unitTop.toDescendingArray, k)
    var count = 0
    var kth = Double.NegativeInfinity
    var li = 0
    var done = false
    // co-walk C (descending, skipping p's own candidates) with `later`
    cand.foreachDescendingWhile { node =>
      if (node.t > pLastT) {
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
      scanRange(p, p.endSeq - 1, p.startSeq, m)
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
    scanRange(p, p.endSeq - 1, p.startSeq, m)
    p.meaningful = m
    formed += 1
  }

  /** Reverse-arrival-order scan of sequence numbers [lowSeq, highSeq] ⊆ `p`
    * from the ring, feeding every object of P − P^k into `m`. Keys are
    * unique, so an object of `p` is in P^k exactly when its key is at least
    * min(P^k).
    */
  private def scanRange(p: Part, highSeq: Long, lowSeq: Long, m: MeaningfulSet): Unit = {
    val mn = p.minTop
    ring.slot(lowSeq) // bounds check of the low end
    var i = ring.slot(highSeq)
    var seq = highSeq
    while (seq >= lowSeq) {
      val score = ring.scoreAt(i)
      val t = ring.tAt(i)
      if (Event.gt(mn.score, mn.t, score, t)) m.insert(score, t)
      i = ring.prevSlot(i)
      seq -= 1
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

  /** Top-k of C ∪ P_cur^k ∪ U_cur^k ∪ M_0 (Lemma 1); the whole window when
    * it holds fewer than k objects.
    */
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
      if (best == null) {
        if (arrivals - expired >= k)
          throw new IllegalStateException(s"candidate underflow: only $filled of $k results available")
        return java.util.Arrays.copyOf(out, filled)
      }
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
    while (it.hasNext) { val p = it.next(); out += (p.endSeq - p.startSeq).toInt }
    out.toSeq
  }

  // ---------------------------------------------------------------- helpers

  /** Top-ηk candidate scores within the lookback interval I (§4.2): the
    * window after this slide less the oldest `pPrimeSlides` slides, the
    * span of P′ = P_cur ∪ U_cur.
    */
  private def historyTopScores(pPrimeSlides: Int): Array[Double] = {
    // first sequence number of the newest m − |P′| slides
    var minSeq = arrivals + 1
    var j = 0L
    while (j < windowSlides - pPrimeSlides && j < slides) {
      minSeq -= slideSizes(((slides - 1 - j) % windowSlides).toInt)
      j += 1
    }
    val want = Wrt.etaK(k)
    val out = new ArrayBuffer[Double](want)
    if (minSeq <= arrivals) {
      val minT = ring.at(minSeq).t
      cand.foreachDescendingWhile { node =>
        if (node.t >= minT) out += node.score
        out.length < want
      }
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

object Sap {
  /** Slides per unit of a count-based query; the unit must be a multiple
    * of s, at least max(s, k) and at most n (§4).
    */
  private def unitSlides(q: TopKQuery, p: Partitioner): Int = {
    val unitSz = p.unitSize(q)
    require(unitSz % q.s == 0 && unitSz >= math.max(q.s, q.k) && unitSz <= q.n,
      s"unit size $unitSz violates structural constraints (s=${q.s} k=${q.k} n=${q.n})")
    unitSz / q.s
  }
}
