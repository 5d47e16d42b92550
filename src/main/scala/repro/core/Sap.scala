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
  * The window is the last m slides and a unit is u whole slides. Under a
  * [[TimeQuery]] a slide carries any number of objects, as in the
  * time-based windows of Appendix A; a count-based [[TopKQuery]] ⟨n, k, s⟩
  * is the case of exactly s objects per slide, m = n/s. A time query takes
  * only an `EqualPartitioner(p)`, whose units are ⌈m/p⌉ slides and never
  * join, and runs every [[Formation]]. Ring slots, partition and unit
  * bounds and expiry cutoffs are positions in an internal arrival sequence
  * (1, 2, 3, …); an object's stamp `t` serves only as the tie-breaking half
  * of its (score, t) key, so stamps need only increase strictly.
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
    val query: WindowQuery,
    val partitioner: Partitioner,
    val formation: Formation = Formation.DelayedSAvl,
) extends ContinuousTopK {
  import query.k

  private val windowSlides = query.m
  private val unitSlides = Sap.unitSlides(query, partitioner)
  private val slideSize = query.slideSize

  /** A partition: arrival sequence numbers [startSeq, endSeq), its top-k
    * P^k best-first and, under TBUI, its units' summaries (UBSA's L_i). The
    * current partition grows a unit at a time; a finalized one no longer
    * changes.
    */
  private final class Part(val startSeq: Long, var topK: Array[Event]) extends Serializable {
    var endSeq: Long = startSeq
    val units = new ArrayBuffer[UnitSummary]()
    var meaningful: MeaningfulSet = _
    var prepared = false
    def minTop: Event = topK(topK.length - 1)
  }

  // A count window holds n = s·m objects; a time window's ring grows from k.
  private val ring = new WindowRing(math.max(k, slideSize * windowSlides))
  private val slideSizes = new Array[Int](windowSlides) // last m slides, at slide number mod m
  private val parts = new java.util.ArrayDeque[Part]()
  private val cand = new ScoreTree // C, with dominance counters

  private var cur: Part = _ // the current (still growing) partition, or null

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
    require(slideSize < 0 || events.length == slideSize,
      s"slide of ${events.length} events, expected s=$slideSize")
    // The slot of the slide that leaves now takes the arriving slide's size.
    val slot = (slides % windowSlides).toInt
    val cutoffNew = if (slides >= windowSlides) expired + slideSizes(slot) else 0L
    slideSizes(slot) = events.length
    slides += 1

    // 1. Expiry, before the arrivals overwrite the leaving slide's ring
    //    slots: prepare the front while C still holds it, delete the leaving
    //    objects from C by their keys in the ring, expire M_0 by stamp.
    if (cutoffNew > expired) {
      // With units of over half the window, the current partition can start
      // draining before the next unit completes: finalize it now.
      if (cur != null && cur.startSeq <= cutoffNew) finalizeCurrent()
      val front = parts.peekFirst()
      if (front != null && !front.prepared && front.startSeq <= cutoffNew)
        prepareFront(front)
      var j = ring.slot(cutoffNew)
      val lastT = ring.tAt(j)
      var seq = cutoffNew
      while (seq > expired) {
        cand.delete(ring.scoreAt(j), ring.tAt(j))
        j = ring.prevSlot(j)
        seq -= 1
      }
      if (front != null && front.meaningful != null) front.meaningful.expire(lastT)
      expired = cutoffNew
    }

    // 2. Process arrivals; a unit completes with its last slide.
    ring.reserve((arrivals + events.length - expired).toInt)
    var i = 0
    while (i < events.length) { arrive(events(i)); i += 1 }
    unitFill += 1
    if (unitFill == unitSlides) completeUnit()

    // 3. Drop the partitions that have drained.
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
    val topDesc = unitTop.toDescendingArray
    if (cur != null) query match {
      case q: TopKQuery =>
        val mergedTop = mergeTop(cur.topK, topDesc, k)
        val history = historyTopScores(q.n)
        val curSize = (cur.endSeq - cur.startSeq).toInt
        if (partitioner.join(q, curSize, mergedTop.map(_.score), history)) cur.topK = mergedTop
        else finalizeCurrent()
      case _: TimeQuery => finalizeCurrent() // its equal units never join
    }
    if (cur == null) cur = new Part(unitStartSeq, topDesc)
    cur.endSeq = arrivals + 1
    if (tbui != null) cur.units += tbui.completeUnit(topDesc, unitStartSeq, arrivals + 1)
    unitTop = new TopKBuffer(k)
    unitFill = 0
    unitStartSeq = arrivals + 1
  }

  /** Merge-&-refine (Fig. 4) of the current partition's P^k into C. */
  private def finalizeCurrent(): Unit = {
    val p = cur
    cur = null
    cand.refine(p.topK, k)
    parts.addLast(p)
    if (formation == Formation.EagerExact) {
      if (p.topK.nonEmpty) form(p, k, Double.NaN) // a time query's slides may be empty
      p.prepared = true
    }
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
    * not from p are those stamped after p's last object. NaN when fewer
    * than k objects came after p: no global bound, which prunes nothing,
    * not even a −∞ score that a time window of under k objects answers.
    */
  private def fThetaFor(p: Part): Double = {
    val pLastT = ring.tAt(ring.slot(p.endSeq - 1))
    if (pLastT == Long.MaxValue) return Double.NaN // nothing came after p
    val top = bestOf(k, pLastT + 1, later)
    if (top.length == k) top(k - 1).score else Double.NaN
  }

  /** Forms M_i of the delayed policies when the front `p` starts draining;
    * with ρ ≥ k none is needed (Lemma 1: R ⊆ C).
    */
  private def prepareFront(p: Part): Unit = {
    p.prepared = true
    val rho = rhoOf(p)
    if (rho < k) form(p, k - rho, fThetaFor(p))
  }

  /** Builds M_i of `p` with local bound `limit` and global bound `fTheta`.
    * "non-delay" forms it at finalize time with limit k and no Fθ (NaN): no
    * later-arriving candidates exist yet, so neither global pruning nor ρ
    * is available and the full k-skyband of P − P^k is kept. This is why
    * the paper's delay policy wins in Table 2.
    */
  private def form(p: Part, limit: Int, fTheta: Double): Unit = {
    val m: MeaningfulSet =
      if (formation == Formation.DelayedSAvl) new SAvl(limit, fTheta)
      else new ExactSkybandSet(limit, fTheta)
    if (partitioner.useTbui && formation == Formation.DelayedSAvl)
      ubsaScan(p, m, fTheta)
    else
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
        if (!(u.top(0).score <= fTheta)) scanRange(p, u.endSeq - 1, u.startSeq, m) // NaN Fθ: no bound
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
        } else scanRange(p, u.endSeq - 1, u.startSeq, m)
      }
      ui -= 1
    }
  }

  // --------------------------------------------------------------- answers

  /** Top-k of C ∪ P_cur^k ∪ U_cur^k ∪ M_0 (Lemma 1); the whole window when
    * it holds fewer than k objects.
    */
  private def answer(): Array[Event] = {
    val front = parts.peekFirst()
    val m0 =
      if (front != null && front.meaningful != null) front.meaningful.collectTop(k)
      else Array.empty[Event]
    val out = bestOf(k, Long.MinValue, mergeTop(later, m0, k))
    if (out.length < k && arrivals - expired >= k)
      throw new IllegalStateException(s"candidate underflow: only ${out.length} of $k results available")
    out
  }

  /** P_cur^k merged with U_cur^k: the best k objects that arrived after
    * every finalized partition.
    */
  private def later: Array[Event] =
    mergeTop(if (cur == null) Array.empty else cur.topK, unitTop.toDescendingArray, k)

  /** The best `limit` of C's entries stamped at or after `fromT`, merged
    * with `tops` (best-first, disjoint from C), best-first: one descending
    * co-walk that stops once `limit` entries are out.
    */
  private def bestOf(limit: Int, fromT: Long, tops: Array[Event]): Array[Event] = {
    val out = new Array[Event](limit)
    var n = 0
    var ti = 0
    cand.foreachDescendingWhile { node =>
      if (node.t >= fromT) {
        while (n < limit && ti < tops.length &&
               Event.gt(tops(ti).score, tops(ti).t, node.score, node.t)) {
          out(n) = tops(ti); n += 1; ti += 1
        }
        if (n < limit) { out(n) = node.event; n += 1 }
      }
      n < limit
    }
    while (n < limit && ti < tops.length) { out(n) = tops(ti); n += 1; ti += 1 }
    if (n == limit) out else java.util.Arrays.copyOf(out, n)
  }

  // --------------------------------------------------------------- metrics

  override def candidateCount: Int = {
    var m0 = 0
    val it = parts.iterator()
    while (it.hasNext) {
      val p = it.next()
      if (p.meaningful != null) m0 += p.meaningful.size
    }
    cand.size + curTopSize + unitTop.size + m0
  }

  override def memoryBytes: Long = {
    var bytes =
      (cand.size + curTopSize + unitTop.size).toLong * ContinuousTopK.TreeNodeBytes
    val it = parts.iterator()
    while (it.hasNext) {
      val p = it.next()
      if (p.meaningful != null) bytes += p.meaningful.memoryBytes
      bytes += p.topK.length.toLong * ContinuousTopK.HeapSlotBytes
      val ui = p.units.iterator
      while (ui.hasNext) bytes += ui.next().memoryBytes
    }
    bytes
  }

  private def curTopSize: Int = if (cur == null) 0 else cur.topK.length

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

  /** Top-ηk candidate scores within the lookback interval I (§4.2) of a
    * count window of `n` objects: the newest n − |P′| arrivals, where
    * P′ = P_cur ∪ U_cur spans the arrivals from `cur.startSeq` on.
    */
  private def historyTopScores(n: Int): Array[Double] = {
    val pPrime = arrivals + 1 - cur.startSeq
    val minSeq = arrivals + 1 - math.min(n - pPrime, arrivals)
    if (minSeq > arrivals) Array.empty
    else bestOf(Wrt.etaK(k), ring.tAt(ring.slot(minSeq)), Array.empty).map(_.score)
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
  /** Slides per unit. A count-based query's unit must be a multiple of s,
    * at least max(s, k) and at most n (§4); a time-based query's unit under
    * `EqualPartitioner(p)` is ⌈m/p⌉ slides.
    */
  private def unitSlides(q: WindowQuery, p: Partitioner): Int = (q, p) match {
    case (q: TopKQuery, _) =>
      val unitSz = p.unitSize(q)
      require(unitSz % q.s == 0 && unitSz >= math.max(q.s, q.k) && unitSz <= q.n,
        s"unit size $unitSz violates structural constraints (s=${q.s} k=${q.k} n=${q.n})")
      unitSz / q.s
    case (q: TimeQuery, p: EqualPartitioner) => (q.m + p.m - 1) / p.m
    case (q: TimeQuery, _) =>
      throw new IllegalArgumentException(s"$q takes only an EqualPartitioner, not ${p.getClass.getSimpleName}")
  }
}
