package repro.core

import scala.collection.mutable.ArrayBuffer

/** Holds the meaningful object set M_i of the front partition: the objects
  * of P_i − P_i^k that might still become results while P_i drains.
  *
  * Construction protocol (both implementations): feed objects in strictly
  * decreasing arrival order via `insert`; the structure applies the global
  * pruning (score ≤ Fθ) and its local pruning internally. After
  * construction, `onExpiry`/`pruneExpired` drop entries as the window start
  * advances, and `collectTop` yields the best surviving entries.
  */
trait MeaningfulSet extends Serializable {
  /** Feed the next object of the reverse-arrival scan. True if retained. */
  def insert(score: Double, t: Long): Boolean

  /** Remove entries that have slid out: everything with t <= minT. The
    * exact events leaving this slide are also provided for keyed deletion.
    */
  def expire(outgoing: Array[Event], minT: Long): Unit

  /** Currently retained (live) entries. */
  def size: Int

  /** Up to `maxCount` best live entries, best-first. */
  def collectTop(maxCount: Int): Array[Event]

  def memoryBytes: Long
}

/** M_i as an exact bounded k-skyband kept in a single balanced tree —
  * the "Algo 1 without S-AVL" formation of Table 2. Admission: an object is
  * kept iff its score beats Fθ (global pruning, Lemma 2) and fewer than
  * `limit` = k − ρ already-scanned (hence later-arriving) objects beat it
  * (local pruning via an O(log) rank query).
  */
final class ExactSkybandSet(limit: Int, fTheta: Double) extends MeaningfulSet {
  private val tree = new ScoreTree

  override def insert(score: Double, t: Long): Boolean = {
    if (score <= fTheta) return false
    if (tree.countGreater(score, t) >= limit) return false
    tree.insert(score, t)
    true
  }

  override def expire(outgoing: Array[Event], minT: Long): Unit = {
    var i = 0
    while (i < outgoing.length) {
      val e = outgoing(i)
      tree.delete(e.score, e.t)
      i += 1
    }
  }

  override def size: Int = tree.size

  override def collectTop(maxCount: Int): Array[Event] = {
    val out = new ArrayBuffer[Event](math.min(maxCount, tree.size))
    tree.foreachDescendingWhile { n => out += n.event; out.length < maxCount }
    out.toArray
  }

  override def memoryBytes: Long = tree.size.toLong * ContinuousTopK.TreeNodeBytes
}

/** The paper's S-AVL structure (§5.1): at most `limit` = k − ρ stacks plus
  * a balanced index over the stack tops.
  *
  * Objects are fed in decreasing arrival order. Within each stack, scores
  * increase toward the top and arrival orders decrease toward the top
  * (conditions i and ii of §5.1) — so each stack's top is both its best
  * entry and its earliest-expiring entry, which makes expiry a sequence of
  * pops. An object is pushed onto the stack with the *largest* top smaller
  * than it (so the tops index never needs reordering); if no stack
  * qualifies and all `limit` stacks exist, the object is dominated by at
  * least `limit` later objects plus the ρ candidates counted globally — a
  * guaranteed non-k-skyband, pruned.
  */
final class SAvl(limit: Int, fTheta: Double) extends MeaningfulSet {
  private final class Stack extends Serializable {
    // Push/pop at the end: scores ascend, arrival orders descend toward end.
    val scores = new ArrayBuffer[Double]()
    val ts = new ArrayBuffer[Long]()
    def nonEmpty: Boolean = scores.nonEmpty
    def depth: Int = scores.length
    def topScore: Double = scores(scores.length - 1)
    def topT: Long = ts(ts.length - 1)
    def push(s: Double, t: Long): Unit = { scores += s; ts += t }
    def pop(): Unit = { scores.remove(scores.length - 1); ts.remove(ts.length - 1) }
  }

  private val stacks = new ArrayBuffer[Stack]()
  // Index over stack tops; node.tag = stack index.
  private val tops = new ScoreTree
  private var live = 0

  override def insert(score: Double, t: Long): Boolean = {
    if (score <= fTheta) return false
    val below = tops.lowerNode(score, t)
    if (below != null) {
      // The new top lies between `below` and the next top, so the index
      // node keeps its position: update its key in place.
      stacks(below.tag).push(score, t)
      tops.rekey(below, score, t)
      live += 1
      true
    } else if (stacks.length < limit) {
      val st = new Stack
      st.push(score, t)
      stacks += st
      tops.insert(score, t, tag = stacks.length - 1)
      live += 1
      true
    } else false // dominated by all `limit` stack tops (plus ρ candidates)
  }

  override def expire(outgoing: Array[Event], minT: Long): Unit = {
    // Expired entries are exactly prefixes of the stacks (tops expire
    // first): pop while the top has slid out of the window.
    var si = 0
    while (si < stacks.length) {
      val st = stacks(si)
      var popped = false
      while (st.nonEmpty && st.topT <= minT) {
        tops.delete(st.topScore, st.topT)
        st.pop()
        live -= 1
        popped = true
      }
      if (popped && st.nonEmpty) tops.insert(st.topScore, st.topT, tag = si)
      si += 1
    }
  }

  override def size: Int = live

  /** k-way merge over the stacks, walking each from its top downward
    * (descending score within a stack). After `expire`, every retained
    * entry is live, so no t-filtering is needed here.
    */
  override def collectTop(maxCount: Int): Array[Event] = {
    if (live == 0 || maxCount == 0) return Array.empty
    // heap entries: (score, t, stackIdx, depthFromTop)
    val pq = new java.util.PriorityQueue[(Double, Long, Int, Int)](
      math.max(1, stacks.length),
      (a: (Double, Long, Int, Int), b: (Double, Long, Int, Int)) => {
        if (a._1 != b._1) java.lang.Double.compare(b._1, a._1)
        else java.lang.Long.compare(b._2, a._2)
      }
    )
    var si = 0
    while (si < stacks.length) {
      val st = stacks(si)
      if (st.nonEmpty) pq.add((st.topScore, st.topT, si, st.depth - 1))
      si += 1
    }
    val out = new ArrayBuffer[Event](math.min(maxCount, live))
    while (out.length < maxCount && !pq.isEmpty) {
      val (s, t, idx, pos) = pq.poll()
      out += Event(t, s)
      if (pos > 0) {
        val st = stacks(idx)
        pq.add((st.scores(pos - 1), st.ts(pos - 1), idx, pos - 1))
      }
    }
    out.toArray
  }

  /** Number of stacks currently allocated (test observability). */
  def stackCount: Int = stacks.length

  /** Invariant check used by tests: within every stack, scores strictly
    * ascend and arrival orders strictly descend toward the top; and the
    * tops index holds exactly the current stack tops, in ascending key
    * order, each tagged with its stack and reachable by key search.
    */
  def invariantsHold: Boolean = stacks.forall { st =>
    (1 until st.depth).forall { i =>
      st.scores(i) > st.scores(i - 1) ||
        (st.scores(i) == st.scores(i - 1) && st.ts(i) > st.ts(i - 1))
    } && (1 until st.depth).forall(i => st.ts(i) < st.ts(i - 1))
  } && topsIndexHolds

  private def topsIndexHolds: Boolean = {
    val indexed = new ArrayBuffer[(Double, Long, Int)]()
    tops.foreachAscending(n => indexed += ((n.score, n.t, n.tag)))
    val expected = stacks.indices.filter(si => stacks(si).nonEmpty)
      .map(si => (stacks(si).topScore, stacks(si).topT, si))
      .sortWith((a, b) => Event.gt(b._1, b._2, a._1, a._2))
    indexed == expected && expected.forall { case (s, t, _) => tops.find(s, t) != null }
  }

  override def memoryBytes: Long =
    live.toLong * ContinuousTopK.StackSlotBytes +
      stacks.length.toLong * ContinuousTopK.TreeNodeBytes
}
