package repro.core

import scala.collection.mutable.ArrayBuffer

/** Holds the meaningful object set M_i of the front partition: the objects
  * of P_i − P_i^k that might still become results while P_i drains.
  *
  * Construction protocol (both implementations): feed objects in strictly
  * decreasing arrival order via `insert`; the structure applies the global
  * pruning (score ≤ Fθ; none when Fθ is NaN) and its local pruning
  * internally. After construction, `expire` drops entries as the window
  * start advances (no `insert` follows it), and `collectTop` yields the
  * best surviving entries.
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

/** The paper's S-AVL structure (§5.1): at most `limit` = k − ρ stacks,
  * whose tops the paper indexes with an AVL tree.
  *
  * Objects are fed in decreasing arrival order. Within each stack, scores
  * increase toward the top and arrival orders decrease toward the top
  * (conditions i and ii of §5.1) — so each stack's top is both its best
  * entry and its earliest-expiring entry, which makes expiry a sequence of
  * pops. An object is pushed onto the stack with the *largest* top smaller
  * than it, so the new top still lies between its neighbours' tops; a new
  * stack opens only for an object below every top. Hence while objects are
  * inserted the tops descend in stack order, and the stack array itself is
  * the tops index: `insert` finds its stack by bisection, O(log(k − ρ)).
  * If no stack qualifies and all `limit` stacks exist, the object is
  * dominated by at least `limit` later objects plus the ρ candidates counted
  * globally — a guaranteed non-k-skyband, pruned.
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

  // In creation order; tops descend in this order until the first `expire`.
  private val stacks = new ArrayBuffer[Stack]()
  private var live = 0

  override def insert(score: Double, t: Long): Boolean = {
    if (score <= fTheta) return false
    // first stack whose top is below (score, t)
    var lo = 0; var hi = stacks.length
    while (lo < hi) {
      val mid = (lo + hi) >>> 1
      val st = stacks(mid)
      if (Event.gt(score, t, st.topScore, st.topT)) hi = mid else lo = mid + 1
    }
    if (lo < stacks.length) stacks(lo).push(score, t)
    else if (stacks.length < limit) { val st = new Stack; st.push(score, t); stacks += st }
    else return false // dominated by all `limit` stack tops (plus ρ candidates)
    live += 1
    true
  }

  /** Pop every top stamped ≤ `minT`: the expired entries are exactly
    * prefixes of the stacks (tops expire first). No insert follows.
    */
  override def expire(outgoing: Array[Event], minT: Long): Unit = {
    var si = 0
    while (si < stacks.length) {
      val st = stacks(si)
      while (st.nonEmpty && st.topT <= minT) { st.pop(); live -= 1 }
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
      (a: (Double, Long, Int, Int), b: (Double, Long, Int, Int)) =>
        if (Event.gt(a._1, a._2, b._1, b._2)) -1 else if (Event.gt(b._1, b._2, a._1, a._2)) 1 else 0
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
    * ascend and arrival orders strictly descend toward the top.
    */
  def invariantsHold: Boolean = stacks.forall { st =>
    (1 until st.depth).forall { i =>
      st.scores(i) > st.scores(i - 1) ||
        (st.scores(i) == st.scores(i - 1) && st.ts(i) > st.ts(i - 1))
    } && (1 until st.depth).forall(i => st.ts(i) < st.ts(i - 1))
  }

  // one tree node per stack models the paper's index over the tops
  override def memoryBytes: Long =
    live.toLong * ContinuousTopK.StackSlotBytes +
      stacks.length.toLong * ContinuousTopK.TreeNodeBytes
}
