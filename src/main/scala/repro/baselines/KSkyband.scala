package repro.baselines

import repro.core._

/** One-pass k-skyband baseline [Shen et al., ICDE'12], as reviewed in §2.1.
  *
  * Every arriving object enters the candidate set C with dominance count 0.
  * An arrival o_in increments D(o) of every candidate with a lower score
  * (o_in arrives later, so it dominates all of them); candidates reaching
  * D(o) = k are pruned — k later-and-better objects outlive them. Expiry
  * removes the object from C if still present. C always contains the true
  * top-k of the window.
  *
  * Incremental cost is O(log|C| + n_d) per arrival where n_d is the number
  * of dominated candidates — the linear-in-n worst case (anti-correlated
  * streams like TIMER) the paper attacks.
  */
final class KSkyband(val query: TopKQuery) extends ContinuousTopK {
  private val cand = new ScoreTree
  // The window's objects in arrival order, for O(1) expiry; entries pruned
  // from the tree are skipped lazily when they reach the front.
  private val fifo = new java.util.ArrayDeque[Event]()

  override def processSlide(events: Array[Event]): Option[Array[Event]] = {
    require(events.length == query.s)
    var i = 0
    while (i < events.length) { arrive(events(i)); i += 1 }
    while (fifo.size > query.n) {
      val e = fifo.pollFirst()
      cand.delete(e.score, e.t) // may be absent if already pruned
    }
    if (fifo.size < query.n) None
    else {
      val out = new Array[Event](query.k)
      var j = 0
      cand.foreachDescendingWhile { n => out(j) = n.event; j += 1; j < query.k }
      Some(out)
    }
  }

  private def arrive(e: Event): Unit = {
    // D of every candidate below (score, t) grows by one; pruned at k.
    cand.refine(Array(e), query.k)
    fifo.addLast(e)
  }

  override def candidateCount: Int = cand.size
  override def memoryBytes: Long = cand.size.toLong * ContinuousTopK.TreeNodeBytes
}
