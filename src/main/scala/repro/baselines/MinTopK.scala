package repro.baselines

import repro.core._
import scala.collection.mutable

/** MinTopK baseline [Yang et al., EDBT'11], as reviewed in §2.1.
  *
  * The window W_c (current) overlaps the m = n/s future windows
  * W_c .. W_{c+m-1}. For each of them MinTopK maintains the predicted
  * result set R_i: the top-k among the objects of W_i that have already
  * arrived. A new arrival belongs to every active window, so it is offered
  * to all m predicted sets; an object kept by none is discarded — that is
  * the lbp-table filtering of the paper. The maintained candidate set C is
  * the union ∪R_i, tracked here by reference counts.
  *
  * When slide c+m-1 completes, W_c is fully observed: R_c *is* its top-k.
  * It is emitted, its heap dropped, and an empty predicted set is opened
  * for W_{c+m}.
  *
  * Per-arrival cost is Θ(m) = Θ(n/s) heap offers — the s-sensitivity
  * (slow when s ≪ n, competitive when s is a large fraction of n) that
  * every experiment in the paper probes.
  */
final class MinTopK(val query: TopKQuery) extends ContinuousTopK {
  import query.{k, m, s}

  // Predicted sets for the active windows, oldest first; up to m of them.
  private val sets = new java.util.ArrayDeque[TopKBuffer]()
  // t -> number of predicted sets containing the object; |C| = refs.size.
  private val refs = new mutable.HashMap[Long, Int]()
  private var slidesSeen = 0L

  private def incRef(t: Long): Unit = refs.updateWith(t) { case c => Some(c.getOrElse(0) + 1) }
  private def decRef(t: Long): Unit = refs.updateWith(t) {
    case Some(1) | None => None
    case Some(c)        => Some(c - 1)
  }

  override def processSlide(events: Array[Event]): Option[Array[Event]] = {
    require(events.length == s)
    // A predicted set opens for the newest window this slide belongs to.
    if (sets.size < m) sets.addLast(new TopKBuffer(k))
    var i = 0
    while (i < events.length) {
      val e = events(i)
      val it = sets.iterator()
      while (it.hasNext) {
        val ps = it.next()
        val full = ps.size == k
        val evictedT = if (full) ps.minT else 0L
        if (ps.offer(e.score, e.t)) {
          incRef(e.t)
          if (full) decRef(evictedT)
        }
      }
      i += 1
    }
    slidesSeen += 1
    if (slidesSeen < m) None
    else {
      // Oldest window is now fully observed: emit and retire it.
      val done = sets.pollFirst()
      val res = done.toDescendingArray
      res.foreach(e => decRef(e.t))
      sets.addLast(new TopKBuffer(k))
      Some(res)
    }
  }

  override def candidateCount: Int = refs.size
  override def memoryBytes: Long =
    // The paper's MinTopK keeps one integrated sorted candidate list (each
    // union member once, with its window interval) plus the lbp table (one
    // pointer per predicted window). Our per-window heaps physically
    // duplicate members — a simulation artifact (DESIGN.md §7.4) that the
    // structural memory model deliberately does not charge.
    refs.size.toLong * ContinuousTopK.TreeNodeBytes + sets.size.toLong * 16L
}
