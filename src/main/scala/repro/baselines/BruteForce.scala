package repro.baselines

import repro.core._

/** Exact per-slide recomputation: keeps the last m slides and, once m
  * slides have arrived, selects the top-k of them by a full scan on every
  * slide. O(n log k) per slide, for a window of n objects.
  *
  * This is the ground-truth oracle every other algorithm is tested against,
  * under count-based and time-based windows alike; it is not one of the
  * paper's competitors.
  */
final class BruteForce(val query: WindowQuery) extends ContinuousTopK {
  private val slides = new java.util.ArrayDeque[Array[Event]]()

  override def processSlide(events: Array[Event]): Option[Array[Event]] = {
    val s = query.slideSize
    require(s < 0 || events.length == s, s"slide must have s=$s events")
    slides.addLast(events.clone())
    if (slides.size > query.m) slides.pollFirst()
    if (slides.size < query.m) None
    else {
      val buf = new TopKBuffer(query.k)
      slides.forEach(_.foreach(e => buf.offer(e.score, e.t)))
      Some(buf.toDescendingArray)
    }
  }

  override def candidateCount: Int = 0
  override def memoryBytes: Long = 0L
}
