package repro.core

/** Time-based sliding windows (Appendix A): the slide is a time interval,
  * so each slide carries a *variable* number of objects (possibly zero) and
  * the window is the last `windowSlides` slides. Event stamps `t` increase
  * strictly across the stream; they break score ties.
  *
  * Protocol: call `processSlide` once per elapsed slide interval with the
  * batch of objects that arrived during it; after `windowSlides` calls each
  * call returns the top-(≤k) of the window.
  */
trait TimeBasedTopK extends Serializable {
  def k: Int
  def windowSlides: Int
  def processSlide(batch: Array[Event]): Option[Array[Event]]
}

/** Ground truth: keep the raw slides, re-select per slide. */
final class TimeBasedBruteForce(val k: Int, val windowSlides: Int) extends TimeBasedTopK {
  private val slides = new java.util.ArrayDeque[Array[Event]]()

  override def processSlide(batch: Array[Event]): Option[Array[Event]] = {
    slides.addLast(batch)
    if (slides.size > windowSlides) slides.pollFirst()
    if (slides.size < windowSlides) None
    else {
      val buf = new TopKBuffer(k)
      slides.forEach(b => b.foreach(e => buf.offer(e.score, e.t)))
      Some(buf.toDescendingArray)
    }
  }
}

/** SAP under time-based windows (Appendix A): the [[Sap]] engine with a
  * variable number of objects per slide, equal partitions of
  * `slidesPerPartition` consecutive slides (so partitions align with slide
  * expiry, as in the count-based case) and delayed exact meaningful-set
  * formation. Windows holding fewer than k objects answer with all of them.
  */
final class TimeBasedSap(val k: Int, val windowSlides: Int,
                         slidesPerPartitionOpt: Option[Int] = None) extends TimeBasedTopK {
  private val slidesPerPartition: Int =
    slidesPerPartitionOpt.getOrElse(
      math.max(1, math.ceil(windowSlides / math.ceil(math.sqrt(windowSlides.toDouble))).toInt))

  // Of its query the engine uses k, and n as the ring's first capacity (the
  // ring grows with the window); window and unit sizes are given in slides,
  // and a partitioner whose units never join makes every unit a partition.
  private val sap = new Sap(TopKQuery(k, k, k), new EqualPartitioner(1), Formation.DelayedExact,
    windowSlides, slidesPerPartition, fixedSlides = false)

  override def processSlide(batch: Array[Event]): Option[Array[Event]] = sap.processSlide(batch)
}
