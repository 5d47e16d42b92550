package repro.core

/** Fixed-capacity ring buffer over the last `capacity` appended events,
  * assuming events are appended in arrival order t = 1, 2, 3, …
  *
  * Shared by algorithms that need access to the raw window: brute force
  * re-selection and SAP's meaningful-set formation scans.
  */
final class WindowRing(val capacity: Int) extends Serializable {
  private val ts = new Array[Long](capacity)
  private val scores = new Array[Double](capacity)
  private var n = 0L // total appended

  def append(e: Event): Unit = {
    val i = (n % capacity).toInt
    ts(i) = e.t; scores(i) = e.score
    n += 1
  }

  /** Number of retained events (≤ capacity). */
  def count: Int = math.min(n, capacity.toLong).toInt

  def foreach(f: Event => Unit): Unit = {
    val c = count
    val start = n - c
    var j = 0L
    while (j < c) {
      val i = ((start + j) % capacity).toInt
      f(Event(ts(i), scores(i)))
      j += 1
    }
  }

  /** Event by absolute arrival order t (must still be retained). */
  def at(t: Long): Event = {
    val i = slot(t)
    Event(ts(i), scores(i))
  }

  /** Storage slot of arrival order t (must still be retained), for scans
    * that read `scoreAt` and step with `prevSlot`.
    */
  def slot(t: Long): Int = {
    require(t > n - count && t <= n, s"t=$t outside retained window (last=$n, kept=$count)")
    ((t - 1) % capacity).toInt
  }

  /** Slot of the arrival just before the one in slot `i`. */
  @inline def prevSlot(i: Int): Int = if (i == 0) capacity - 1 else i - 1

  @inline def scoreAt(slot: Int): Double = scores(slot)

  /** Latest arrival order appended so far. */
  def lastT: Long = n
}
