package repro.core

/** Ring buffer over the most recently appended events, indexed by arrival
  * sequence number (1 for the first append, 2 for the next, …). Each entry
  * keeps its event's stamp `t`, which need not equal its sequence number.
  *
  * SAP's expiry and M_i formation read the raw window from it slot by
  * slot. A ring keeps its capacity unless `reserve` asks for more, so a
  * count-based window of n events never grows past n.
  */
final class WindowRing(initialCapacity: Int) extends Serializable {
  private var ts = new Array[Long](initialCapacity)
  private var scores = new Array[Double](initialCapacity)
  private var n = 0L // total appended
  private var kept = 0 // retained entries: sequence numbers n − kept + 1 .. n

  def append(e: Event): Unit = {
    val i = (n % ts.length).toInt
    ts(i) = e.t; scores(i) = e.score
    n += 1
    if (kept < ts.length) kept += 1
  }

  /** Grow, keeping every retained entry, so that the newest `retain`
    * entries fit; a ring that already holds `retain` entries is unchanged.
    */
  def reserve(retain: Int): Unit = if (retain > ts.length) {
    val cap = math.max(retain, 2 * ts.length)
    val newTs = new Array[Long](cap)
    val newScores = new Array[Double](cap)
    var seq = n - kept + 1
    while (seq <= n) {
      val from = slot(seq)
      val to = ((seq - 1) % cap).toInt
      newTs(to) = ts(from); newScores(to) = scores(from)
      seq += 1
    }
    ts = newTs; scores = newScores
  }

  /** Event by arrival sequence number (must still be retained); for perfbench. */
  def at(seq: Long): Event = {
    val i = slot(seq)
    Event(ts(i), scores(i))
  }

  /** Storage slot of arrival sequence number `seq` (must still be
    * retained), for scans that read `scoreAt`/`tAt` and step with `prevSlot`.
    */
  def slot(seq: Long): Int = {
    require(seq > n - kept && seq <= n, s"seq=$seq outside retained window (last=$n, kept=$kept)")
    ((seq - 1) % ts.length).toInt
  }

  /** Slot of the arrival just before the one in slot `i`. */
  @inline def prevSlot(i: Int): Int = if (i == 0) ts.length - 1 else i - 1

  @inline def scoreAt(slot: Int): Double = scores(slot)

  @inline def tAt(slot: Int): Long = ts(slot)

  /** Sequence number of the latest append (the number of appends so far). */
  def lastT: Long = n
}
