package repro.core

/** Common interface of every continuous top-k algorithm in this repo.
  *
  * Driving protocol, for a window of the last m slides (`query`):
  *  - feed the stream in arrival order via `processSlide`, one slide at a
  *    time: exactly s events for a count-based [[TopKQuery]] ⟨n, k, s⟩
  *    (the harness slices the stream), any number for a [[TimeQuery]];
  *  - once m slides have arrived, each call returns the current window's
  *    top-k, best-first (all of it when it holds fewer than k objects);
  *    before that it returns None.
  *
  * Implementations are single-threaded mutable state machines; they are
  * Serializable so the Structured Streaming operator can persist them as
  * per-group state between micro-batches.
  */
trait ContinuousTopK extends Serializable {
  def query: WindowQuery

  /** Process one slide of events in arrival order. */
  def processSlide(events: Array[Event]): Option[Array[Event]]

  /** Current number of maintained candidates (the paper's |C| metric).
    * Sampled by the harness right after each slide.
    */
  def candidateCount: Int

  /** Structural memory estimate in bytes (see DESIGN.md §6). */
  def memoryBytes: Long
}

object ContinuousTopK {
  /** Per-entry byte costs of the structural memory model. */
  val TreeNodeBytes  = 48L // key (16) + 2 child refs + height/size/dom + header
  val HeapSlotBytes  = 16L // (score, t) slot in a primitive heap array
  val StackSlotBytes = 24L // (score, t) + back-reference in an S-AVL stack

  /** Cuts `events` into whole slides of `algo.query.s`, feeds them to
    * `algo` in order and passes each slide's answer to `f`; returns the
    * number of events fed (the rest is a partial slide). A time-based
    * query has no slide size to cut by, so it throws an
    * IllegalArgumentException.
    *
    * `SlideRunner` and the Spark operators feed every stream through here,
    * so it also enforces the input contract: a NaN score or a stamp not
    * above the one before it (`lastT` before the first event) throws an
    * IllegalArgumentException naming `query`, the window the event first
    * belongs to (`wid` windows were answered before `events`) and the
    * stamp. The slides before the offending one are fed.
    */
  def feed(algo: ContinuousTopK, events: Array[Event], lastT: Long,
           query: String, wid: Long)(f: Option[Array[Event]] => Unit): Int = {
    val s = algo.query.slideSize
    require(s > 0, s"$query: ${algo.query} has slides of any size, which only processSlide takes")
    val usable = (events.length / s) * s
    var last = lastT
    var windows = wid
    var off = 0
    while (off < usable) {
      var i = off
      while (i < off + s) {
        val e = events(i)
        require(!e.score.isNaN, s"$query, window ${windows + 1}: NaN score at stamp ${e.t}")
        require(e.t > last, s"$query, window ${windows + 1}: stamp ${e.t} does not follow stamp $last")
        last = e.t
        i += 1
      }
      val res = algo.processSlide(java.util.Arrays.copyOfRange(events, off, off + s))
      if (res.isDefined) windows += 1
      f(res)
      off += s
    }
    usable
  }
}
