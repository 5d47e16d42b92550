package repro.core

/** A streaming object: arrival stamp `t` and preference score `score` (the
  * paper's F(o)).
  *
  * Stamps must increase strictly along a stream, and scores must not be
  * NaN; every algorithm needs nothing more, since each counts arrivals
  * itself and uses `t` only to order and tell apart objects. `SlideRunner`
  * and the Spark operators feed streams through `ContinuousTopK.feed`,
  * which rejects anything else.
  *
  * Ordering everywhere in this codebase is by the composite key
  * (score, t): `a` beats `b` iff `a.score > b.score`, ties broken by later
  * arrival (`gt`; `0.0` and `-0.0` are one score). This matches the
  * paper's strict dominance `o′ ≺ o` iff `F(o) < F(o′) ∧ o.t ≤ o′.t` while
  * making all comparisons total.
  */
final case class Event(t: Long, score: Double) extends Serializable

object Event {
  /** True iff `a` is strictly greater than `b` under (score, t). */
  @inline def gt(aScore: Double, aT: Long, bScore: Double, bT: Long): Boolean =
    aScore > bScore || (aScore == bScore && aT > bT)

  /** Descending (best-first) ordering on events, by `gt`. */
  val desc: Ordering[Event] = Ordering.fromLessThan((a, b) => gt(a.score, a.t, b.score, b.t))
}

/** A continuous top-k query over a sliding window of the last `m` slides.
  * An algorithm answers once m slides have arrived, with the window's top-k
  * best-first.
  */
sealed trait WindowQuery extends Serializable {
  def k: Int

  /** Number of slides covering one window. */
  def m: Int

  /** Objects per slide: s of a count-based query, −1 for a time-based one. */
  private[repro] def slideSize: Int
}

/** A continuous top-k query ⟨n, k, s, F⟩ over a count-based sliding window:
  * every slide holds exactly s objects, so the first answer comes once
  * m = n/s slides, n objects, have arrived.
  *
  * @param n window size (number of objects)
  * @param k number of results
  * @param s slide size (objects that arrive/expire per slide)
  */
final case class TopKQuery(n: Int, k: Int, s: Int) extends WindowQuery {
  require(n > 0 && k > 0 && s > 0, s"bad query n=$n k=$k s=$s")
  require(k <= n, s"k=$k must be <= n=$n")
  require(n % s == 0, s"slide s=$s must divide window n=$n")

  def m: Int = n / s

  private[repro] def slideSize: Int = s
}

/** A continuous top-k query over a time-based sliding window (Appendix A):
  * a slide is a time interval, so it holds any number of objects, none
  * included. A window holding fewer than k objects answers with all of
  * them.
  *
  * @param m window size (number of slides)
  * @param k number of results
  */
final case class TimeQuery(m: Int, k: Int) extends WindowQuery {
  require(m > 0 && k > 0, s"bad query m=$m k=$k")

  private[repro] def slideSize: Int = -1
}
