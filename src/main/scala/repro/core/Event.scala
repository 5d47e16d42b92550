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

/** A continuous top-k query ⟨n, k, s, F⟩ over a count-based sliding window.
  *
  * @param n window size (number of objects)
  * @param k number of results
  * @param s slide size (objects that arrive/expire per slide)
  */
final case class TopKQuery(n: Int, k: Int, s: Int) extends Serializable {
  require(n > 0 && k > 0 && s > 0, s"bad query n=$n k=$k s=$s")
  require(k <= n, s"k=$k must be <= n=$n")
  require(n % s == 0, s"slide s=$s must divide window n=$n")

  /** Number of slides covering one window. */
  def m: Int = n / s
}
