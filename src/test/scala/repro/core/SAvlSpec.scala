package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

/** S-AVL structure invariants and completeness vs a naive k-skyband. */
class SAvlSpec extends AnyFunSuite {

  /** Feed a partition (reverse arrival order) into a fresh S-AVL. */
  private def build(events: Array[Event], limit: Int, fTheta: Double): SAvl = {
    val s = new SAvl(limit, fTheta)
    events.sortBy(e => -e.t).foreach(e => s.insert(e.score, e.t))
    s
  }

  private def randomEvents(n: Int, seed: Int): Array[Event] = {
    val rnd = new Random(seed)
    Array.tabulate(n)(i => Event(i + 1L, rnd.nextDouble() * 100 + 1e-9 * i))
  }

  /** Naive bounded k-skyband: o survives iff fewer than `limit` later
    * objects beat it and its score beats fTheta.
    */
  private def naiveSkyband(events: Array[Event], limit: Int, fTheta: Double): Set[Long] =
    events.filter { o =>
      o.score > fTheta &&
        events.count(o2 => o2.t > o.t && o2.score > o.score) < limit
    }.map(_.t).toSet

  for (seed <- 1 to 10; limit <- Seq(1, 3, 8)) {
    test(s"no false negatives vs naive k-skyband (seed=$seed limit=$limit)") {
      val events = randomEvents(120, seed)
      val fTheta = 40.0
      val s = build(events, limit, fTheta)
      assert(s.invariantsHold)
      val kept = s.collectTop(s.size).map(_.t).toSet
      val naive = naiveSkyband(events, limit, fTheta)
      // The S-AVL may keep false positives (stack tops only approximate the
      // dominator count) but must never lose a true skyband object.
      assert(naive.subsetOf(kept),
        s"missing skyband objects: ${naive.diff(kept)}")
      // Everything kept passed the global filter.
      assert(s.collectTop(s.size).forall(_.score > fTheta))
    }
  }

  /** S-AVL as §5.1 states it, with no tops index: each insert scans every
    * top and pushes onto the greatest one below the object, or opens a new
    * stack while fewer than `limit` exist. Stacks are best-first lists.
    */
  private final class LinearSAvl(limit: Int, fTheta: Double) {
    val stacks = scala.collection.mutable.ArrayBuffer[List[Event]]()

    def insert(score: Double, t: Long): Boolean = {
      if (score <= fTheta) return false
      val below = stacks.indices.filter(i => Event.gt(score, t, stacks(i).head.score, stacks(i).head.t))
      if (below.nonEmpty) {
        val i = below.maxBy(i => stacks(i).head)(Event.desc.reverse)
        stacks(i) = Event(t, score) :: stacks(i)
        true
      } else if (stacks.length < limit) { stacks += List(Event(t, score)); true }
      else false
    }

    /** The tops descend in stack creation order, so the stack array can
      * serve as the tops index (true until the first expiry).
      */
    def topsDescend: Boolean = {
      val tops = stacks.map(_.head)
      tops.zip(tops.drop(1)).forall { case (a, b) => Event.gt(a.score, a.t, b.score, b.t) }
    }

    def expire(minT: Long): Unit =
      for (i <- stacks.indices) stacks(i) = stacks(i).dropWhile(_.t <= minT)

    def all: Seq[Event] = stacks.toSeq.flatten.sorted(Event.desc)
  }

  for (seed <- 1 to 20) {
    // The stack array is the tops index: the bisection over it must pick the
    // stack a scan over every top picks.
    test(s"tops index holds exactly the stack tops after every insert and expire, tied scores (seed=$seed)") {
      val rnd = new Random(seed)
      val n = 300
      // scores from a small pool, so equal scores are frequent
      val events = Array.tabulate(n)(i => Event(i + 1L, rnd.nextInt(25).toDouble))
      val limit = 1 + rnd.nextInt(10)
      val fTheta = if (rnd.nextBoolean()) Double.NegativeInfinity else 5.0
      val s = new SAvl(limit, fTheta)
      val model = new LinearSAvl(limit, fTheta)
      def sameAsModel(when: String): Unit = {
        assert(s.invariantsHold, when)
        assert(s.stackCount == model.stacks.length, when)
        assert(s.collectTop(s.size).toSeq == model.all, when)
      }
      var t = n
      while (t >= 1) {
        val e = events(t - 1)
        assert(s.insert(e.score, e.t) == model.insert(e.score, e.t), s"verdict on $e")
        sameAsModel(s"after insert of $e")
        assert(model.topsDescend, s"after insert of $e")
        t -= 1
      }
      var minT = 0
      while (minT < n) {
        val next = math.min(n, minT + 1 + rnd.nextInt(30))
        s.expire(next.toLong)
        model.expire(next.toLong)
        minT = next
        sameAsModel(s"after expiry up to t=$minT")
      }
      assert(s.size == 0)
    }
  }

  test("stack count never exceeds the limit") {
    for (limit <- Seq(1, 2, 5, 20)) {
      val s = build(randomEvents(300, 42), limit, Double.NegativeInfinity)
      assert(s.stackCount <= limit)
      assert(s.invariantsHold)
    }
  }

  test("collectTop returns entries best-first") {
    val s = build(randomEvents(200, 7), 6, Double.NegativeInfinity)
    val top = s.collectTop(50)
    assert(top.sliding(2).forall {
      case Array(a, b) => Event.gt(a.score, a.t, b.score, b.t)
      case _           => true
    })
  }

  test("expiry pops exactly the slid-out prefix and keeps the rest reachable") {
    val events = randomEvents(150, 9)
    val s = build(events, 5, Double.NegativeInfinity)
    val before = s.collectTop(s.size).map(_.t).toSet
    val minT = 60L
    s.expire(minT)
    val after = s.collectTop(s.size).map(_.t).toSet
    assert(after == before.filter(_ > minT))
    assert(s.invariantsHold)
    assert(s.size == after.size)
  }

  test("monotone decreasing partitions fill a single deep stack per slot") {
    // Anti-correlated: every object dominated only by the (later) smaller?
    // No — decreasing scores mean later objects are smaller, so nothing is
    // dominated: every object is a skyband object and all must be kept.
    val events = Array.tabulate(50)(i => Event(i + 1L, 1000.0 - i))
    val s = build(events, 3, Double.NegativeInfinity)
    assert(s.size == 50, s"all objects are k-skyband on a downtrend, kept=${s.size}")
  }

  test("monotone increasing partitions keep only the top `limit`") {
    // Increasing scores: object i is dominated by all later objects.
    val events = Array.tabulate(50)(i => Event(i + 1L, i.toDouble))
    val s = build(events, 3, Double.NegativeInfinity)
    assert(s.size == 3)
    assert(s.collectTop(3).map(_.score).toSeq == Seq(49.0, 48.0, 47.0))
  }

  for (seed <- 1 to 10) {
    test(s"ExactSkybandSet after every expire equals the naive k-skyband of the surviving objects, tied scores (seed=$seed)") {
      val rnd = new Random(seed)
      val n = 300
      // gapped stamps, scores from a small pool so equal scores are frequent
      val events = Array.tabulate(n)(i => Event(10L * (i + 1), rnd.nextInt(25).toDouble))
      val limit = 1 + rnd.nextInt(10)
      val fTheta = if (rnd.nextBoolean()) Double.NaN else 5.0
      val m = new ExactSkybandSet(limit, fTheta)
      events.reverseIterator.foreach(e => m.insert(e.score, e.t))
      val lastT = events(n - 1).t
      var minT = 0L
      while (minT < lastT) {
        minT = math.min(lastT, minT + 1 + rnd.nextInt(300))
        m.expire(minT)
        val live = events.filter(_.t > minT)
        val naive = live.filter { o =>
          !(o.score <= fTheta) &&
            live.count(o2 => o2.t > o.t && Event.gt(o2.score, o2.t, o.score, o.t)) < limit
        }
        assert(m.collectTop(m.size).toSeq == naive.sorted(Event.desc).toSeq, s"after expiry up to t=$minT")
        assert(m.size == naive.length, s"after expiry up to t=$minT")
      }
      assert(m.size == 0)
    }
  }

  test("ExactSkybandSet equals the naive k-skyband exactly") {
    for (seed <- 1 to 5) {
      val events = randomEvents(150, seed + 100)
      val limit = 4; val fTheta = 30.0
      val m = new ExactSkybandSet(limit, fTheta)
      events.sortBy(e => -e.t).foreach(e => m.insert(e.score, e.t))
      val kept = m.collectTop(m.size).map(_.t).toSet
      assert(kept == naiveSkyband(events, limit, fTheta))
    }
  }
}
