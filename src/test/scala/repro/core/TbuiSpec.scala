package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.stream.StreamData
import scala.collection.mutable.ArrayBuffer
import scala.util.Random

/** TBUI threshold transitions and k-unit labelling (§4.3, Fig. 7). */
class TbuiSpec extends AnyFunSuite {

  private def drive(scores: Array[Double], k: Int, lmin: Int): ArrayBuffer[UnitSummary] = {
    val tbui = new Tbui(k)
    val out = new ArrayBuffer[UnitSummary]()
    var top = new TopKBuffer(k)
    var fill = 0
    var start = 1L
    scores.zipWithIndex.foreach { case (s, i) =>
      val t = i + 1L
      tbui.onObject(s)
      top.offer(s, t)
      fill += 1
      if (fill == lmin) {
        out += tbui.completeUnit(top.toDescendingArray, start, t + 1)
        top = new TopKBuffer(k); fill = 0; start = t + 1
      }
    }
    out
  }

  test("stationary uniform scores: interior units get demoted to non-k-units") {
    val rnd = new Random(1)
    val k = 10; val lmin = 200
    val scores = Array.fill(lmin * 10)(rnd.nextDouble())
    val units = drive(scores, k, lmin)
    assert(units.length == 10)
    // On a stationary stream every unit except the most recent should be
    // demoted (each successor finds >= k objects above the shared τ).
    val demoted = units.dropRight(1).count(!_.kUnit)
    assert(demoted >= 7, s"only $demoted of 9 interior units demoted")
    units.filterNot(_.kUnit).foreach(u => assert(u.top.length == 1))
    units.filter(_.kUnit).foreach(u => assert(u.top.length == k))
  }

  test("downtrend boundary units keep their k-unit label (Fig. 7 behaviour)") {
    val rnd = new Random(2)
    val k = 10; val lmin = 200
    // 5 flat-high units, then 5 units of sharply decreasing scores.
    val flat = Array.fill(lmin * 5)(rnd.nextDouble() + 10.0)
    val down = Array.tabulate(lmin * 5)(i => 5.0 - i * (5.0 / (lmin * 5)) + rnd.nextDouble() * 0.001)
    val units = drive(flat ++ down, k, lmin)
    // The last flat unit precedes the collapse: when the first down unit
    // fails to produce k objects above τ, its predecessor must stay k-unit.
    assert(units(4).kUnit, "unit before the downtrend must stay a k-unit")
    // Downtrend units re-initialize τ and stay k-units too.
    assert(units.drop(5).count(_.kUnit) >= 3)
  }

  test("uptrend raises the threshold") {
    val rnd = new Random(3)
    val k = 10; val lmin = 300
    val tbui = new Tbui(k)
    Array.fill(lmin)(rnd.nextDouble()).foreach(tbui.onObject)
    val top = new TopKBuffer(k); top.offer(1.0, 1L)
    tbui.completeUnit(top.toDescendingArray, 1L, lmin + 1L)
    val tauLow = tbui.threshold
    Array.fill(lmin)(rnd.nextDouble() + 100.0).foreach(tbui.onObject)
    assert(tbui.threshold > tauLow + 50.0,
      s"uptrend should raise τ: ${tbui.threshold} vs $tauLow")
  }

  test("Theorem 2 soundness: a demoted unit has few k-skyband objects") {
    val rnd = new Random(4)
    val k = 5; val lmin = 100
    val scores = Array.fill(lmin * 8)(rnd.nextDouble())
    val units = drive(scores, k, lmin)
    val zetaMax = Wrt.zetaMax(k)
    units.zipWithIndex.filterNot(_._1.kUnit).foreach { case (u, idx) =>
      // Count unit objects not dominated by >= k later objects *within the
      // unit and its successor* — an upper bound on its k-skyband count.
      val span = scores.zipWithIndex
        .filter { case (_, i) => i + 1 >= u.startT && i + 1 < u.endT + lmin }
        .map { case (s, i) => Event(i + 1L, s) }
      val inUnit = span.filter(_.t < u.endT)
      val skyband = inUnit.count { o =>
        span.count(o2 => o2.t > o.t && o2.score > o.score) < k
      }
      assert(skyband <= zetaMax,
        s"demoted unit $idx has $skyband skybands > ζmax=$zetaMax")
    }
  }

  test("k-unit labels do not change when every score is shifted below zero, on every dataset") {
    val k = 50; val lmin = 600
    val changed = StreamData.all.flatMap { ds =>
      val scores = ds.generate(lmin * 100).map(_.score)
      val shift = math.abs(scores.max) + 1.0
      val labels = drive(scores, k, lmin).map(_.kUnit)
      val shifted = drive(scores.map(_ - shift), k, lmin).map(_.kUnit)
      if (shifted == labels) None
      else Some(s"${ds.name}: ${labels.count(identity)} k-units of ${labels.length}, " +
        s"${shifted.count(identity)} once shifted below zero")
    }
    assert(changed.isEmpty, changed.mkString("; "))
  }

  test("demotion truncates the summary to its top-1") {
    val u = new UnitSummary(1L, 10L, kUnit = true,
      Array(Event(5, 9.0), Event(3, 7.0), Event(8, 5.0)))
    u.demote()
    assert(!u.kUnit && u.top.toSeq == Seq(Event(5, 9.0)))
    u.demote() // idempotent
    assert(u.top.length == 1)
  }
}
