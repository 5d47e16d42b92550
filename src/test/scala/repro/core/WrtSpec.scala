package repro.core

import org.scalacheck.{Prop, Test => SCTest}
import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

/** Solver identities and decision behaviour of the rank-sum test kit. */
class WrtSpec extends AnyFunSuite {

  for (k <- Seq(1, 2, 5, 10, 50, 100, 500, 1000)) {
    test(s"η solves (ηk − k)/√(ηk) = 3 for k=$k") {
      val x = Wrt.eta(k) * k
      assert(math.abs((x - k) / math.sqrt(x) - 3.0) < 1e-9)
    }
    test(s"ζ* and ζmax satisfy the 3-sigma identities for k=$k") {
      val zsExact = Wrt.threeSigmaSolve(k)
      assert(math.abs((zsExact - k) / math.sqrt(zsExact) - 3.0) < 1e-9)
      assert(Wrt.zetaStar(k) >= zsExact && Wrt.zetaStar(k) < zsExact + 1)
      assert(Wrt.zetaMax(k) >= zsExact + 3 * math.sqrt(zsExact))
      assert(Wrt.zetaStar(k) > k) // ζ* > k always
    }
  }

  test("rank-sum of crafted samples") {
    // sample1 = {10, 30}, sample2 = {20, 40}: ascending order 10,20,30,40
    // -> ranks of sample1 = 1 + 3 = 4.
    assert(Wrt.rankSum(Array(10.0, 30.0), Array(20.0, 40.0)) == 4.0)
    // All of sample1 above sample2: ranks 3+4 = 7.
    assert(Wrt.rankSum(Array(30.0, 40.0), Array(10.0, 20.0)) == 7.0)
    // Ties midranked: {5,5} vs {5,5} -> each rank (1+2+3+4)/4 = 2.5, R1 = 5.
    assert(Wrt.rankSum(Array(5.0, 5.0), Array(5.0, 5.0)) == 5.0)
  }

  test("rankSum equals a naive pairwise midranked rank-sum with ties, ±Inf and NaN (ScalaCheck)") {
    val prop = Prop.forAll(RankSumSamples.sample(0, 40), RankSumSamples.sample(0, 40)) { (a, b) =>
      val before = (a.clone(), b.clone())
      val r1 = Wrt.rankSum(a, b)
      r1 == RankSumSamples.naiveRankSum(a, b) &&
        java.util.Arrays.equals(a, before._1) && java.util.Arrays.equals(b, before._2) // inputs untouched
    }
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(2000), prop)
    assert(res.passed, res.status.toString)
  }

  test("evaluate accepts same-distribution samples (F <= 0) most of the time") {
    val rnd = new Random(3)
    val k = 50
    val hk = Wrt.etaK(k)
    var rejections = 0
    val trials = 200
    for (_ <- 1 to trials) {
      val a = Array.fill(k)(rnd.nextDouble()).sorted.reverse
      val b = Array.fill(hk)(rnd.nextDouble()).sorted.reverse
      if (Wrt.evaluate(a, b) > 0) rejections += 1
    }
    // α = 0.05 one-sided: expect ~5% type-I errors.
    assert(rejections < trials * 0.15, s"$rejections/$trials rejections")
  }

  test("evaluate rejects when the partition clearly out-scores history (F > 0)") {
    val rnd = new Random(4)
    val k = 50
    val hk = Wrt.etaK(k)
    val part = Array.fill(k)(rnd.nextDouble() + 2.0).sorted.reverse
    val hist = Array.fill(hk)(rnd.nextDouble()).sorted.reverse
    assert(Wrt.evaluate(part, hist) > 0)
  }

  test("evaluate extends when history is too small") {
    assert(Wrt.evaluate(Array(1.0, 2.0), Array.empty[Double]) <= 0)
  }

  test("Theorem 1 empirically: top-k of an ηk-sample beats top-k of a k-sample") {
    val rnd = new Random(5)
    val k = 20
    val bigN = Wrt.etaK(k) * 10 // |SD1| = η·|SD2| with |SD2| = 10k samples
    var wins = 0
    val trials = 300
    for (_ <- 1 to trials) {
      val sd1 = Array.fill(bigN)(rnd.nextDouble())
      val sd2 = Array.fill(10 * k)(rnd.nextDouble())
      val th1 = sd1.sorted.reverse.apply(k - 1)
      val th2 = sd2.sorted.reverse.apply(k - 1)
      if (th1 > th2) wins += 1
    }
    assert(wins > trials * 0.95, s"Pr(θk1 > θk2) ≈ ${wins.toDouble / trials}")
  }
}
