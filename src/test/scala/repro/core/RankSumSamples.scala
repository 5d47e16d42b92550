package repro.core

import org.scalacheck.Gen

/** Rank-sum samples with forced ties, ±Inf and NaN, in unsorted, ascending
  * or descending order, and a naive pairwise midranked rank-sum to check
  * `Wrt.rankSum` against.
  */
object RankSumSamples {
  private val special: Gen[Double] =
    Gen.oneOf(Double.NegativeInfinity, Double.PositiveInfinity, Double.NaN, -0.0, 0.0, 1.0, 2.0)

  private val value: Gen[Double] = Gen.frequency(
    3 -> special,
    2 -> Gen.choose(-3, 3).map(_.toDouble), // small pool: many ties
    1 -> Gen.choose(-1e6, 1e6),
  )

  /** Total order of `java.lang.Double.compare`: NaN last. */
  private def ascending(xs: Array[Double]): Array[Double] = { val c = xs.clone(); java.util.Arrays.sort(c); c }

  def sample(minLen: Int, maxLen: Int): Gen[Array[Double]] = for {
    len <- Gen.choose(minLen, maxLen)
    xs <- Gen.listOfN(len, value)
    order <- Gen.choose(0, 2)
  } yield order match {
    case 0 => xs.toArray
    case 1 => ascending(xs.toArray)
    case _ => ascending(xs.toArray).reverse
  }

  /** R1 by pairwise comparison. Objects are ordered by
    * `java.lang.Double.compare`, then sample1 before sample2 (then by
    * position); `==`-equal values tie and share their midrank. The rank of
    * x is 1 + (objects before x that do not tie with it) + (objects that
    * tie with it) / 2.
    */
  def naiveRankSum(sample1: Array[Double], sample2: Array[Double]): Double = {
    val all = sample1 ++ sample2
    var r1 = 0.0
    for (i <- sample1.indices) {
      var before = 0; var ties = 0
      for (j <- all.indices if j != i) {
        if (all(j) == all(i)) ties += 1
        else {
          val c = java.lang.Double.compare(all(j), all(i))
          if (c < 0 || (c == 0 && j < i)) before += 1
        }
      }
      r1 += 1 + before + ties / 2.0
    }
    r1
  }
}
