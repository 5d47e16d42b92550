package repro.core

/** Mann-Whitney rank-sum test kit (paper §2.2, Eq. 2, Theorems 1 and 3).
  *
  * Solver identities (3-sigma rule):
  *  - η: solution of (ηk − k)/√(ηk) = 3 — with x = ηk, √x = (3 + √(9+4k))/2;
  *  - ζ*: solution of (ζ − k)/√ζ = 3 — same closed form;
  *  - ζmax: solution of (ζmax − ζ*)/√ζ* = 3, i.e. ζmax = ζ* + 3√ζ*.
  *
  * The decision function F(P_m^k, I_ηk) (Eq. 2) uses the normal
  * approximation of the rank-sum statistic throughout (see DESIGN.md §7.1):
  * with sample sizes n1 = k and n2 = ηk,
  *   μ = n1(n1+n2+1)/2,  σ = √(n1·n2·(n1+n2+1)/12),
  * and F = (R1 − μ)/σ − u_{1−α/2} with α = 0.05 (u = 1.96). F > 0 means the
  * partition's top-k tends to score higher than the history's top-ηk — the
  * partition is "improper" (likely to need an M_i later) and is finalized.
  */
object Wrt {

  /** x solving (x − k)/√x = 3, for k ≥ 1. */
  def threeSigmaSolve(k: Int): Double = {
    val sqrtX = (3.0 + math.sqrt(9.0 + 4.0 * k)) / 2.0
    sqrtX * sqrtX
  }

  /** η of Theorem 1: |SD1| = η·|SD2| with samples of size k. */
  def eta(k: Int): Double = threeSigmaSolve(k) / k

  /** Sample size ηk (rounded up) used for the history side of the test. */
  def etaK(k: Int): Int = math.ceil(threeSigmaSolve(k)).toInt

  /** ζ* of Theorem 3 (rounded up): threshold rank inside a unit. */
  def zetaStar(k: Int): Int = math.ceil(threeSigmaSolve(k)).toInt

  /** ζmax of Theorem 3 (rounded up). */
  def zetaMax(k: Int): Int = {
    val zs = threeSigmaSolve(k)
    math.ceil(zs + 3.0 * math.sqrt(zs)).toInt
  }

  /** Upper 1−α/2 normal quantile for α = 0.05. */
  val U975 = 1.959964

  /** Rank-sum R1 of `sample1` within the merged ascending ordering of
    * `sample1 ++ sample2` (ranks 1-based from the smallest). Ties are
    * impossible in our streams (unique scores) but are midranked anyway.
    *
    * Both samples are copied and sorted as primitives, then merged. The
    * order is `java.lang.Double.compare` (−0.0 before 0.0, NaN last); a tie
    * group is a run of `==`-equal values, so −0.0 ties with 0.0 and every
    * NaN ranks alone, sample1's NaNs before sample2's.
    */
  def rankSum(sample1: Array[Double], sample2: Array[Double]): Double = {
    val a = sample1.clone(); java.util.Arrays.sort(a)
    val b = sample2.clone(); java.util.Arrays.sort(b)
    var r1 = 0.0
    var i = 0; var j = 0
    while (i < a.length || j < b.length) {
      val ranked = i + j
      val i0 = i
      // the tie group starts at the smaller head (sample1's on equal keys)
      val fromA = j >= b.length || (i < a.length && java.lang.Double.compare(a(i), b(j)) <= 0)
      val v = if (fromA) a(i) else b(j)
      if (fromA) i += 1 else j += 1
      while (i < a.length && a(i) == v) i += 1
      while (j < b.length && b(j) == v) j += 1
      // each sample1 member of the group gets ranks ranked+1 .. i+j averaged
      r1 += (i - i0) * ((ranked + 1 + i + j) / 2.0)
    }
    r1
  }

  /** Eq. (2): the evaluation function F. `partTopK` are the top-k scores of
    * the candidate partition, `historyTopEtaK` the top-ηk scores of the
    * lookback interval I. Positive ⇒ partition top-k tends larger ⇒
    * finalize (improper to keep growing).
    */
  def evaluate(partTopK: Array[Double], historyTopEtaK: Array[Double]): Double = {
    val n1 = partTopK.length
    val n2 = historyTopEtaK.length
    if (n1 == 0 || n2 == 0) return -1.0 // not enough evidence: extend
    val r1 = rankSum(partTopK, historyTopEtaK)
    val mu = n1 * (n1 + n2 + 1) / 2.0
    val sigma = math.sqrt(n1.toDouble * n2 * (n1 + n2 + 1) / 12.0)
    (r1 - mu) / sigma - U975
  }
}
