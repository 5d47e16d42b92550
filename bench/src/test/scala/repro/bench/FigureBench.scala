package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.stream.{Evaluation, Tables}

/** Bonus (Figures 9/10 shape, not a table): SAP vs SMA vs k-skyband vs
  * MinTopK running time at the default parameters. SMA appears only in the
  * paper's figures; it is included here so the implemented baseline is
  * exercised at bench scale and the figures' ordering
  * (SAP < minTopK < SMA < k-skyband on most datasets) can be eyeballed.
  */
class FigureBench extends AnyFunSuite {
  private val algos = Tables.figure.rows.map(_.label)
  private val (n, k, s) = Evaluation.RegDefault

  test("all four algorithms agree with brute force at defaults") {
    for (ds <- Tables.datasets)
      Bench.checkAgreement(algos :+ "brute", ds, Evaluation.RegularD, n, k, s)
  }

  test("SAP beats the one-pass baselines; stays competitive with SMA") {
    def total(algo: String): Double =
      Tables.datasets.map(ds => Bench.measure(algo, ds, Evaluation.RegularD, n, k, s).seconds).sum
    val totals = algos.map(a => a -> total(a)).toMap
    info(totals.map { case (a, t) => f"$a=$t%.2fs" }.mkString(" "))
    assert(totals("SAP") < totals("minTopK"))
    assert(totals("SAP") < totals("k-skyband"))
    // The paper's SMA loses 16x through 2-D grid maintenance and frequent
    // window re-scans at its scale; our SMA's grid is a cheap 1-D score
    // histogram and at n/k = 24 its re-scans are rare, so it is genuinely
    // competitive here. The scale-robust claim is parity, not dominance.
    assert(totals("SAP") <= 3 * totals("SMA"))
  }
}
