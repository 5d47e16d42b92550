package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.stream.{Evaluation, Tables}

/** Table 6: average candidate-set sizes of SAP, MinTopK, and k-skyband
  * across the regular n, k, s sweeps (Appendix E).
  */
class Table6Bench extends AnyFunSuite {
  private val algos = Tables.table6.rows.map(_.label)

  test("Table 6 sanity: the three algorithms agree with brute force at defaults") {
    val (n, k, s) = Evaluation.RegDefault
    for (ds <- Tables.datasets)
      Bench.checkAgreement(algos :+ "brute", ds, Evaluation.RegularD, n, k, s)
  }

  test("Table 6 shape: SAP < minTopK < k-skyband candidates overall") {
    def total(algo: String): Double = (for {
      ds <- Tables.datasets
      (n, k, s) <- Tables.table6.grid
    } yield Bench.measure(algo, ds, Evaluation.RegularD, n, k, s).avgCandidates).sum
    val (sap, mtk, sky) = (total("SAP"), total("minTopK"), total("k-skyband"))
    info(f"avg-candidate totals: SAP=$sap%.0f minTopK=$mtk%.0f k-skyband=$sky%.0f")
    assert(sap < mtk && mtk < sky)
  }

  test("Table 6 shape: k-skyband degenerates to window scale on TIMER; SAP stays bounded") {
    val (n, k, s) = Evaluation.RegDefault
    val sky = Bench.measure("k-skyband", "TIMER", Evaluation.RegularD, n, k, s)
    val sap = Bench.measure("SAP", "TIMER", Evaluation.RegularD, n, k, s)
    info(f"TIMER avg candidates: k-skyband=${sky.avgCandidates}%.0f SAP=${sap.avgCandidates}%.0f (n=$n)")
    // TIMER's monotone descents make every window object a k-skyband: the
    // baseline's set reaches O(n) (>= 0.4n on average over the cycle).
    assert(sky.avgCandidates > 0.4 * n)
    // SAP's candidate set stays well below (paper: ~9x; at our n/k = 24
    // scale the gap is ~2.3x — it widens with n, see the n = 4800 column).
    assert(sky.avgCandidates > 2 * sap.avgCandidates)
    val sky48 = Bench.measure("k-skyband", "TIMER", Evaluation.RegularD, 4800, k, 48)
    val sap48 = Bench.measure("SAP", "TIMER", Evaluation.RegularD, 4800, k, 48)
    assert(sky48.avgCandidates > 2.5 * sap48.avgCandidates)
  }
}
