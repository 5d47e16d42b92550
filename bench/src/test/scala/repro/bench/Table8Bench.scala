package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.stream.{Evaluation, Tables}

/** Table 8: structural memory consumption of SAP, MinTopK, and k-skyband
  * across the regular sweeps (Appendix F; bytes model in DESIGN.md §6).
  */
class Table8Bench extends AnyFunSuite {
  test("Table 8 shape: SAP uses the least memory; k-skyband dominates on TIMER") {
    def total(algo: String): Double = (for {
      ds <- Tables.datasets
      (n, k, s) <- Tables.table8.grid
    } yield Bench.measure(algo, ds, Evaluation.RegularD, n, k, s).avgMemoryBytes).sum
    val (sap, mtk, sky) = (total("SAP"), total("minTopK"), total("k-skyband"))
    info(f"memory totals (MB): SAP=${sap / 1e6}%.1f minTopK=${mtk / 1e6}%.1f k-skyband=${sky / 1e6}%.1f")
    // The paper's full ordering SAP < minTopK < k-skyband relies on the
    // minTopK-vs-skyband *candidate* gap, which collapses at our n/k scale
    // (EXPERIMENTS.md); SAP < both is the scale-robust part, and the
    // k-skyband blow-up is robust on the anti-correlated stream.
    assert(sap < mtk && sap < sky)
    // minTopK's win over k-skyband comes from its per-slide top-k filter,
    // which bites when s is a large window fraction (as in the paper's
    // s-sweep): check the s = 10%n TIMER cell.
    val (n, k, _) = Evaluation.RegDefault
    val skyT = Bench.measure("k-skyband", "TIMER", Evaluation.RegularD, n, k, n / 10)
    val mtkT = Bench.measure("minTopK", "TIMER", Evaluation.RegularD, n, k, n / 10)
    assert(mtkT.avgMemoryBytes < skyT.avgMemoryBytes,
      s"minTopK (${mtkT.avgMemoryBytes}) should beat k-skyband (${skyT.avgMemoryBytes}) on TIMER at s=10%n")
  }
}
