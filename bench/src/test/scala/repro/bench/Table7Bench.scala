package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.stream.{Evaluation, Tables}

/** Table 7: candidate counts under high-speed streams (SAP vs MinTopK). */
class Table7Bench extends AnyFunSuite {
  test("Table 7 shape: SAP maintains fewer candidates than minTopK overall") {
    def total(algo: String): Double = (for {
      ds <- Tables.datasets
      (n, k, s) <- Evaluation.highGrid
    } yield Bench.measure(algo, ds, Evaluation.HighD, n, k, s).avgCandidates).sum
    val (sap, mtk) = (total("SAP"), total("minTopK"))
    info(f"totals: SAP=$sap%.0f minTopK=$mtk%.0f")
    assert(sap < mtk)
  }
}
