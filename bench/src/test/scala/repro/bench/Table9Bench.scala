package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.stream.{Evaluation, Tables}

/** Table 9: memory consumption under high-speed streams (SAP vs MinTopK). */
class Table9Bench extends AnyFunSuite {
  test("Table 9 shape: SAP uses less memory than minTopK overall") {
    def total(algo: String): Double = (for {
      ds <- Tables.datasets
      (n, k, s) <- Evaluation.highGrid
    } yield Bench.measure(algo, ds, Evaluation.HighD, n, k, s).avgMemoryBytes).sum
    val (sap, mtk) = (total("SAP"), total("minTopK"))
    info(f"memory totals (MB): SAP=${sap / 1e6}%.1f minTopK=${mtk / 1e6}%.1f")
    assert(sap < mtk)
  }
}
