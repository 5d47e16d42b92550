package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.stream.{Evaluation, StreamData}

/** Table 7: candidate counts under high-speed streams (SAP vs MinTopK). */
class Table7Bench extends AnyFunSuite {
  private val algos = Seq("SAP", "minTopK")

  test("Table 7: high-speed average candidates") {
    val grid = Evaluation.highGrid
    val rows = for {
      ds <- StreamData.all.map(_.name)
      algo <- algos
    } yield Seq(ds, algo) ++ grid.map { case (n, k, s) =>
      Bench.cnt(Bench.measure(algo, ds, Evaluation.HighD, n, k, s))
    }
    Bench.printTable(
      s"Table 7 — high-speed streams, average candidate-set size; |D|=${Evaluation.HighD}",
      Seq("dataset", "algo") ++ Evaluation.highGrid.map { case (n, k, s) => s"n=$n,k=$k,s=$s" },
      rows)
  }

  test("Table 7 shape: SAP maintains fewer candidates than minTopK overall") {
    def total(algo: String): Double = (for {
      ds <- StreamData.all.map(_.name)
      (n, k, s) <- Evaluation.highGrid
    } yield Bench.measure(algo, ds, Evaluation.HighD, n, k, s).avgCandidates).sum
    val (sap, mtk) = (total("SAP"), total("minTopK"))
    info(f"totals: SAP=$sap%.0f minTopK=$mtk%.0f")
    assert(sap < mtk)
  }
}
