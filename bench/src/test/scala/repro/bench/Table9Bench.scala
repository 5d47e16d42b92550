package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.stream.{Evaluation, StreamData}

/** Table 9: memory consumption under high-speed streams (SAP vs MinTopK). */
class Table9Bench extends AnyFunSuite {
  private val algos = Seq("SAP", "minTopK")

  test("Table 9: high-speed memory consumption (KB)") {
    val grid = Evaluation.highGrid
    val rows = for {
      ds <- StreamData.all.map(_.name)
      algo <- algos
    } yield Seq(ds, algo) ++ grid.map { case (n, k, s) =>
      Bench.kb(Bench.measure(algo, ds, Evaluation.HighD, n, k, s))
    }
    Bench.printTable(
      s"Table 9 — high-speed streams, memory (KB, structural model); |D|=${Evaluation.HighD}",
      Seq("dataset", "algo") ++ Evaluation.highGrid.map { case (n, k, s) => s"n=$n,k=$k,s=$s" },
      rows)
  }

  test("Table 9 shape: SAP uses less memory than minTopK overall") {
    def total(algo: String): Double = (for {
      ds <- StreamData.all.map(_.name)
      (n, k, s) <- Evaluation.highGrid
    } yield Bench.measure(algo, ds, Evaluation.HighD, n, k, s).avgMemoryBytes).sum
    val (sap, mtk) = (total("SAP"), total("minTopK"))
    info(f"memory totals (MB): SAP=${sap / 1e6}%.1f minTopK=${mtk / 1e6}%.1f")
    assert(sap < mtk)
  }
}
