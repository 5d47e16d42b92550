package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.stream.{Evaluation, StreamData}

/** Table 3: running time of the enhanced dynamic, dynamic, and equal
  * partitioning algorithms across the n, k, and s sweeps.
  *
  * Paper setting: n ∈ 0.01%–1% |D|, k ∈ 10–1000, s ∈ 0.01%–10% n.
  * Ours: |D| = 120k with n ∈ 0.5%–4%, k ∈ 10–500, s ∈ 0.1%–10% n.
  */
class Table3Bench extends AnyFunSuite {
  private val algos = Seq("EN-DYNA", "DYNA", "EQUAL")

  test("Table 3: partitioning algorithms across n, k, s") {
    val grid = Evaluation.regularGrid
    val rows = for {
      ds <- StreamData.all.map(_.name)
      algo <- algos
    } yield {
      val cells = grid.map { case (n, k, s) =>
        Bench.sec(Bench.measure(algo, ds, Evaluation.RegularD, n, k, s))
      }
      Seq(ds, algo) ++ cells
    }
    Bench.printTable(
      s"Table 3 — partitioners, running time (s); |D|=${Evaluation.RegularD}",
      Seq("dataset", "algo") ++ Evaluation.regularGrid.map { case (n, k, s) => s"n=$n,k=$k,s=$s" },
      rows)
  }

  test("Table 3 sanity: all three partitioners agree with brute force at defaults") {
    val (n, k, s) = Evaluation.RegDefault
    for (ds <- StreamData.all.map(_.name))
      Bench.checkAgreement(algos :+ "brute", ds, Evaluation.RegularD, n, k, s)
  }

  test("Table 3 shape: dynamic partitioning stays competitive with equal overall") {
    val grid = Evaluation.regularGrid
    def total(algo: String): Double = (for {
      ds <- StreamData.all.map(_.name)
      (n, k, s) <- grid
    } yield Bench.measure(algo, ds, Evaluation.RegularD, n, k, s).seconds).sum
    val (en, dy, eq) = (total("EN-DYNA"), total("DYNA"), total("EQUAL"))
    info(f"totals: EN-DYNA=$en%.1fs DYNA=$dy%.1fs EQUAL=$eq%.1fs")
    // The paper's 30% dynamic win materializes at |D| in the tens of
    // millions where M-formation dominates; at our |D| the three are close
    // (EXPERIMENTS.md). The scale-robust claim is competitiveness.
    assert(en <= eq * 1.5, f"EN-DYNA ($en%.1f) should stay near EQUAL ($eq%.1f)")
    assert(dy <= eq * 1.5, f"DYNA ($dy%.1f) should stay near EQUAL ($eq%.1f)")
  }
}
