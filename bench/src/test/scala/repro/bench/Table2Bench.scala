package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.stream.{Evaluation, TableRunner, Tables}

/** Table 2: running time of equal partitioning under different partition
  * resolutions m, comparing the non-delay policy, Algorithm 1 (delayed
  * formation by re-scan) and Algorithm 1 + S-AVL.
  *
  * Paper setting: n = 0.1%|D|, k = 100, s = 0.1%n, m ∈ {5, 7, …, 37}.
  * Ours: |D| = 120k, n = 2%|D| = 2400, k = 100, s = 1%n = 24,
  * m ∈ {5, 9, …, 37} (see DESIGN.md §4 for the scaling rationale).
  */
class Table2Bench extends AnyFunSuite {
  private val (n, k, s) = Evaluation.RegDefault

  private def measure(vn: String, m: Int, ds: String) =
    TableRunner.measure(Tables.equalRow(vn, m), ds, Evaluation.RegularD, n, k, s)._1

  test("Table 2 sanity: every variant and m produces brute-force answers") {
    // digest check on one dataset per variant (full check would re-run all)
    for ((vn, _) <- Tables.formations; m <- Seq(5, 21, 37); ds <- Seq("STOCK", "TIMER")) {
      val a = measure(vn, m, ds)
      val b = Bench.measure("brute", ds, Evaluation.RegularD, n, k, s)
      assert(a.resultDigest == b.resultDigest, s"$vn m=$m diverged on $ds")
    }
  }

  test("Table 2 shape: delayed formation beats non-delay on average") {
    val byVariant = Tables.formations.map { case (vn, _) =>
      vn -> Tables.datasets.flatMap(ds => Tables.partitionCounts.map(m => measure(vn, m, ds).seconds)).sum
    }.toMap
    assert(byVariant("Algo 1") < byVariant("non-delay"),
      s"delay policy should win: $byVariant")
    assert(byVariant("Algo 1+S-AVL") <= byVariant("non-delay"))
  }
}
