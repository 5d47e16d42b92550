package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.core._
import repro.stream.{Evaluation, StreamData}

/** Table 2: running time of equal partitioning under different partition
  * resolutions m, comparing the non-delay policy, Algorithm 1 (delayed
  * formation by re-scan) and Algorithm 1 + S-AVL.
  *
  * Paper setting: n = 0.1%|D|, k = 100, s = 0.1%n, m ∈ {5, 7, …, 37}.
  * Ours: |D| = 120k, n = 2%|D| = 2400, k = 100, s = 1%n = 24,
  * m ∈ {5, 9, …, 37} (see DESIGN.md §4 for the scaling rationale).
  */
class Table2Bench extends AnyFunSuite {
  private val ms = Seq(5, 9, 13, 17, 21, 25, 29, 33, 37)
  private val (n, k, s) = Evaluation.RegDefault

  private val variants: Seq[(String, Formation)] = Seq(
    "non-delay" -> Formation.EagerExact,
    "Algo 1" -> Formation.DelayedExact,
    "Algo 1+S-AVL" -> Formation.DelayedSAvl,
  )

  private def key(v: String, m: Int) = s"EQ[m=$m]:$v"

  test("Table 2: equal partitioning across m, three formation policies") {
    val q = TopKQuery(n, k, s)
    val mStar = Partitioner.mStar(q)
    val rows = for {
      ds <- StreamData.all.map(_.name)
      (vn, form) <- variants
    } yield {
      val cells = ms.map { m =>
        val metrics = Bench.measureWith(key(vn, m),
          qq => new Sap(qq, new EqualPartitioner(m), form),
          ds, Evaluation.RegularD, n, k, s)
        Bench.sec(metrics)
      }
      Seq(ds, s"m*=$mStar", vn) ++ cells
    }
    Bench.printTable(
      s"Table 2 — equal partitioning, running time (s); |D|=${Evaluation.RegularD} n=$n k=$k s=$s",
      Seq("dataset", "m*", "variant") ++ ms.map(m => s"m=$m"),
      rows)
  }

  test("Table 2 sanity: every variant and m produces brute-force answers") {
    // digest check on one dataset per variant (full check would re-run all)
    for ((vn, form) <- variants; m <- Seq(5, 21, 37); ds <- Seq("STOCK", "TIMER")) {
      val a = Bench.measureWith(key(vn, m),
        q => new Sap(q, new EqualPartitioner(m), form), ds, Evaluation.RegularD, n, k, s)
      val b = Bench.measure("brute", ds, Evaluation.RegularD, n, k, s)
      assert(a.resultDigest == b.resultDigest, s"$vn m=$m diverged on $ds")
    }
  }

  test("Table 2 shape: delayed formation beats non-delay on average") {
    val byVariant = variants.map { case (vn, form) =>
      vn -> StreamData.all.map(_.name).flatMap { ds =>
        ms.map(m => Bench.measureWith(key(vn, m),
          q => new Sap(q, new EqualPartitioner(m), form),
          ds, Evaluation.RegularD, n, k, s).seconds)
      }.sum
    }.toMap
    assert(byVariant("Algo 1") < byVariant("non-delay"),
      s"delay policy should win: $byVariant")
    assert(byVariant("Algo 1+S-AVL") <= byVariant("non-delay"))
  }
}
