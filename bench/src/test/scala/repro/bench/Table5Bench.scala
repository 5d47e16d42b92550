package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.stream.{Evaluation, Tables}

/** Table 5: SAP vs MinTopK running time under high-speed streams
  * (large windows and slides — Appendix D).
  *
  * Paper setting: n ∈ 10–50% |D|, k ∈ 500–50000, s ∈ 0.01–10% n.
  * Ours: |D| = 240k with n ∈ 10–50%, k ∈ 500–5000, s ∈ 0.1–10% n.
  */
class Table5Bench extends AnyFunSuite {
  private val algos = Tables.table5.rows.map(_.label)

  test("Table 5 sanity: SAP and MinTopK agree on every high-speed cell") {
    for (ds <- Tables.datasets; (n, k, s) <- Evaluation.highGrid)
      Bench.checkAgreement(algos, ds, Evaluation.HighD, n, k, s)
  }

  test("Table 5 shape: SAP wins overall; gap closes as s grows") {
    val (n0, k0, _) = Evaluation.HighDefault
    def total(algo: String): Double = (for {
      ds <- Tables.datasets
      (n, k, s) <- Evaluation.highGrid
    } yield Bench.measure(algo, ds, Evaluation.HighD, n, k, s).seconds).sum
    val sap = total("SAP"); val mtk = total("minTopK")
    info(f"totals: SAP=$sap%.1fs minTopK=$mtk%.1fs")
    assert(sap < mtk, f"SAP ($sap%.1f) should beat minTopK ($mtk%.1f)")
    // Gap ratio at the smallest s should exceed the ratio at the largest s.
    val sSmall = Evaluation.HighS(n0).head
    val sBig = Evaluation.HighS(n0).last
    def ratio(s: Int): Double = {
      val pairs = Tables.datasets.map { ds =>
        (Bench.measure("minTopK", ds, Evaluation.HighD, n0, k0, s).seconds,
          Bench.measure("SAP", ds, Evaluation.HighD, n0, k0, s).seconds)
      }
      pairs.map(_._1).sum / pairs.map(_._2).sum
    }
    val (rs, rb) = (ratio(sSmall), ratio(sBig))
    info(f"minTopK/SAP ratio: s=$sSmall -> $rs%.2f, s=$sBig -> $rb%.2f")
    assert(rs > rb, f"gap should close as s grows ($rs%.2f vs $rb%.2f)")
  }
}
