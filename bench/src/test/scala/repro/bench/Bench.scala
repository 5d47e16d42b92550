package repro.bench

import java.io.File
import org.scalatest.funsuite.AnyFunSuite
import repro.stream.{Row, RunMetrics, TableRunner, Tables}

/** The suites' access to [[TableRunner]]'s memoized cells; in every
  * regular-scale cell the algorithms' answers are digest-checked against
  * brute force.
  */
object Bench {
  /** The cell of registry algorithm `algo`. */
  def measure(algo: String, ds: String, size: Int, n: Int, k: Int, s: Int): RunMetrics =
    TableRunner.measure(Row.algo(algo), ds, size, n, k, s)._1

  /** Assert all named algorithms produced identical results in this cell. */
  def checkAgreement(algos: Seq[String], ds: String, size: Int,
                     n: Int, k: Int, s: Int): Unit = {
    val digests = algos.map(a => a -> measure(a, ds, size, n, k, s).resultDigest)
    require(digests.map(_._2).distinct.size == 1,
      s"result divergence at ($ds n=$n k=$k s=$s): $digests")
  }
}

/** Every evaluation table, measured, printed and written to
  * `BENCH_tables.json` (one record per cell) in the working directory.
  */
class TablesBench extends AnyFunSuite {
  test("Tables 2, 3, 5–9 and Figures 9/10: render every cell") {
    println(TableRunner.report(Tables.all, new File("BENCH_tables.json")))
  }
}
