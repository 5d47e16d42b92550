package repro.stream

import org.json4s._
import org.json4s.jackson.JsonMethods
import org.scalatest.funsuite.AnyFunSuite
import repro.core.TopKQuery

/** The evaluation table specs, without streaming anything: the bench
  * suites that measure them do not run with the unit tests.
  */
class TablesSpec extends AnyFunSuite {

  test("every row of every table builds its algorithm at every grid cell") {
    for (t <- Tables.all; r <- t.rows; (n, k, s) <- t.grid) r.make(TopKQuery(n, k, s))
  }

  test("no table repeats a grid cell or a row") {
    for (t <- Tables.all) {
      assert(t.grid.distinct.size == t.grid.size, t.name)
      assert(t.rows.map(_.label).distinct.size == t.rows.size, t.name)
    }
    assert(Tables.byName.size == Tables.all.size)
  }

  test("a table renders as text and encodes as JSON that parses back") {
    val t = Tables.table9
    val cells = for (ds <- Tables.datasets; r <- t.rows; (n, k, s) <- t.grid) yield
      TableCell(t.name, r.label, RunMetrics(r.key, ds, TopKQuery(n, k, s), n * 1000L,
        k + 0.5, 0, 1024.0 * s, 0L, -s.toLong, 1L), runs = 2)
    val text = Tables.render(t, cells).split("\n")
    assert(text.length == 3 + Tables.datasets.size * t.rows.size)
    assert(text(0) == "=== Table 9: high-speed streams, SAP vs MinTopK; memory (KB, structural model); |D|=240000 ===")
    assert(text(1).split(" +").toSeq == Seq("dataset", "row") ++ t.grid.map { case (n, k, s) => s"n=$n,k=$k,s=$s" })
    assert(text(3).split(" +").toSeq == Seq("STOCK", "SAP") ++ t.grid.map(g => f"${g._3.toDouble}%.1f"))

    val records = JsonMethods.parse(Tables.json(cells)).children
    assert(records.size == cells.size)
    for ((rec, c) <- records.zip(cells)) {
      val m = c.metrics
      assert(rec \ "table" == JString("table9") && rec \ "row" == JString(c.row))
      assert(rec \ "dataset" == JString(m.dataset))
      assert(rec \ "n" == JInt(m.query.n) && rec \ "k" == JInt(m.query.k) && rec \ "s" == JInt(m.query.s))
      assert(rec \ "seconds" == JDouble(m.seconds) && rec \ "avg_candidates" == JDouble(m.avgCandidates))
      assert(rec \ "kb" == JDouble(m.memoryKb))
      assert(rec \ "digest" == JInt(m.resultDigest) && rec \ "runs" == JInt(2))
    }
  }
}
