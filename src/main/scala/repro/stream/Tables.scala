package repro.stream

import java.io.{File, PrintWriter}
import repro.core._
import scala.collection.mutable

/** The value a table reports in each cell, and how it prints. */
final case class Metric(name: String, of: RunMetrics => Double, format: String)

object Metric {
  val Seconds = Metric("running time (s)", _.seconds, "%.2f")
  val Candidates = Metric("average candidate-set size", _.avgCandidates, "%.0f")
  val Kb = Metric("memory (KB, structural model)", _.memoryKb, "%.1f")
}

/** A table row: its label and the algorithm it runs. */
final case class Row(label: String, make: TopKQuery => ContinuousTopK) {
  /** The configuration's name, under which a cell is measured once for all
    * tables: the registry name for a registry algorithm ("SAP" runs
    * EN-DYNA), the label otherwise.
    */
  def key: String = Evaluation.canonical(label)
}

object Row {
  /** The registry algorithm `name` of [[Evaluation]]. */
  def algo(name: String): Row = Row(name, Evaluation.factory(name))
}

/** One evaluation table: `rows` × `grid` (n, k, s) on every dataset of
  * [[StreamData]], over streams of `size` objects, reporting `metric`.
  */
final case class Table(name: String, title: String, size: Int, rows: Seq[Row],
                       grid: Seq[(Int, Int, Int)], metric: Metric)

/** One measured cell of a table: the best of `runs` runs (see
  * [[TableRunner.measure]]).
  */
final case class TableCell(table: String, row: String, metrics: RunMetrics, runs: Int)

/** The paper's evaluation tables (§6 and Appendices D–F), as data: the
  * bench suites, `TableJob` and `EXPERIMENTS.md` all read these.
  */
object Tables {
  import Evaluation.{HighD, RegDefault, RegularD, highGrid, regularGrid}

  val datasets: Seq[String] = StreamData.all.map(_.name)

  /** Table 2's formation policies, under the paper's row names. */
  val formations: Seq[(String, Formation)] = Seq(
    "non-delay" -> Formation.EagerExact,
    "Algo 1" -> Formation.DelayedExact,
    "Algo 1+S-AVL" -> Formation.DelayedSAvl,
  )

  /** Table 2's partition counts m. */
  val partitionCounts: Seq[Int] = Seq(5, 9, 13, 17, 21, 25, 29, 33, 37)

  /** Table 2's row for equal partitioning into m partitions under the
    * formation policy named `variant`.
    */
  def equalRow(variant: String, m: Int): Row = {
    val form = formations.toMap.apply(variant)
    Row(s"$variant m=$m", q => new Sap(q, new EqualPartitioner(m), form))
  }

  private def algos(names: String*): Seq[Row] = names.map(Row.algo)

  val table2 = Table("table2", "Table 2: equal partitioning across m under three formation policies",
    RegularD, for ((v, _) <- formations; m <- partitionCounts) yield equalRow(v, m),
    Seq(RegDefault), Metric.Seconds)
  val table3 = Table("table3", "Table 3: partitioners across n, k, s",
    RegularD, algos("EN-DYNA", "DYNA", "EQUAL"), regularGrid, Metric.Seconds)
  val table5 = Table("table5", "Table 5: high-speed streams, SAP vs MinTopK",
    HighD, algos("SAP", "minTopK"), highGrid, Metric.Seconds)
  val table6 = Table("table6", "Table 6: SAP, MinTopK and k-skyband across n, k, s",
    RegularD, algos("SAP", "minTopK", "k-skyband"), regularGrid, Metric.Candidates)
  val table7 = Table("table7", "Table 7: high-speed streams, SAP vs MinTopK",
    HighD, algos("SAP", "minTopK"), highGrid, Metric.Candidates)
  val table8 = Table("table8", "Table 8: SAP, MinTopK and k-skyband across n, k, s",
    RegularD, algos("SAP", "minTopK", "k-skyband"), regularGrid, Metric.Kb)
  val table9 = Table("table9", "Table 9: high-speed streams, SAP vs MinTopK",
    HighD, algos("SAP", "minTopK"), highGrid, Metric.Kb)
  val figure = Table("figure", "Figures 9/10 (shape): four algorithms at the default cell",
    RegularD, algos("SAP", "minTopK", "SMA", "k-skyband"), Seq(RegDefault), Metric.Seconds)

  val all: Seq[Table] = Seq(table2, table3, table5, table6, table7, table8, table9, figure)

  val byName: Map[String, Table] = all.map(t => t.name -> t).toMap

  /** `t` as aligned text: one line per (dataset, row), one column per grid
    * cell, read from `cells`.
    */
  def render(t: Table, cells: Seq[TableCell]): String = {
    val byCell = cells.filter(_.table == t.name).map { c =>
      val q = c.metrics.query
      (c.metrics.dataset, c.row, (q.n, q.k, q.s)) -> c.metrics
    }.toMap
    val header = Seq("dataset", "row") ++ t.grid.map { case (n, k, s) => s"n=$n,k=$k,s=$s" }
    val lines = for (ds <- datasets; r <- t.rows) yield
      Seq(ds, r.label) ++ t.grid.map(g => t.metric.format.format(t.metric.of(byCell((ds, r.label, g)))))
    val widths = (header +: lines).transpose.map(_.map(_.length).max)
    def fmt(row: Seq[String]): String =
      row.zip(widths).map { case (c, w) => c.padTo(w, ' ') }.mkString("  ")
    (s"=== ${t.title}; ${t.metric.name}; |D|=${t.size} ===" +: fmt(header) +:
      widths.map("-" * _).mkString("  ") +: lines.map(fmt)).mkString("", "\n", "\n")
  }

  /** `cells` as a JSON array with one record per cell. */
  def json(cells: Seq[TableCell]): String = {
    def str(s: String) = "\"" + s.replace("\\", "\\\\").replace("\"", "\\\"") + "\""
    cells.map { c =>
      val m = c.metrics
      s"""  {"table": ${str(c.table)}, "dataset": ${str(m.dataset)}, "row": ${str(c.row)}, """ +
        s""""n": ${m.query.n}, "k": ${m.query.k}, "s": ${m.query.s}, "seconds": ${m.seconds}, """ +
        s""""avg_candidates": ${m.avgCandidates}, "kb": ${m.memoryKb}, "digest": ${m.resultDigest}, "runs": ${c.runs}}"""
    }.mkString("[\n", ",\n", "\n]\n")
  }
}

/** Measures table cells one at a time, on the calling thread. Each
  * (configuration, dataset, |D|, n, k, s) is measured once per JVM, so
  * tables that share cells (3/6/8, 5/7/9 and the figure) share the runs.
  */
object TableRunner {
  private val dataCache = mutable.Map[(String, Int), Array[Event]]()
  private val runCache = mutable.Map[(String, String, Int, Int, Int, Int), (RunMetrics, Int)]()

  private def data(ds: String, size: Int): Array[Event] =
    synchronized(dataCache.getOrElseUpdate((ds, size), StreamData.byName(ds).generate(size)))

  warmup()

  /** JIT warm-up: run every algorithm shape once on a small stream,
    * including the Table-2 formation variants.
    */
  private def warmup(): Unit = {
    val q = TopKQuery(400, 20, 4)
    val events = StreamData.TimeU.generate(4000)
    Evaluation.algorithms.foreach { case (name, f) =>
      SlideRunner.run(f, name, "warmup", events, q)
    }
    Seq(Formation.EagerExact, Formation.DelayedExact, Formation.DelayedSAvl).foreach { form =>
      SlideRunner.run(qq => new Sap(qq, new EqualPartitioner(4), form),
        "warmup-eq", "warmup", events, q)
    }
  }

  /** Hypervisor steal ticks from /proc/stat (on oversubscribed cloud
    * hardware the host steals the CPU for seconds at a time and the guest
    * kernel charges stolen time to the running task, polluting even
    * thread-CPU-time measurements); 0 where the file is missing.
    */
  private def stealTicks(): Long =
    try {
      val line = scala.io.Source.fromFile("/proc/stat").getLines().next()
      line.trim.split("\\s+").drop(1).lift(7).map(_.toLong).getOrElse(0L)
    } catch { case _: Throwable => 0L }

  /** Measure `row` on one (dataset, |D|, n, k, s) cell, memoized under
    * `row.key`; returns the best run and the number of runs made.
    *
    * Timing is the *minimum thread-CPU time* over several runs, for two
    * reasons: (a) the first run of a configuration often executes partly
    * interpreted (the JIT warms per call-site shape), inflating cheap
    * cells 5–30×; (b) hypervisor steal bleeds into CPU-time accounting on
    * a virtual machine, so a run overlapping a steal window is re-tried (up to a
    * bounded number of attempts — a long contention window eventually
    * wins, and the min simply reflects the least-disturbed attempt).
    * Candidate/memory metrics and the digest are deterministic per run.
    */
  def measure(row: Row, ds: String, size: Int, n: Int, k: Int, s: Int): (RunMetrics, Int) =
    synchronized(runCache.getOrElseUpdate((row.key, ds, size, n, k, s), {
      val q = TopKQuery(n, k, s)
      val events = data(ds, size)

      def attempt(): (RunMetrics, Long) = {
        val s0 = stealTicks()
        val m = SlideRunner.run(row.make, row.key, ds, events, q)
        (m, stealTicks() - s0)
      }

      var best: RunMetrics = null
      var cleanRuns = 0
      var runs = 0
      var done = false
      while (!done && runs < 6) {
        val (m, st) = attempt()
        runs += 1
        if (best == null) best = m
        else {
          require(m.resultDigest == best.resultDigest, s"nondeterministic run at ${row.key}/$ds")
          if (m.cpuNanos < best.cpuNanos) best = m
        }
        // A "clean" attempt saw less machine-wide steal than 20% of its own
        // CPU time (1 tick = 10 ms). One clean attempt suffices for
        // expensive cells; cheap cells take the min of two (the first may
        // still be JIT-warming).
        val clean = st <= 2 || st * 10_000_000L < m.cpuNanos / 5
        if (clean) cleanRuns += 1
        done = cleanRuns >= 2 || (cleanRuns >= 1 && m.cpuNanos > 5_000_000_000L)
      }
      (best, runs)
    }))

  /** Every cell of `t`, dataset by dataset, row by row. */
  def run(t: Table): Seq[TableCell] =
    for (ds <- Tables.datasets; r <- t.rows; (n, k, s) <- t.grid) yield {
      val (m, runs) = measure(r, ds, t.size, n, k, s)
      TableCell(t.name, r.label, m, runs)
    }

  /** Run `tables`, write all their cells to `json`, and return the tables
    * as text.
    */
  def report(tables: Seq[Table], json: File): String = {
    val cells = tables.map(t => t -> run(t))
    val out = new PrintWriter(json)
    try out.write(Tables.json(cells.flatMap(_._2))) finally out.close()
    cells.map { case (t, c) => Tables.render(t, c) }.mkString("\n")
  }
}
