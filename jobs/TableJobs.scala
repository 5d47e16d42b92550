package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.core._
import repro.stream.{Evaluation, SlideRunner, StreamData}

/** Shared driver for the per-table spark-submit entrypoints.
  *
  * Each job regenerates one evaluation table's rows on the local machine:
  *   spark-submit --class repro.jobs.Table3Job <jar> [|D|]
  *
  * The heavy lifting is the sequential maintenance loop (the paper's
  * metric); Spark parallelizes the (dataset × algorithm × parameter) cells
  * across cores, one cell per task.
  */
object TableJobs {

  final case class Cell(ds: String, algo: String, size: Int, n: Int, k: Int, s: Int)

  /** Distribute the cells over the cluster and print one line per cell. */
  def run(title: String, cells: Seq[Cell]): Unit = {
    val spark = SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(title)
      .getOrCreate()
    import spark.implicits._
    val results = spark.createDataset(cells)
      .repartition(cells.size)
      .map { c =>
        val events = StreamData.byName(c.ds).generate(c.size)
        val m = SlideRunner.run(Evaluation.factory(c.algo), c.algo, c.ds, events, TopKQuery(c.n, c.k, c.s))
        (c.ds, c.algo, c.n, c.k, c.s, m.seconds, m.avgCandidates, m.memoryKb)
      }
      .collect()
      .sortBy(r => (r._1, r._2, r._3, r._4, r._5))
    println(s"=== $title ===")
    println(f"${"dataset"}%-8s ${"algo"}%-10s ${"n"}%8s ${"k"}%6s ${"s"}%6s ${"sec"}%8s ${"cand"}%10s ${"KB"}%10s")
    results.foreach { case (ds, algo, n, k, s, sec, cand, kb) =>
      println(f"$ds%-8s $algo%-10s $n%8d $k%6d $s%6d $sec%8.2f $cand%10.1f $kb%10.1f")
    }
    spark.stop()
  }

  def datasets: Seq[String] = StreamData.all.map(_.name)
}

/** Table 2: equal partitioning across m under three formation policies. */
object Table2Job {
  def main(args: Array[String]): Unit = {
    val spark = SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("table2").getOrCreate()
    import spark.implicits._
    val ms = Seq(5, 9, 13, 17, 21, 25, 29, 33, 37)
    val variants = Seq("non-delay", "Algo1", "Algo1+S-AVL")
    val cells = for (ds <- TableJobs.datasets; v <- variants; m <- ms) yield (ds, v, m)
    val out = spark.createDataset(cells).repartition(cells.size).map { case (ds, v, m) =>
      val form = v match {
        case "non-delay"   => Formation.EagerExact
        case "Algo1"       => Formation.DelayedExact
        case _             => Formation.DelayedSAvl
      }
      val events = StreamData.byName(ds).generate(Evaluation.RegularD)
      val (n, k, s) = Evaluation.RegDefault
      val q = TopKQuery(n, k, s)
      val metrics = SlideRunner.run(qq => new Sap(qq, new EqualPartitioner(m), form), v, ds, events, q)
      (ds, v, m, metrics.seconds)
    }.collect().sortBy(r => (r._1, r._2, r._3))
    println("=== Table 2: equal partitioning, running time (s) ===")
    out.foreach { case (ds, v, m, sec) => println(f"$ds%-8s $v%-12s m=$m%-3d $sec%8.2f") }
    spark.stop()
  }
}

/** Table 3: EN-DYNA vs DYNA vs EQUAL across n, k, s. */
object Table3Job {
  def main(args: Array[String]): Unit = {
    val cells = for {
      ds <- TableJobs.datasets
      algo <- Seq("EN-DYNA", "DYNA", "EQUAL")
      (n, k, s) <- Evaluation.regularGrid
    } yield TableJobs.Cell(ds, algo, Evaluation.RegularD, n, k, s)
    TableJobs.run("Table 3: partitioners, running time", cells)
  }
}

/** Table 5: SAP vs MinTopK under high-speed streams. */
object Table5Job {
  def main(args: Array[String]): Unit = {
    val cells = for {
      ds <- TableJobs.datasets
      algo <- Seq("SAP", "minTopK")
      (n, k, s) <- Evaluation.highGrid
    } yield TableJobs.Cell(ds, algo, Evaluation.HighD, n, k, s)
    TableJobs.run("Table 5: high-speed running time", cells)
  }
}

/** Table 6: candidate counts of SAP / MinTopK / k-skyband. */
object Table6Job {
  def main(args: Array[String]): Unit = {
    val cells = for {
      ds <- TableJobs.datasets
      algo <- Seq("SAP", "minTopK", "k-skyband")
      (n, k, s) <- Evaluation.regularGrid
    } yield TableJobs.Cell(ds, algo, Evaluation.RegularD, n, k, s)
    TableJobs.run("Table 6: average candidates", cells)
  }
}

/** Table 7: candidate counts under high-speed streams. */
object Table7Job {
  def main(args: Array[String]): Unit = {
    val cells = for {
      ds <- TableJobs.datasets
      algo <- Seq("SAP", "minTopK")
      (n, k, s) <- Evaluation.highGrid
    } yield TableJobs.Cell(ds, algo, Evaluation.HighD, n, k, s)
    TableJobs.run("Table 7: high-speed average candidates", cells)
  }
}

/** Table 8: memory consumption of SAP / MinTopK / k-skyband. */
object Table8Job {
  def main(args: Array[String]): Unit = {
    val cells = for {
      ds <- TableJobs.datasets
      algo <- Seq("SAP", "minTopK", "k-skyband")
      (n, k, s) <- Evaluation.regularGrid
    } yield TableJobs.Cell(ds, algo, Evaluation.RegularD, n, k, s)
    TableJobs.run("Table 8: memory consumption (KB)", cells)
  }
}

/** Table 9: memory consumption under high-speed streams. */
object Table9Job {
  def main(args: Array[String]): Unit = {
    val cells = for {
      ds <- TableJobs.datasets
      algo <- Seq("SAP", "minTopK")
      (n, k, s) <- Evaluation.highGrid
    } yield TableJobs.Cell(ds, algo, Evaluation.HighD, n, k, s)
    TableJobs.run("Table 9: high-speed memory consumption (KB)", cells)
  }
}

/** Figures 9/10 (shape): all four algorithms at the default parameters. */
object FigureJob {
  def main(args: Array[String]): Unit = {
    val cells = for {
      ds <- TableJobs.datasets
      algo <- Seq("SAP", "minTopK", "SMA", "k-skyband")
      (n, k, s) = Evaluation.RegDefault
    } yield TableJobs.Cell(ds, algo, Evaluation.RegularD, n, k, s)
    TableJobs.run("Figures 9/10 shape: running time at defaults", cells)
  }
}

/** End-to-end Structured-Streaming demo: drives a MemoryStream-less micro
  * batch replay of the SAP operator over a multi-query DataFrame and prints
  * the last window's top-k per query.
  */
object StreamingDemoJob {
  def main(args: Array[String]): Unit = {
    val spark = SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("sap-streaming-demo").getOrCreate()
    val queries = Map(1 -> TopKQuery(2000, 10, 20), 2 -> TopKQuery(1000, 5, 10))
    val streams = queries.keys.toSeq.sorted.map(q => q -> StreamData.Stock.generate(20000, seed = q.toLong))
    val df = StreamData.multiQueryDf(spark, streams)
    val res = repro.spark.SparkTopK.continuousTopK(
      spark, df, queries,
      q => new Sap(q, new EnhancedDynamicPartitioner, Formation.DelayedSAvl))
    res.createOrReplaceTempView("topk")
    spark.sql(
      """SELECT queryId, wid, rank, t, round(score, 2) AS score FROM topk
        |WHERE (queryId, wid) IN (SELECT queryId, max(wid) FROM topk GROUP BY queryId)
        |ORDER BY queryId, rank""".stripMargin).show(50, truncate = false)
    spark.stop()
  }
}
