package repro.jobs

import java.io.File
import org.apache.spark.sql.SparkSession
import repro.core._
import repro.stream.{StreamData, TableRunner, Tables}

/** Regenerates one evaluation table on the local machine, measuring its
  * cells one at a time exactly as the bench suites do:
  *   spark-submit --class repro.jobs.TableJob <jar> <table2|table3|…|figure>
  * prints the table and writes its cells to `BENCH_<name>.json`.
  */
object TableJob {
  def main(args: Array[String]): Unit = {
    val table = args.headOption.flatMap(Tables.byName.get).getOrElse {
      System.err.println(s"usage: TableJob <${Tables.all.map(_.name).mkString("|")}>")
      sys.exit(2)
    }
    print(TableRunner.report(Seq(table), new File(s"BENCH_${table.name}.json")))
  }
}

/** End-to-end Structured-Streaming demo: drives a MemoryStream-less micro
  * batch replay of the SAP operator over a multi-query DataFrame and prints
  * the last window's top-k per query.
  */
object StreamingDemoJob {
  def main(args: Array[String]): Unit = {
    val spark = SparkSession.builder()
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
