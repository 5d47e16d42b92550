package repro.spark

import org.apache.spark.sql.execution.streaming.runtime.MemoryStream
import org.apache.spark.sql.functions._
import repro.SparkSpec
import repro.core._
import repro.stream.StreamData

/** The Structured Streaming operator: micro-batched input must produce
  * exactly the batch replay's windows, with state carried across batches.
  */
class StructuredTopKSpec extends SparkSpec {

  // Each query here is one group, so every micro-batch would otherwise
  // schedule the shared SparkSession's 64 mostly empty state-store partitions.
  private var sharedShufflePartitions: String = _

  override def beforeAll(): Unit = {
    super.beforeAll()
    sharedShufflePartitions = spark.conf.get("spark.sql.shuffle.partitions")
    spark.conf.set("spark.sql.shuffle.partitions", "4")
  }

  override def afterAll(): Unit =
    try spark.conf.set("spark.sql.shuffle.partitions", sharedShufflePartitions)
    finally super.afterAll()

  private def factory: TopKQuery => ContinuousTopK =
    q => new Sap(q, new EnhancedDynamicPartitioner, Formation.DelayedSAvl)

  private def runStreaming(events: Array[Event], q: TopKQuery,
                           batchSizes: Seq[Int]): Set[(Int, Long, Int, Long, Double)] = {
    import spark.implicits._
    implicit val sqlCtx: org.apache.spark.sql.SQLContext = spark.sqlContext
    val input = MemoryStream[(Int, Long, Double)]
    val out = StructuredTopK.continuousTopK(spark, input.toDS(), Map(0 -> q), factory)
    val queryName = s"topk_${System.nanoTime()}"
    val sq = out.writeStream.format("memory").queryName(queryName)
      .outputMode("append").start()
    try {
      var off = 0
      for (b <- batchSizes if off < events.length) {
        val chunk = events.slice(off, off + b).map(e => (0, e.t, e.score))
        input.addData(chunk.toIndexedSeq)
        sq.processAllAvailable()
        off += b
      }
      if (off < events.length) {
        input.addData(events.drop(off).map(e => (0, e.t, e.score)).toIndexedSeq)
        sq.processAllAvailable()
      }
      spark.table(queryName).collect()
        .map(r => (r.getInt(0), r.getLong(1), r.getInt(2), r.getLong(3), r.getDouble(4)))
        .toSet
    } finally sq.stop()
  }

  private def replaySet(events: Array[Event], q: TopKQuery): Set[(Int, Long, Int, Long, Double)] =
    SparkTopK.runReplay(0, q, events, factory)
      .map(r => (r.queryId, r.wid, r.rank, r.t, r.score)).toSet

  test("micro-batches aligned with slides match the batch replay") {
    val events = StreamData.Stock.generate(400)
    val q = TopKQuery(100, 5, 10)
    assert(runStreaming(events, q, Seq.fill(40)(10)) == replaySet(events, q))
  }

  test("micro-batches that split slides are re-assembled by the state buffer") {
    val events = StreamData.TimeU.generate(300)
    val q = TopKQuery(60, 4, 6)
    // batch sizes deliberately misaligned with s = 6
    assert(runStreaming(events, q, Seq(7, 11, 50, 3, 95, 40)) == replaySet(events, q))
  }

  test("one big batch matches many small batches (state serialization round-trips)") {
    val events = StreamData.TimeR.generate(3000).take(360)
    val q = TopKQuery(120, 6, 12)
    val whole = runStreaming(events, q, Seq(360))
    val split = runStreaming(events, q, Seq.fill(30)(12))
    val replay = replaySet(events, q)
    assert(whole == replay)
    assert(split == replay)
  }

  test("StreamState java round-trip preserves algorithm behaviour") {
    val q = TopKQuery(60, 3, 6)
    val events = StreamData.Trip.generate(240)
    val algo = factory(q)
    var st = new StreamState(algo, Array.empty, 0L)
    val results = scala.collection.mutable.ArrayBuffer[Seq[Double]]()
    var off = 0
    while (off < events.length) {
      // serialize/deserialize between every slide
      st = StructuredTopK.deserialize(StructuredTopK.serialize(st))
      st.algo.processSlide(events.slice(off, off + q.s)) match {
        case Some(res) => results += res.map(_.score).toSeq
        case None      =>
      }
      off += q.s
    }
    val brute = new repro.baselines.BruteForce(q)
    val expected = scala.collection.mutable.ArrayBuffer[Seq[Double]]()
    off = 0
    while (off < events.length) {
      brute.processSlide(events.slice(off, off + q.s)).foreach(r => expected += r.map(_.score).toSeq)
      off += q.s
    }
    assert(results == expected)
  }

  test("a late stamp in a later micro-batch fails the query with the query and the stamp") {
    import spark.implicits._
    implicit val sqlCtx: org.apache.spark.sql.SQLContext = spark.sqlContext
    val events = StreamData.Stock.generate(40)
    val q = TopKQuery(20, 3, 10)
    val input = MemoryStream[(Int, Long, Double)]
    val out = StructuredTopK.continuousTopK(spark, input.toDS(), Map(0 -> q), factory)
    val sq = out.writeStream.format("memory").queryName(s"topk_late_${System.nanoTime()}")
      .outputMode("append").start()
    try {
      input.addData(events.take(30).map(e => (0, e.t, e.score)).toIndexedSeq)
      sq.processAllAvailable()
      // the second batch repeats the first batch's last stamp, 30
      input.addData(Seq((0, 30L, 1.0)) ++ events.slice(30, 40).map(e => (0, e.t, e.score)))
      val err = intercept[Exception](sq.processAllAvailable())
      val causes = Iterator.iterate[Throwable](err)(_.getCause).takeWhile(_ != null).toSeq
      val iae = causes.collectFirst { case e: IllegalArgumentException => e }
      assert(iae.isDefined, s"no IllegalArgumentException in the cause chain of $err")
      val msg = iae.get.getMessage
      assert(msg.contains("query 0") && msg.contains("stamp 30"), msg)
    } finally sq.stop()
  }
}
