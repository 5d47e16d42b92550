package repro.spark

import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}
import repro.core.{ContinuousTopK, Event, TopKQuery}

/** One emitted result row: window `wid` and its rank-th best event, with
  * the event's own stamp `t`. Window `wid` (1-based) holds the query's
  * arrivals number (wid−1)·s + 1 to (wid−1)·s + n, counted in stamp order;
  * stamps equal these numbers only when they run 1, 2, 3, ….
  */
final case class TopKRow(queryId: Int, wid: Long, rank: Int, t: Long, score: Double)

/** The batch (replay) form of the continuous top-k operator.
  *
  * Input: a DataFrame of events `(queryId INT, t LONG, score DOUBLE)`; each
  * query's events are shuffled to one task (`groupByKey` over Catalyst),
  * sorted by arrival order, and driven through the chosen sequential state
  * machine. Multiple concurrent queries parallelize across cores. Output is
  * a DataFrame of [[TopKRow]] verified row-for-row against DuckDB window
  * functions in the test suite.
  */
object SparkTopK {

  def continuousTopK(
      spark: SparkSession,
      events: DataFrame,
      queries: Map[Int, TopKQuery],
      factory: TopKQuery => ContinuousTopK,
  ): DataFrame = {
    import spark.implicits._
    val ds: Dataset[(Int, Long, Double)] = events
      .selectExpr("cast(queryId as int)", "cast(t as long)", "cast(score as double)")
      .as[(Int, Long, Double)]
    ds.groupByKey(_._1)
      .flatMapGroups { (qid: Int, rows: Iterator[(Int, Long, Double)]) =>
        val q = queries(qid)
        val evs = rows.map { case (_, t, s) => Event(t, s) }.toArray
        java.util.Arrays.sort(evs, Ordering.by[Event, Long](_.t))
        runReplay(qid, q, evs, factory)
      }
      .toDF()
  }

  /** Drive `events` (sorted by t) through a fresh state machine, emitting
    * one row per (window, rank).
    */
  private[spark] def runReplay(
      qid: Int, q: TopKQuery, events: Array[Event],
      factory: TopKQuery => ContinuousTopK,
  ): Iterator[TopKRow] =
    new StreamState(factory(q), Array.empty, 0L).advance(qid, events)
}
