package repro.spark

import java.io.{ByteArrayInputStream, ByteArrayOutputStream, ObjectInputStream, ObjectOutputStream}
import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}
import org.apache.spark.sql.streaming.{GroupState, GroupStateTimeout, OutputMode}
import repro.core.{ContinuousTopK, Event, TopKQuery}

/** Per-query operator state carried between micro-batches: the algorithm's
  * full state machine, the partial-slide buffer (micro-batches need not
  * align with slide boundaries), the running window counter and the stamp
  * of the last event fed, so that a late or repeated event in a later
  * micro-batch is rejected (DESIGN.md §7).
  */
final class StreamState(
    val algo: ContinuousTopK,
    var pending: Array[Event],
    var wid: Long,
) extends Serializable {
  var lastT: Long = Long.MinValue

  /** Append `chunk` (sorted by t) to the pending events, drive every whole
    * slide through `algo` and keep the remainder pending. Returns one row
    * per (completed window, rank). Throws IllegalArgumentException on a
    * NaN score or a stamp not above the previous one.
    */
  def advance(qid: Int, chunk: Array[Event]): Iterator[TopKRow] = {
    val all = if (pending.isEmpty) chunk else pending ++ chunk
    val out = scala.collection.mutable.ArrayBuffer[TopKRow]()
    val used = ContinuousTopK.feed(algo, all, lastT, s"query $qid", wid) {
      case Some(res) =>
        wid += 1
        var r = 0
        while (r < res.length) {
          out += TopKRow(qid, wid, r + 1, res(r).t, res(r).score)
          r += 1
        }
      case None =>
    }
    if (used > 0) lastT = all(used - 1).t
    pending = java.util.Arrays.copyOfRange(all, used, all.length)
    out.iterator
  }
}

/** The Structured Streaming form of the continuous top-k operator: a
  * `flatMapGroupsWithState` stateful windowed operator. Each micro-batch
  * delivers a chunk of the stream per query; the operator maintains the
  * self-adaptive sub-window partitioning and candidate sets inside the
  * per-group state (java-serialized — every core structure is
  * Serializable) and emits the top-k rows of every window completed by the
  * batch. This is the repro target's "Structured Streaming windowed
  * operator maintaining top-k candidates per micro-batch".
  */
object StructuredTopK {

  def continuousTopK(
      spark: SparkSession,
      events: Dataset[(Int, Long, Double)], // (queryId, t, score), streaming
      queries: Map[Int, TopKQuery],
      factory: TopKQuery => ContinuousTopK,
  ): DataFrame = {
    import spark.implicits._
    events
      .groupByKey(_._1)
      .flatMapGroupsWithState[Array[Byte], TopKRow](
        OutputMode.Append(), GroupStateTimeout.NoTimeout()) {
        (qid: Int, rows: Iterator[(Int, Long, Double)], state: GroupState[Array[Byte]]) =>
          val q = queries(qid)
          val st =
            if (state.exists) deserialize(state.get)
            else new StreamState(factory(q), Array.empty, 0L)
          val incoming = rows.map { case (_, t, s) => Event(t, s) }.toArray
          java.util.Arrays.sort(incoming, Ordering.by[Event, Long](_.t))
          val out = st.advance(qid, incoming)
          state.update(serialize(st))
          out
      }
      .toDF()
  }

  private[spark] def serialize(st: StreamState): Array[Byte] = {
    val bos = new ByteArrayOutputStream()
    val oos = new ObjectOutputStream(bos)
    oos.writeObject(st); oos.close()
    bos.toByteArray
  }

  private[spark] def deserialize(bytes: Array[Byte]): StreamState = {
    val ois = new ObjectInputStream(new ByteArrayInputStream(bytes))
    ois.readObject().asInstanceOf[StreamState]
  }
}
