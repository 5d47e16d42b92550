package repro.spark

import java.io.{ByteArrayInputStream, ByteArrayOutputStream, ObjectInputStream, ObjectOutputStream}
import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}
import org.apache.spark.sql.streaming.{GroupState, GroupStateTimeout, OutputMode}
import repro.core.{ContinuousTopK, Event, TopKQuery}

/** Per-query operator state carried between micro-batches: the algorithm's
  * full state machine plus the partial-slide buffer (micro-batches need not
  * align with slide boundaries) and the running window counter.
  */
final class StreamState(
    val algo: ContinuousTopK,
    var pending: Array[Event],
    var wid: Long,
) extends Serializable {

  /** Append `chunk` (sorted by t) to the pending events, drive every whole
    * slide through `algo` and keep the remainder pending. Returns one row
    * per (completed window, rank).
    */
  def advance(qid: Int, chunk: Array[Event]): Iterator[TopKRow] = {
    val s = algo.query.s
    val all = if (pending.isEmpty) chunk else pending ++ chunk
    val usable = (all.length / s) * s
    val out = scala.collection.mutable.ArrayBuffer[TopKRow]()
    var off = 0
    while (off < usable) {
      algo.processSlide(java.util.Arrays.copyOfRange(all, off, off + s)) match {
        case Some(res) =>
          wid += 1
          var r = 0
          while (r < res.length) {
            out += TopKRow(qid, wid, r + 1, res(r).t, res(r).score)
            r += 1
          }
        case None =>
      }
      off += s
    }
    pending = java.util.Arrays.copyOfRange(all, usable, all.length)
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
