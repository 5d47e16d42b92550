package repro.spark

import org.scalatest.funsuite.AnyFunSuite
import repro.baselines.BruteForce
import repro.core._
import repro.stream.StreamData

/** `StreamState.advance` across micro-batches, without Spark. */
class StreamStateSpec extends AnyFunSuite {

  private val q = TopKQuery(60, 3, 6)
  private val events = StreamData.Stock.generate(120)

  // A first chunk that ends on a slide boundary (36) and one that leaves
  // four events pending (40); the second chunk repeats its last stamp or
  // goes back five.
  for (firstLen <- Seq(36, 40); back <- Seq(0, 5))
    test(s"rejects a second chunk that starts at the first one's last stamp minus $back (first chunk of $firstLen events)") {
      val st = new StreamState(new BruteForce(q), Array.empty, 0L)
      st.advance(7, events.take(firstLen))
      val late = events.drop(firstLen - 1 - back)
      val err = intercept[IllegalArgumentException](st.advance(7, late))
      assert(err.getMessage.contains(s"query 7, window 1: stamp ${firstLen - back} does not follow"))
    }

  test("chunks that continue the stamps give the one-chunk answers") {
    val whole = new StreamState(new BruteForce(q), Array.empty, 0L).advance(1, events).toSeq
    val st = new StreamState(new BruteForce(q), Array.empty, 0L)
    val split = Seq(events.take(40), events.slice(40, 77), events.drop(77)).flatMap(st.advance(1, _))
    assert(split == whole)
  }

  test("rejects an algorithm on a time-based query, whose slides it cannot cut") {
    val st = new StreamState(new BruteForce(TimeQuery(10, 3)), Array.empty, 0L)
    val err = intercept[IllegalArgumentException](st.advance(7, events))
    assert(err.getMessage.contains("query 7: TimeQuery(10,3) has slides of any size"))
  }
}
