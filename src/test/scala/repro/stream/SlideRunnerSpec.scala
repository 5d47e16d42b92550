package repro.stream

import org.scalatest.funsuite.AnyFunSuite
import repro.baselines.{BruteForce, KSkyband}
import repro.core._

/** Metrics harness behaviour. */
class SlideRunnerSpec extends AnyFunSuite {

  private val q = TopKQuery(100, 5, 10)
  private val events = StreamData.TimeU.generate(1000)

  test("digest is deterministic and sensitive to results") {
    val a = SlideRunner.run(qq => new BruteForce(qq), "a", "d", events, q)
    val b = SlideRunner.run(qq => new BruteForce(qq), "b", "d", events, q)
    assert(a.resultDigest == b.resultDigest)
    val other = SlideRunner.run(qq => new BruteForce(qq), "c", "d",
      StreamData.TimeU.generate(1000, seed = 2), q)
    assert(a.resultDigest != other.resultDigest)
  }

  test("window count: (usable - n)/s + 1") {
    val m = SlideRunner.run(qq => new BruteForce(qq), "a", "d", events, q)
    assert(m.windows == (1000 - q.n) / q.s + 1)
  }

  test("trailing partial slides are dropped") {
    val m = SlideRunner.run(qq => new BruteForce(qq), "a", "d",
      StreamData.TimeU.generate(1007), q)
    assert(m.windows == (1000 - q.n) / q.s + 1)
  }

  test("candidate/memory metrics are sampled") {
    val m = SlideRunner.run(qq => new KSkyband(qq), "sky", "d", events, q)
    assert(m.avgCandidates > 0 && m.peakCandidates >= m.avgCandidates)
    assert(m.avgMemoryBytes > 0 && m.peakMemoryBytes >= m.avgMemoryBytes.toLong)
    assert(m.memoryKb == m.avgMemoryBytes / 1024.0)
  }

  // Input the contract forbids is rejected with the query, window and stamp
  // (the 556th event, t = 556, is in slide 56, which completes window 47).
  for ((what, e, msg) <- Seq(
    ("a NaN score", Event(556, Double.NaN), "sky on d, window 47: NaN score at stamp 556"),
    ("a decreasing stamp", Event(500, 0.5), "sky on d, window 47: stamp 500 does not follow stamp 555"),
    ("a duplicate stamp", Event(555, 0.5), "sky on d, window 47: stamp 555 does not follow stamp 555"),
  )) test(s"rejects $what") {
    val bad = events.updated(555, e)
    val err = intercept[IllegalArgumentException] {
      SlideRunner.run(qq => new KSkyband(qq), "sky", "d", bad, q)
    }
    assert(err.getMessage.endsWith(msg))
  }

  test("rejects an algorithm on a time-based query, whose slides it cannot cut") {
    for (make <- Seq[TopKQuery => ContinuousTopK](
           _ => new BruteForce(TimeQuery(10, 5)),
           _ => new Sap(TimeQuery(10, 5), new EqualPartitioner(2))))
      assert(intercept[IllegalArgumentException](SlideRunner.run(make, "tq", "d", events, q))
        .getMessage.startsWith("requirement failed: tq on d: TimeQuery(10,5) has slides of any size"))
  }

  test("runAllChecked rejects diverging algorithms") {
    // An intentionally wrong "algorithm": always returns the slide's top-k.
    final class Wrong(val query: TopKQuery) extends ContinuousTopK {
      private var seen = 0L
      def processSlide(ev: Array[Event]): Option[Array[Event]] = {
        seen += ev.length
        if (seen < query.n) None
        else Some(ev.sorted(Event.desc).take(query.k))
      }
      def candidateCount = 0
      def memoryBytes = 0L
    }
    assertThrows[IllegalArgumentException] {
      SlideRunner.runAllChecked(
        Seq("brute" -> (qq => new BruteForce(qq)), "wrong" -> (qq => new Wrong(qq))),
        "d", events, q)
    }
  }
}
