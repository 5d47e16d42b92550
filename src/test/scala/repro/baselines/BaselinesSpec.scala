package repro.baselines

import org.scalatest.funsuite.AnyFunSuite
import repro.core._
import repro.stream.{SlideRunner, StreamData}

/** k-skyband, MinTopK, and SMA vs brute force across datasets and params. */
class BaselinesSpec extends AnyFunSuite {

  private val grid = Seq(
    (200, 5, 10),
    (200, 20, 4),
    (400, 10, 40),
    (400, 50, 2),
    (300, 3, 3),
    (600, 100, 60),
  )

  private val algos: Seq[(String, TopKQuery => ContinuousTopK)] = Seq(
    "k-skyband" -> (q => new KSkyband(q)),
    "minTopK" -> (q => new MinTopK(q)),
    "SMA" -> (q => new Sma(q)),
  )

  // Stamps t = i and t = 10·i: the algorithms count arrivals themselves,
  // so gapped stamps must give the same answers.
  for {
    ds <- StreamData.all
    (an, af) <- algos
    (n, k, s) <- grid
    spacing <- Seq(1, 10)
  } test(s"$an == brute force on ${ds.name} n=$n k=$k s=$s" +
      (if (spacing == 1) "" else s" with gapped stamps t=${spacing}i")) {
    val events = ds.generate(3000).map(e => Event(spacing * e.t, e.score))
    val q = TopKQuery(n, k, s)
    SlideRunner.runAllChecked(
      Seq("brute" -> (qq => new BruteForce(qq)), an -> af), ds.name, events, q)
  }

  test("MinTopK reproduces the Fig. 2 worked example (n=21, k=2, s=3)") {
    // A stream consistent with the paper's Fig. 2 predicted result sets:
    //   R1 = R2 = {94,93}, R3 = {92,91}, R4 = R5 = R6 = {91,89},
    //   R7 = {91,82}  =>  C after W1 = {94,93,92,91,89,82} (6 candidates).
    val scores = Array[Double](
      85, 81, 77, // s1
      94, 93, 73, // s2
      92, 78, 69, // s3
      84, 72, 67, // s4
      87, 70, 75, // s5
      89, 68, 71, // s6
      91, 82, 79, // s7
      90, 83, 76, // s8 (the paper processes 90, 84, 78 — same ordering)
    )
    val events = scores.zipWithIndex.map { case (sc, i) => Event(i + 1L, sc) }
    val q = TopKQuery(n = 21, k = 2, s = 3)
    val algo = new MinTopK(q)
    var res: Option[Array[Event]] = None
    var off = 0
    var candAfterW1 = -1
    var candAfterS8 = -1
    while (off < events.length) {
      res = algo.processSlide(java.util.Arrays.copyOfRange(events, off, off + q.s))
      off += q.s
      if (off == 21) {
        candAfterW1 = algo.candidateCount
        assert(res.get.map(_.score).toSeq == Seq(94.0, 93.0)) // W1 top-2
      }
      if (off == 24) candAfterS8 = algo.candidateCount
    }
    assert(candAfterW1 == 6, s"expected 6 candidates after W1, got $candAfterW1")
    // During s8: 90 and 83 are inserted, 76 discarded; 89 and 82 refined
    // away, giving the paper's snapshot {94,93,92,91,90,83}. We sample |C|
    // *after* W2 is emitted and R2 retired, which also drops 94 and 93 (no
    // future window contains slide s2): C = {92,91,90,83}.
    assert(candAfterS8 == 4, s"expected 4 candidates after s8, got $candAfterS8")
    assert(res.get.map(_.score).toSeq == Seq(94.0, 93.0)) // W2 top-2
  }

  test("SMA re-scans frequently on monotonically decreasing scores") {
    val q = TopKQuery(n = 200, k = 5, s = 10)
    val events = Array.tabulate(2000)(i => Event(i + 1L, 1e6 - i))
    val sma = new Sma(q)
    var off = 0
    while (off < events.length) {
      sma.processSlide(java.util.Arrays.copyOfRange(events, off, off + q.s))
      off += q.s
    }
    assert(sma.rescans > 20, s"expected frequent re-scans, got ${sma.rescans}")
  }

  test("SMA rarely re-scans on monotonically increasing scores") {
    val q = TopKQuery(n = 200, k = 5, s = 10)
    val events = Array.tabulate(2000)(i => Event(i + 1L, i.toDouble))
    val sma = new Sma(q)
    var off = 0
    while (off < events.length) {
      sma.processSlide(java.util.Arrays.copyOfRange(events, off, off + q.s))
      off += q.s
    }
    assert(sma.rescans == 0, s"expected no re-scans on uptrend, got ${sma.rescans}")
  }

  test("k-skyband candidate set equals the naive k-skyband of the window") {
    val q = TopKQuery(n = 120, k = 4, s = 6)
    val events = StreamData.TimeU.generate(600)
    val algo = new KSkyband(q)
    var off = 0
    while (off < events.length) {
      algo.processSlide(java.util.Arrays.copyOfRange(events, off, off + q.s))
      off += q.s
      if (off >= q.n) {
        // naive: o is k-skyband iff fewer than k later window objects beat it
        val window = events.slice(off - q.n, off)
        val naive = window.count { o =>
          window.count(o2 => o2.t > o.t && o2.score > o.score) < q.k
        }
        assert(algo.candidateCount == naive,
          s"at off=$off: candidates=${algo.candidateCount} naive=$naive")
      }
    }
  }

  test("k-skyband candidate set degenerates to O(n) on anti-correlated streams") {
    val q = TopKQuery(n = 300, k = 3, s = 10)
    val events = Array.tabulate(1200)(i => Event(i + 1L, 1e6 - i)) // decreasing
    val algo = new KSkyband(q)
    var off = 0
    var peak = 0
    while (off < events.length) {
      algo.processSlide(java.util.Arrays.copyOfRange(events, off, off + q.s))
      peak = math.max(peak, algo.candidateCount)
      off += q.s
    }
    assert(peak >= q.n, s"expected the whole window as candidates, peak=$peak")
  }

  test("MinTopK candidate count is bounded by nk/max(s,k)") {
    for (ds <- StreamData.all) {
      val q = TopKQuery(n = 400, k = 10, s = 20)
      val events = ds.generate(2000)
      val m = SlideRunner.run(qq => new MinTopK(qq), "minTopK", ds.name, events, q)
      val bound = q.n.toLong * q.k / math.max(q.s, q.k) + q.k
      assert(m.peakCandidates <= bound,
        s"${ds.name}: peak ${m.peakCandidates} > bound $bound")
    }
  }
}
