package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.baselines.BruteForce
import repro.stream.{Evaluation, SlideRunner, StreamData, Tables}

/** SAP correctness: every partitioner × formation policy must produce
  * exactly the brute-force answers on every dataset across a parameter
  * grid, and the candidate-set bound of §4.1 must hold.
  */
class SapSpec extends AnyFunSuite {

  private val grid = Seq(
    // (n, k, s)
    (200, 5, 10),
    (200, 20, 4),
    (400, 10, 40),
    (400, 50, 2),
    (600, 8, 1),
    (600, 100, 60),
    (300, 3, 3),
  )

  private val partitioners: Seq[(String, TopKQuery => Partitioner)] = Seq(
    "EQUAL(m*)" -> (q => EqualPartitioner.atMStar(q)),
    "EQUAL(m=2)" -> (_ => new EqualPartitioner(2)),
    "EQUAL(m=7)" -> (_ => new EqualPartitioner(7)),
    "DYNA" -> (_ => new DynamicPartitioner),
    "EN-DYNA" -> (_ => new EnhancedDynamicPartitioner),
  )

  private val formations = Seq(
    "eager" -> Formation.EagerExact,
    "exact" -> Formation.DelayedExact,
    "savl" -> Formation.DelayedSAvl,
  )

  private val streamLen = 4000

  for {
    ds <- StreamData.all
    (pn, pf) <- partitioners
    (fn, form) <- formations
    (n, k, s) <- grid
  } test(s"SAP[$pn,$fn] == brute force on ${ds.name} n=$n k=$k s=$s") {
    val events = ds.generate(streamLen)
    val q = TopKQuery(n, k, s)
    SlideRunner.runAllChecked(
      Seq(
        "brute" -> (qq => new BruteForce(qq)),
        "sap" -> (qq => new Sap(qq, pf(qq), form)),
      ),
      ds.name, events, q)
  }

  for (ds <- Seq(StreamData.TimeR, StreamData.Stock)) {
    test(s"SAP[EN-DYNA,savl] == brute force at high-speed scale on ${ds.name} n=48000 k=1000 s=960") {
      val q = TopKQuery(n = 48000, k = 1000, s = 960)
      // seven 20 160-object partitions drain after the first window
      val events = ds.generate(192000)
      val sap = new Sap(q, new EnhancedDynamicPartitioner, Formation.DelayedSAvl)
      SlideRunner.runAllChecked(
        Seq("brute" -> (qq => new BruteForce(qq)), "sap" -> (_ => sap)),
        ds.name, events, q)
      assert(sap.meaningfulFormed >= 3, s"only ${sap.meaningfulFormed} fronts had ρ < k")
    }
  }

  // perfbench's high-speed point over 3n events: every SAP partitioner, the
  // three formation policies of Table 2 (EQUAL m = 5) and MinTopK, with
  // stamps t = i and t = 10·i.
  for (ds <- Seq(StreamData.Stock, StreamData.TimeR); gap <- Seq(1L, 10L)) {
    test(s"EN-DYNA, DYNA, EQUAL, minTopK and Table 2's rows == brute force at high-speed scale on ${ds.name} " +
      s"n=48000 k=1000 s=960 with stamps t=${if (gap == 1L) "" else gap.toString}i") {
      val q = TopKQuery(n = 48000, k = 1000, s = 960)
      val events = ds.generate(3 * q.n).map(e => Event(gap * e.t, e.score))
      val algos = Seq("EN-DYNA", "DYNA", "EQUAL", "minTopK").map(a => a -> Evaluation.factory(a)) ++
        Tables.formations.map { case (v, _) => val r = Tables.equalRow(v, 5); r.label -> r.make }
      SlideRunner.runAllChecked(("brute" -> ((qq: TopKQuery) => new BruteForce(qq))) +: algos,
        ds.name, events, q)
    }
  }

  // Stamps t = 10·i: SAP keys objects by (score, t) but indexes its window
  // by arrival sequence, so gapped stamps must give the same answers.
  for {
    ds <- StreamData.all
    (pn, pf) <- Seq[(String, TopKQuery => Partitioner)](
      "EN-DYNA" -> (_ => new EnhancedDynamicPartitioner),
      "DYNA" -> (_ => new DynamicPartitioner),
      "EQUAL" -> (q => EqualPartitioner.atMStar(q)))
    (fn, form) <- formations
  } test(s"SAP[$pn,$fn] == brute force on ${ds.name} with gapped stamps t=10i n=600 k=20 s=6") {
    val events = ds.generate(12000).map(e => Event(10 * e.t, e.score))
    SlideRunner.runAllChecked(
      Seq(
        "brute" -> (qq => new BruteForce(qq)),
        "sap" -> (qq => new Sap(qq, pf(qq), form)),
      ),
      ds.name, events, TopKQuery(600, 20, 6))
  }

  // A unit of over half the window: the current partition starts draining
  // before the next unit completes.
  for {
    ds <- StreamData.all
    (m, n) <- Seq((1, 200), (2, 210))
    (fn, form) <- formations
  } test(s"SAP[EQUAL(m=$m),$fn] == brute force on ${ds.name} with units over half the window n=$n k=5 s=10") {
    SlideRunner.runAllChecked(
      Seq(
        "brute" -> (qq => new BruteForce(qq)),
        "sap" -> (qq => new Sap(qq, new EqualPartitioner(m), form)),
      ),
      ds.name, ds.generate(3000), TopKQuery(n, 5, 10))
  }

  test("SAP |C ∪ M0| stays within the §4.1 bound under equal partitioning at m*") {
    for (ds <- StreamData.all) {
      val q = TopKQuery(n = 1000, k = 20, s = 10)
      val events = ds.generate(8000)
      val sap = new Sap(q, EqualPartitioner.atMStar(q), Formation.DelayedSAvl)
      val m = SlideRunner.run(qq => sap, "sap", ds.name, events, q)
      // Bound: O(k·sqrt(n/max(s,k))) — allow a small constant factor for
      // the current partition/unit buffers and merge slack.
      val bound = 4.0 * q.k * math.sqrt(q.n.toDouble / math.max(q.s, q.k)) + 4 * q.k
      assert(m.peakCandidates <= bound,
        s"${ds.name}: peak candidates ${m.peakCandidates} exceeds bound $bound")
    }
  }

  test("partition sizes are multiples of s, at least max(s,k), at most lmax (dynamic)") {
    val q = TopKQuery(n = 1200, k = 15, s = 6)
    val events = StreamData.Stock.generate(6000)
    val sap = new Sap(q, new DynamicPartitioner, Formation.DelayedSAvl)
    var off = 0
    while (off < events.length) {
      sap.processSlide(java.util.Arrays.copyOfRange(events, off, off + q.s))
      val sizes = sap.partitionSizes
      sizes.foreach { sz =>
        assert(sz % q.s == 0, s"partition size $sz not a multiple of s=${q.s}")
        assert(sz >= math.max(q.s, q.k), s"partition size $sz below max(s,k)")
        assert(sz <= Partitioner.lMax(q), s"partition size $sz above lmax=${Partitioner.lMax(q)}")
      }
      off += q.s
    }
  }

  test("equal partitioning at m degenerates to MinTopK-sized partitions when n/m <= s") {
    val q = TopKQuery(n = 100, k = 2, s = 50)
    val p = new EqualPartitioner(10) // n/m = 10 < s=50 -> unit snaps to s
    assert(p.unitSize(q) == 50)
  }

  test("a count query's slide of the wrong size is rejected by Sap and BruteForce") {
    val q = TopKQuery(n = 40, k = 3, s = 4)
    val slide = StreamData.Stock.generate(5)
    for (algo <- Seq(new Sap(q, new DynamicPartitioner), new BruteForce(q)); len <- Seq(0, 3, 5))
      assertThrows[IllegalArgumentException](algo.processSlide(slide.take(len)))
  }
}
