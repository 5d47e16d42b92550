package repro.core

import org.scalacheck.{Gen, Prop, Test => SCTest}
import org.scalatest.funsuite.AnyFunSuite

/** Sizing rules of §4.1/§4.2: m*, l_min, l_max and unit rounding. */
class PartitionerSpec extends AnyFunSuite {

  test("m* = ceil(sqrt(n / max(s,k)))") {
    assert(Partitioner.mStar(TopKQuery(1000000, 10, 10000)) == 10) // paper's Fig. 6
    assert(Partitioner.mStar(TopKQuery(2400, 100, 24)) == 5)
    assert(Partitioner.mStar(TopKQuery(100, 100, 1)) == 1)
  }

  test("l_min = n/m* rounded to a multiple of s, at least max(s,k)") {
    for ((n, k, s) <- Seq((2400, 100, 24), (48000, 1000, 960), (600, 10, 6), (1000, 500, 2))) {
      val q = TopKQuery(n, k, s)
      val l = Partitioner.lMin(q)
      assert(l % s == 0)
      assert(l >= math.max(s, k))
      assert(l <= n)
      // close to sqrt(n·max(s,k)) when not clipped by the floor
      val raw = math.sqrt(n.toDouble * math.max(s, k))
      if (raw >= math.max(s, k) + s) assert(math.abs(l - raw) <= s)
    }
  }

  test("l_max = n/(1+η), at least l_min, a multiple of s") {
    for ((n, k, s) <- Seq((2400, 100, 24), (48000, 1000, 960), (1200, 15, 6))) {
      val q = TopKQuery(n, k, s)
      val lmax = Partitioner.lMax(q)
      assert(lmax % s == 0)
      assert(lmax >= Partitioner.lMin(q))
      assert(lmax <= n)
      assert(lmax <= n / (1.0 + Wrt.eta(k)) + s)
    }
  }

  test("equal partitioner unit size: multiple of s, >= max(s,k), <= n") {
    for (m <- 1 to 40; (n, k, s) <- Seq((2400, 100, 24), (600, 10, 6))) {
      val q = TopKQuery(n, k, s)
      val u = new EqualPartitioner(m).unitSize(q)
      assert(u % s == 0 && u >= math.max(s, k) && u <= n, s"m=$m n=$n -> $u")
    }
  }

  test("dynamic join refuses to exceed l_max") {
    val q = TopKQuery(2400, 100, 24)
    val p = new DynamicPartitioner
    val top = Array.fill(q.k)(1.0)
    val hist = Array.fill(Wrt.etaK(q.k))(2.0) // history clearly better: F <= 0
    assert(p.join(q, Partitioner.lMin(q), top, hist)) // plenty of room
    assert(!p.join(q, Partitioner.lMax(q), top, hist)) // at the cap
  }

  test("dynamic join finalizes when the partition out-scores history") {
    val q = TopKQuery(2400, 100, 24)
    val p = new DynamicPartitioner
    val top = Array.fill(q.k)(10.0)
    val hist = Array.fill(Wrt.etaK(q.k))(1.0)
    assert(!p.join(q, Partitioner.lMin(q), top, hist))
  }

  test("dynamic join extends while history is too short") {
    val q = TopKQuery(2400, 100, 24)
    val p = new DynamicPartitioner
    assert(p.join(q, Partitioner.lMin(q), Array.fill(q.k)(10.0), Array(1.0, 2.0)))
  }

  test("dynamic join decides as Eq. 2 with a naive rank-sum on tied, infinite and NaN samples") {
    /** The join rule with R1 from the naive pairwise rank-sum. */
    def reference(q: TopKQuery, curSize: Int, top: Array[Double], hist: Array[Double]): Boolean = {
      if (curSize + Partitioner.lMin(q) > Partitioner.lMax(q)) return false
      if (hist.length < Wrt.etaK(q.k)) return true
      val (n1, n2) = (top.length, hist.length)
      val mu = n1 * (n1 + n2 + 1) / 2.0
      val sigma = math.sqrt(n1.toDouble * n2 * (n1 + n2 + 1) / 12.0)
      (RankSumSamples.naiveRankSum(top, hist) - mu) / sigma - Wrt.U975 <= 0.0
    }
    val p = new DynamicPartitioner
    val calls = for {
      k <- Gen.oneOf(1, 5, 10, 20)
      q = TopKQuery(2400, k, 24)
      curSize <- Gen.oneOf(Partitioner.lMin(q), Partitioner.lMax(q))
      top <- RankSumSamples.sample(k, k)
      hist <- RankSumSamples.sample(Wrt.etaK(k) - 2, Wrt.etaK(k) + 8)
    } yield (q, curSize, top, hist)
    var joins = 0; var finalizes = 0
    val prop = Prop.forAll(calls) { case (q, curSize, top, hist) =>
      val decision = p.join(q, curSize, top, hist)
      if (decision) joins += 1 else finalizes += 1
      decision == reference(q, curSize, top, hist)
    }
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(2000), prop)
    assert(res.passed, res.status.toString)
    assert(joins > 0 && finalizes > 0, s"joins=$joins finalizes=$finalizes")
  }

  test("only the enhanced partitioner enables TBUI") {
    assert(new EnhancedDynamicPartitioner().useTbui)
    assert(!new DynamicPartitioner().useTbui)
    assert(!new EqualPartitioner(5).useTbui)
  }
}
