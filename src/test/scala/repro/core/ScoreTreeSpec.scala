package repro.core

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.{Gen, Prop, Test => SCTest}
import scala.collection.mutable

/** ScoreTree vs a sorted reference model. */
class ScoreTreeSpec extends AnyFunSuite {

  /** Run a ScalaCheck property under ScalaTest (no scalatestplus offline). */
  private def check(prop: Prop): Unit = {
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(60), prop)
    assert(res.passed, res.status.toString)
  }

  private def refSorted(m: mutable.Map[Long, Double]): Seq[(Double, Long)] =
    m.toSeq.map { case (t, s) => (s, t) }.sorted

  private val opsGen: Gen[List[(Int, Long, Double)]] =
    Gen.listOfN(400, for {
      op <- Gen.choose(0, 2) // 0 insert, 1 delete, 2 noop-query
      t <- Gen.choose(1L, 120L)
      s <- Gen.choose(0, 999).map(_ / 100.0)
    } yield (op, t, s))

  test("insert/delete/min/max/size agree with a reference model (ScalaCheck)") {
    check(Prop.forAll(opsGen) { ops =>
      val tree = new ScoreTree
      val ref = mutable.Map[Long, Double]()
      ops.foreach {
        case (0, t, s) =>
          if (!ref.contains(t)) { ref(t) = s; tree.insert(s, t) }
        case (1, t, _) =>
          ref.remove(t).foreach(s => tree.delete(s, t))
        case _ =>
      }
      val sorted = refSorted(ref)
      val okSize = tree.size == ref.size
      val asc = mutable.ArrayBuffer[(Double, Long)]()
      tree.foreachAscending(n => asc += ((n.score, n.t)))
      var max: (Double, Long) = null
      tree.foreachDescendingWhile { n => max = (n.score, n.t); false }
      val okAsc = asc.toSeq == sorted
      val okMin = sorted.headOption.forall { case (s, t) =>
        tree.minNode.score == s && tree.minNode.t == t }
      val okMax = sorted.lastOption == Option(max)
      okSize && okAsc && okMin && okMax
    })
  }

  test("countGreater agrees with the reference model (ScalaCheck)") {
    check(Prop.forAll(opsGen) { ops =>
      val tree = new ScoreTree
      val ref = mutable.Map[Long, Double]()
      ops.foreach {
        case (0, t, s) => if (!ref.contains(t)) { ref(t) = s; tree.insert(s, t) }
        case (1, t, _) => ref.remove(t).foreach(s => tree.delete(s, t))
        case _ =>
      }
      val sorted = refSorted(ref)
      sorted.zipWithIndex.forall { case ((s, t), i) =>
        tree.countGreater(s, t) == sorted.length - 1 - i
      }
    })
  }

  test("popMin drains in order") {
    val tree = new ScoreTree
    val xs = Seq(5.0 -> 1L, 1.0 -> 2L, 3.0 -> 3L, 4.0 -> 4L, 2.0 -> 5L)
    xs.foreach { case (s, t) => tree.insert(s, t) }
    assert(tree.popMin().score == 1.0)
    assert(tree.popMin().score == 2.0)
    assert(tree.size == 3)
  }

  test("foreachDescendingWhile stops early") {
    val tree = new ScoreTree
    (1 to 100).foreach(i => tree.insert(i.toDouble, i.toLong))
    var seen = 0
    tree.foreachDescendingWhile { _ => seen += 1; seen < 10 }
    assert(seen == 10)
  }

  test("dominance counters survive rebalancing deletes") {
    val tree = new ScoreTree
    (1 to 50).foreach(i => tree.insert(i.toDouble, i.toLong, dom = i))
    (1 to 25).foreach(i => tree.delete(i.toDouble, i.toLong))
    (26 to 50).foreach { i =>
      val n = tree.find(i.toDouble, i.toLong)
      assert(n != null && n.dom == i)
    }
  }

  test("expireThrough deletes exactly the entries stamped up to the cutoff; keys, sizes and counters stay (ScalaCheck)") {
    val gen = for {
      entries <- Gen.listOfN(200, for {
        t <- Gen.choose(1L, 400L)
        s <- Gen.choose(0, 30).map(_.toDouble)
        d <- Gen.choose(0, 9)
      } yield (t, s, d))
      cuts <- Gen.listOfN(6, Gen.choose(0L, 420L))
    } yield (entries, cuts.sorted)
    check(Prop.forAll(gen) { case (entries, cuts) =>
      val tree = new ScoreTree
      val ref = mutable.Map[Long, (Double, Int)]() // t -> (score, dom)
      entries.foreach { case (t, s, d) =>
        if (!ref.contains(t)) { ref(t) = (s, d); tree.insert(s, t, dom = d) }
      }
      cuts.forall { minT =>
        tree.expireThrough(minT)
        ref.filterInPlace { case (t, _) => t > minT }
        val want = ref.toSeq.map { case (t, (s, d)) => ((s, t), d) }.sortBy(_._1)
        val got = mutable.ArrayBuffer[((Double, Long), Int)]()
        tree.foreachAscending(n => got += (((n.score, n.t), n.dom)))
        got.toSeq == want && tree.size == want.length &&
          want.zipWithIndex.forall { case (((s, t), _), i) => tree.countGreater(s, t) == want.length - 1 - i }
      }
    })
  }

  test("TopKBuffer keeps exactly the k best") {
    val buf = new TopKBuffer(5)
    val rnd = new scala.util.Random(11)
    val xs = Array.fill(200)(rnd.nextDouble())
    xs.zipWithIndex.foreach { case (s, i) => buf.offer(s, i + 1L) }
    val expect = xs.zipWithIndex.map { case (s, i) => Event(i + 1L, s) }
      .sorted(Event.desc).take(5).toSeq
    assert(buf.toDescendingArray.toSeq == expect)
  }

  test("TopKBuffer after every offer: accepted, size and best-first contents match a sorted reference (ScalaCheck)") {
    val score = Gen.frequency(
      4 -> Gen.choose(0, 5).map(_.toDouble), // ties
      1 -> Gen.oneOf(0.0, -0.0, Double.PositiveInfinity, Double.NegativeInfinity),
      1 -> Gen.choose(-1e6, 1e6))
    val gen = for {
      k <- Gen.choose(1, 50)
      gap <- Gen.oneOf(1L, 10L)
      n <- Gen.choose(0, 300)
      scores <- Gen.listOfN(n, score)
    } yield (k, scores.zipWithIndex.map { case (s, i) => Event(gap * (i + 1), s) })
    def bits(es: Seq[Event]) = es.map(e => (e.t, java.lang.Double.doubleToRawLongBits(e.score)))
    check(Prop.forAll(gen) { case (k, events) =>
      val buf = new TopKBuffer(k)
      val seen = mutable.ArrayBuffer[Event]()
      events.forall { e =>
        val accepted = buf.offer(e.score, e.t)
        seen += e
        val want = seen.sorted(Event.desc).take(k)
        accepted == want.contains(e) && buf.size == want.length &&
          bits(buf.toDescendingArray.toSeq) == bits(want.toSeq)
      }
    })
  }

  test("refine adds the later keys above each entry to its counter and deletes at k (ScalaCheck)") {
    val stepGen = Gen.listOfN(30, Gen.listOfN(4, Gen.choose(0, 9).map(_.toDouble)))
    check(Prop.forAll(stepGen) { steps =>
      val k = 3
      val tree = new ScoreTree
      val ref = mutable.Map[(Double, Long), Int]() // live key -> dominance counter
      var t = 0L
      steps.forall { scores =>
        val best = scores.map { s => t += 1; Event(t, s) }.sorted(Event.desc).toArray
        tree.refine(best, k)
        for (key <- ref.keys.toSeq) {
          val d = ref(key) + best.count(e => Event.gt(e.score, e.t, key._1, key._2))
          if (d >= k) ref.remove(key) else ref(key) = d
        }
        best.foreach(e => ref((e.score, e.t)) = 0)
        val got = mutable.ArrayBuffer[((Double, Long), Int)]()
        tree.foreachAscending(n => got += (((n.score, n.t), n.dom)))
        got.toSeq == ref.toSeq.sortBy(_._1)
      }
    })
  }
}
