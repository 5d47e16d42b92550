package repro.stream

import org.scalacheck.{Gen, Prop, Test => SCTest}
import org.scalatest.funsuite.AnyFunSuite
import repro.baselines.BruteForce
import repro.core._
import scala.util.Random

/** Every algorithm of the registry and Table 2's three formation policies
  * against `BruteForce`, over random small queries ⟨n, k, s⟩ (n ≤ 240) and
  * streams built to break merges and dominance counters: ties, constant
  * scores, ±Inf, monotone runs, all-negative scores, signed zeros and
  * gapped stamps. Time-based queries ⟨m ≤ 24, k ≤ 30⟩ run `Sap` under the
  * three formation policies and every `EqualPartitioner(p)`, p = 1..m, on
  * the same score streams cut into slides of 0 to 30 objects.
  */
class RegistryFuzzSpec extends AnyFunSuite {

  /** Run a ScalaCheck property under ScalaTest (no scalatestplus offline);
    * a failure reports the failing case's label.
    */
  private def check(prop: Prop, cases: Int): Unit = {
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(cases), prop)
    assert(res.passed, res.status match {
      case SCTest.Failed(_, labels) => labels.mkString("; ")
      case other                    => other.toString
    })
  }

  private val algorithms: Seq[(String, TopKQuery => ContinuousTopK)] =
    Evaluation.algorithms.toSeq.sortBy(_._1) ++
      Tables.formations.map { case (v, _) => val r = Tables.equalRow(v, 5); r.label -> r.make }

  /** Score streams by kind; each is a function of (length, seed). */
  private val streams: Seq[(String, (Int, Long) => Array[Double])] = Seq(
    "random" -> ((len, seed) => { val r = new Random(seed); Array.fill(len)(r.nextDouble()) }),
    "constant" -> ((len, _) => Array.fill(len)(1.0)),
    "few distinct" -> ((len, seed) => { val r = new Random(seed); Array.fill(len)(r.nextInt(3).toDouble) }),
    "±Inf mixed" -> ((len, seed) => {
      val r = new Random(seed)
      Array.fill(len)(r.nextInt(8) match {
        case 0 => Double.PositiveInfinity
        case 1 => Double.NegativeInfinity
        case _ => r.nextGaussian()
      })
    }),
    "monotone runs" -> ((len, seed) => {
      val r = new Random(seed)
      var x = 0.0
      var step = 1.0
      Array.tabulate(len) { i =>
        if (i % (1 + r.nextInt(40)) == 0) step = if (r.nextBoolean()) 1.0 else -1.0
        x += step
        x
      }
    }),
    "all negative" -> ((len, seed) => { val r = new Random(seed); Array.fill(len)(-1.0 - r.nextDouble()) }),
    // 0.0 and -0.0 are one score, so their tie goes to the later stamp
    "signed zeros" -> ((len, seed) => {
      val r = new Random(seed)
      val pool = Array(0.0, -0.0, 1.0, -1.0, 2.0)
      Array.fill(len)(pool(r.nextInt(pool.length)))
    }),
  )

  /** (stamp spacing, scores) as a stream: t = spacing·i. */
  private def events(scores: Array[Double], spacing: Long): Array[Event] =
    Array.tabulate(scores.length)(i => Event(spacing * (i + 1), scores(i)))

  /** The name of each algorithm whose answers differ from `BruteForce`. */
  private def mismatches(evs: Array[Event], q: TopKQuery): Seq[String] = {
    val ref = SlideRunner.run(new BruteForce(_), "brute", "fuzz", evs, q)
    algorithms.collect {
      case (name, make) if SlideRunner.run(make, name, "fuzz", evs, q).resultDigest != ref.resultDigest => name
    }
  }

  private def checkCase(q: TopKQuery, kind: Int, spacing: Long, slidesAfter: Int, seed: Long): Prop = {
    val (sn, gen) = streams(kind)
    val evs = events(gen(q.n + q.s * slidesAfter, seed), spacing)
    val bad = mismatches(evs, q)
    Prop(bad.isEmpty) :| s"$q, $sn scores, t=${spacing}i, ${evs.length} events, seed $seed: ${bad.mkString(", ")}"
  }

  private val queryGen: Gen[TopKQuery] = for {
    s <- Gen.frequency(3 -> Gen.choose(1, 24), 1 -> Gen.const(1))
    m <- Gen.frequency(4 -> Gen.choose(1, 240 / s), 1 -> Gen.const(1)) // m = 1: s = n
    n = s * m
    k <- Gen.frequency(4 -> Gen.choose(1, n), 1 -> Gen.const(1), 1 -> Gen.const(n))
  } yield TopKQuery(n, k, s)

  test("every registry algorithm and Table 2 formation == brute force on random queries and streams (ScalaCheck)") {
    check(Prop.forAllNoShrink(queryGen, Gen.choose(0, streams.length - 1), Gen.oneOf(1L, 10L),
      Gen.choose(0, 30), Gen.choose(0L, 1L << 20)) { (q, kind, spacing, after, seed) =>
      checkCase(q, kind, spacing, math.min(after, 3 * q.m), seed)
    }, cases = 500)
  }

  // The edges, on every stream kind: k = n, s = n, k > s, k = 1, s = 1.
  for {
    (n, k, s) <- Seq((240, 240, 24), (120, 7, 120), (240, 40, 8), (200, 1, 10), (60, 9, 1), (240, 240, 240))
    kind <- streams.indices
  } test(s"every registry algorithm and Table 2 formation == brute force at n=$n k=$k s=$s on ${streams(kind)._1} scores") {
    val q = TopKQuery(n, k, s)
    Seq(1L, 10L).foreach { spacing =>
      val evs = events(streams(kind)._2(4 * n, 11L), spacing)
      val bad = mismatches(evs, q)
      assert(bad.isEmpty, s"t=${spacing}i: ${bad.mkString(", ")}")
    }
  }

  // ------------------------------------------------------ time-based windows

  /** Objects per slide: 0 to 30, with runs of up to m empty slides. */
  private def slideSizes(count: Int, m: Int, seed: Long): Array[Int] = {
    val r = new Random(seed)
    val sizes = new Array[Int](count)
    var i = 0
    while (i < count) {
      if (r.nextInt(4) == 0) i += 1 + r.nextInt(m) // a run of empty slides
      else { sizes(i) = r.nextInt(31); i += 1 }
    }
    sizes
  }

  /** Slides of `sizes` objects, scored by stream kind `kind`, t = spacing·i. */
  private def timeSlides(sizes: Array[Int], kind: Int, spacing: Long, seed: Long): Array[Array[Event]] = {
    val evs = events(streams(kind)._2(sizes.sum, seed), spacing)
    var off = 0
    sizes.map { len => off += len; evs.slice(off - len, off) }
  }

  /** Each `Sap` whose answers to `slides`, fed through `processSlide`,
    * differ from `BruteForce`'s, with the first slide that differs.
    */
  private def timeMismatches(q: TimeQuery, slides: Array[Array[Event]]): Seq[String] = {
    val brute = new BruteForce(q)
    val ref = slides.map(brute.processSlide(_).map(_.toSeq))
    for {
      (_, f) <- Tables.formations
      p <- 1 to q.m
      bad <- {
        val sap = new Sap(q, new EqualPartitioner(p), f)
        try slides.indices.find(i => sap.processSlide(slides(i)).map(_.toSeq) != ref(i)).map(i => s"slide $i")
        catch { case e: RuntimeException => Some(e.toString) }
      }
    } yield s"$f p=$p: $bad"
  }

  private val timeQueryGen: Gen[TimeQuery] = for {
    m <- Gen.frequency(4 -> Gen.choose(1, 24), 1 -> Gen.const(1))
    k <- Gen.frequency(4 -> Gen.choose(1, 30), 1 -> Gen.const(1))
  } yield TimeQuery(m, k)

  test("Sap under every formation and EqualPartitioner(p) == brute force on random time-based queries and streams (ScalaCheck)") {
    check(Prop.forAllNoShrink(timeQueryGen, Gen.choose(0, streams.length - 1), Gen.oneOf(1L, 10L),
      Gen.choose(0, 30), Gen.choose(0L, 1L << 20)) { (q, kind, spacing, after, seed) =>
      val slides = timeSlides(slideSizes(q.m + math.min(after, 3 * q.m), q.m, seed), kind, spacing, seed)
      val bad = timeMismatches(q, slides)
      Prop(bad.isEmpty) :| s"$q, ${streams(kind)._1} scores, t=${spacing}i, ${slides.length} slides, seed $seed: ${bad.mkString(", ")}"
    }, cases = 300)
  }

  // The edges, on every stream kind: m = 1; k above every window (6 slides
  // of at most 30 objects); a fully empty window at the start and one
  // mid-stream; a partition of over k objects that drains into a window of
  // under k, which then answers all of them. Every case runs p = 1 and p = m.
  for {
    (what, q, sizes) <- Seq(
      ("m = 1", TimeQuery(1, 4), Array.tabulate(60)(i => i * 7 % 31)),
      ("k above every window", TimeQuery(6, 200), Array.tabulate(60)(i => i * 11 % 31)),
      ("fully empty windows", TimeQuery(8, 5), Array.tabulate(60)(i => if (i < 10 || i / 10 == 3) 0 else i % 30)),
      ("windows of under k objects after a burst", TimeQuery(6, 20), Array.tabulate(60)(i => if (i % 12 < 2) 12 else 0)),
    )
    kind <- streams.indices
  } test(s"Sap under every formation and EqualPartitioner(p) == brute force on time-based windows: $what, ${streams(kind)._1} scores") {
    Seq(1L, 10L).foreach { spacing =>
      val bad = timeMismatches(q, timeSlides(sizes, kind, spacing, 11L))
      assert(bad.isEmpty, s"t=${spacing}i: ${bad.mkString(", ")}")
    }
  }
}
