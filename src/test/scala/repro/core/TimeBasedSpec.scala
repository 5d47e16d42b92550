package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.baselines.BruteForce
import scala.util.Random

/** Time-based windows (Appendix A): variable objects per slide. */
class TimeBasedSpec extends AnyFunSuite {

  /** Random time-based stream: `slides` batches with 0..maxPerSlide events. */
  private def randomSlides(slides: Int, maxPerSlide: Int, seed: Int): Array[Array[Event]] = {
    val rnd = new Random(seed)
    var t = 0L
    Array.fill(slides) {
      val cnt = rnd.nextInt(maxPerSlide + 1)
      Array.fill(cnt) { t += 1; Event(t, rnd.nextDouble() * 100 + 1e-9 * t) }
    }
  }

  /** `Sap` with delayed exact formation over `EqualPartitioner(p)`, by
    * default p = ⌈√w⌉.
    */
  private def compare(k: Int, w: Int, slides: Array[Array[Event]],
                      p: Option[Int] = None): Unit = {
    val q = TimeQuery(w, k)
    val brute = new BruteForce(q)
    val sap = new Sap(q, new EqualPartitioner(p.getOrElse(math.ceil(math.sqrt(w)).toInt)),
      Formation.DelayedExact)
    slides.foreach { batch =>
      val a = brute.processSlide(batch).map(_.map(_.score).toSeq)
      val b = sap.processSlide(batch).map(_.map(_.score).toSeq)
      assert(a == b, s"divergence: brute=$a sap=$b")
    }
  }

  for (seed <- 1 to 8)
    test(s"TimeBasedSap == brute force on random variable-rate stream (seed=$seed)") {
      compare(k = 5, w = 12, randomSlides(200, 30, seed))
    }

  test("handles empty slides (no arrivals in an interval)") {
    val rnd = new Random(77)
    var t = 0L
    val slides = Array.tabulate(150) { i =>
      if (i % 3 == 0) Array.empty[Event]
      else Array.fill(rnd.nextInt(20)) { t += 1; Event(t, rnd.nextDouble()) }
    }
    compare(k = 4, w = 9, slides)
  }

  test("handles windows with fewer than k objects") {
    val rnd = new Random(5)
    var t = 0L
    val slides = Array.fill(100) {
      Array.fill(rnd.nextInt(2)) { t += 1; Event(t, rnd.nextDouble()) }
    }
    compare(k = 10, w = 8, slides)
  }

  // 1, 2, 3, 6 and 12 slides per partition of a 12-slide window
  test("explicit slides-per-partition settings all agree with brute force") {
    for (p <- Seq(12, 6, 4, 2, 1))
      compare(k = 6, w = 12, randomSlides(180, 25, 42), Some(p))
  }

  test("gapped stamps t=10i on random variable-rate streams, every slides-per-partition setting") {
    def gapped(slides: Array[Array[Event]]) = slides.map(_.map(e => Event(10 * e.t, e.score)))
    for (seed <- 1 to 8) compare(k = 5, w = 12, gapped(randomSlides(200, 30, seed)))
    for (p <- Seq(12, 6, 4, 2, 1))
      compare(k = 6, w = 12, gapped(randomSlides(180, 25, 42)), Some(p))
  }

  test("bursty rates (heavy slides after quiet ones)") {
    val rnd = new Random(9)
    var t = 0L
    val slides = Array.tabulate(120) { i =>
      val cnt = if (i % 10 == 9) 200 else 2
      Array.fill(cnt) { t += 1; Event(t, rnd.nextDouble() * 10) }
    }
    compare(k = 8, w = 10, slides)
  }

  test("monotone decreasing scores across a time-based stream") {
    var t = 0L
    val slides = Array.tabulate(120) { _ =>
      Array.fill(7) { t += 1; Event(t, 1e6 - t.toDouble) }
    }
    compare(k = 5, w = 10, slides)
  }

  test("a time query takes only an EqualPartitioner") {
    for (p <- Seq(new DynamicPartitioner, new EnhancedDynamicPartitioner);
         f <- Seq(Formation.EagerExact, Formation.DelayedExact, Formation.DelayedSAvl))
      assertThrows[IllegalArgumentException](new Sap(TimeQuery(12, 5), p, f))
  }
}
