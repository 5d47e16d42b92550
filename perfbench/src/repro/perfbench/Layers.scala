package repro.perfbench

import repro.core._
import repro.spark.{PerfbenchStateCodec, StreamState}
import scala.collection.mutable.ArrayBuffer

/** The traced run: spans around calls into each module's public functions,
  * with inputs cut from the workload's own stream and ⟨n, k, s⟩.
  */
object Layers {
  private val Reps = 5

  /** Median over `Reps` repetitions of CPU ns per operation; `body` runs
    * one repetition and returns how many operations it timed.
    */
  private def nsPerOp(body: => Long): Double = repMedian {
    val c0 = Clock.cpu()
    val ops = body
    (Clock.cpu() - c0).toDouble / math.max(1L, ops)
  }

  private def repMedian(body: => Double): Double = Stats.median((1 to Reps).map(_ => body))

  /** Best-first top-`k` scores of events [from, until) of `ev`. */
  private def topScores(ev: Array[Event], from: Int, until: Int, k: Int): Array[Double] = {
    val xs = java.util.Arrays.copyOfRange(ev, math.max(0, from), math.max(from, until)).map(_.score)
    java.util.Arrays.sort(xs)
    xs.reverse.take(k)
  }

  private def topDesc(ev: Array[Event], from: Int, until: Int, k: Int): Array[Event] = {
    val buf = new TopKBuffer(k)
    var i = from
    while (i < until) { buf.offer(ev(i).score, ev(i).t); i += 1 }
    buf.toDescendingArray
  }

  // ------------------------------------------------------------ sap, driver

  final class SlideTrace {
    val plain = new Samples
    val unit = new Samples
    var unitCpu = 0L
    var allCpu = 0L
    var partsLive = 0L
    var partSamples = 0L
    val metricSample = new Samples
    var sink = 0L
    var untracedCpu = 0L
    var untracedEvents = 0L
    var tracedCpu = 0L
    var tracedEvents = 0L
    /** CPU ns of the slides of each micro-batch. */
    val batchAlgo = new Samples
  }

  /** Passes over the stream until `deadline` (and at least two),
    * alternating an untraced pass (spans only) and a traced one (spans plus
    * slide classification, partition counts and metric sampling). The
    * ratio of their loop CPU per event is the tracing overhead.
    */
  def slides(p: Prepared, deadline: Long, v: Verdict, out: SlideTrace): Unit = {
    val unitSz = Factories.partitioner.unitSize(p.q)
    val per = Workloads.SlidesPerBatch
    val spans = new Array[Long](p.slides.length)
    var passes = 0
    def more = (Clock.wall() < deadline || passes < 2) && v.ok
    while (more) {
      val traced = passes % 2 == 1
      val algo = SlideLoop.fill(p, v)
      val loop0 = Clock.cpu()
      var i = p.firstAnswer + 1
      try {
        while (i < p.slides.length && more) {
          val c0 = Clock.cpu()
          val r = algo.processSlide(p.slides(i))
          val span = Clock.cpu() - c0
          spans(i) = span
          if (traced) {
            if (((i + 1L) * p.q.s) % unitSz == 0) { out.unit.add(span); out.unitCpu += span }
            else out.plain.add(span)
            out.allCpu += span
            algo match {
              case sap: Sap => out.partsLive += sap.partitionSizes.length; out.partSamples += 1
              case _ =>
            }
            val m0 = Clock.cpu()
            out.sink += algo.candidateCount + algo.memoryBytes
            out.metricSample.add(Clock.cpu() - m0)
          }
          v.check(p, i, r)
          i += 1
        }
      } catch { case e: Exception => v.fail(s"slide $i", e) }
      val events = (i - p.firstAnswer - 1).toLong * p.q.s
      if (traced) { out.tracedCpu += Clock.cpu() - loop0; out.tracedEvents += events }
      else { out.untracedCpu += Clock.cpu() - loop0; out.untracedEvents += events }
      // batches wholly inside the answered part of this pass
      var b = (p.firstAnswer + per) / per
      while ((b + 1) * per <= i) {
        var sum = 0L; var j = b * per
        while (j < (b + 1) * per) { sum += spans(j); j += 1 }
        out.batchAlgo.add(sum)
        b += 1
      }
      passes += 1
    }
  }

  /** Per-slide cost of cutting slides out of the stream, as `SlideRunner`
    * does inside its timed loop.
    */
  def slideCopyNs(p: Prepared): Double = nsPerOp {
    var i = 0; var sink = 0L
    while (i + p.q.s <= p.events.length) {
      sink += java.util.Arrays.copyOfRange(p.events, i, i + p.q.s).length
      i += p.q.s
    }
    sink / p.q.s
  }

  // -------------------------------------------------------------- scoretree

  /** TopKBuffer offers as a unit's U^k sees them; then ScoreTree inserts
    * and deletes on a FIFO tree of the candidate-set size; then descending
    * walks of k nodes, as answer assembly does.
    */
  def scoreTree(p: Prepared, candidates: Int, m: Metrics): Unit = {
    val ev = p.events
    val k = p.q.k
    val unitSz = Factories.partitioner.unitSize(p.q)
    val a0 = Clock.alloc()
    var ops = 0L
    m.put("scoretree.topk_offer_ns", nsPerOp {
      var buf = new TopKBuffer(k)
      var i = 0
      while (i < ev.length) {
        buf.offer(ev(i).score, ev(i).t)
        i += 1
        if (i % unitSz == 0) buf = new TopKBuffer(k)
      }
      ops += ev.length
      ev.length
    }, "ns")

    val size = math.max(k, candidates)
    val rounds = math.max(1, math.min(ev.length / size - 1, 4_000_000 / size))
    def fifo(body: (ScoreTree, Int) => Unit): Unit = {
      val tree = new ScoreTree
      var i = 0
      while (i < size) { tree.insert(ev(i).score, ev(i).t); i += 1 }
      var r = 0
      while (r < rounds) { body(tree, r); r += 1 }
    }
    var insCpu = 0L; var delCpu = 0L
    val insDel = (1 to Reps).map { _ =>
      insCpu = 0L; delCpu = 0L
      fifo { (tree, r) =>
        val base = (r + 1) * size
        val c0 = Clock.cpu()
        var i = 0
        while (i < size) { tree.insert(ev(base + i).score, ev(base + i).t); i += 1 }
        val c1 = Clock.cpu()
        i = 0
        while (i < size) { tree.delete(ev(base - size + i).score, ev(base - size + i).t); i += 1 }
        insCpu += c1 - c0
        delCpu += Clock.cpu() - c1
      }
      ops += 2L * rounds * size
      (insCpu.toDouble / (rounds.toLong * size), delCpu.toDouble / (rounds.toLong * size))
    }
    m.put("scoretree.insert_ns", Stats.median(insDel.map(_._1)), "ns")
    m.put("scoretree.delete_ns", Stats.median(insDel.map(_._2)), "ns")
    m.put("scoretree.alloc_bytes_per_op", (Clock.alloc() - a0).toDouble / ops, "B")

    val tree = new ScoreTree
    var i = 0
    while (i < size) { tree.insert(ev(i).score, ev(i).t); i += 1 }
    val walks = math.max(1, 2_000_000 / k)
    m.put("scoretree.desc_walk_ns", nsPerOp {
      var visited = 0L; var w = 0
      while (w < walks) {
        var c = 0
        tree.foreachDescendingWhile { _ => c += 1; c < k }
        visited += c; w += 1
      }
      visited
    }, "ns")
  }

  // ------------------------------------------------- wrt, partitioner, tbui

  /** One unit-completion decision of the dynamic partitioner, with inputs
    * cut from the stream the way `Sap` assembles them.
    */
  final case class JoinCall(curSize: Int, merged: Array[Double], history: Array[Double])

  final case class Partition(start: Int, end: Int) // event indices [start, end)

  /** Replays partition growth over the stream: at every unit boundary the
    * partitioner decides join-or-finalize on the merged top-k of the
    * current partition plus the unit, against the top-ηk of the lookback
    * interval. Returns the calls and the finalized partitions.
    */
  def joinCalls(p: Prepared, maxCalls: Int): (Seq[JoinCall], Seq[Partition]) = {
    val q = p.q
    val ev = p.events
    val unitSz = Factories.partitioner.unitSize(q)
    val etaK = Wrt.etaK(q.k)
    val calls = ArrayBuffer[JoinCall]()
    val parts = ArrayBuffer[Partition]()
    var curStart = 0
    var end = unitSz
    while (end + unitSz <= ev.length && calls.length < maxCalls) {
      val t0 = end + unitSz // arrivals after the new unit
      val pSize = t0 - curStart
      val merged = topScores(ev, curStart, t0, q.k)
      val history = topScores(ev, t0 - q.n + pSize, curStart, etaK)
      val call = JoinCall(end - curStart, merged, history)
      if (t0 >= q.n) calls += call
      if (!Factories.partitioner.join(q, call.curSize, merged, history)) {
        parts += Partition(curStart, end)
        curStart = end
      }
      end = t0
    }
    (calls.toSeq, parts.toSeq)
  }

  def wrtAndJoin(p: Prepared, calls: Seq[JoinCall], m: Metrics): Unit = {
    val q = p.q
    val withHistory = calls.filter(_.history.nonEmpty)
    m.put("wrt.evaluate_us", nsPerOp {
      var sink = 0.0
      withHistory.foreach(c => sink += Wrt.evaluate(c.merged, c.history))
      if (sink.isNaN) 0L else withHistory.length.toLong
    } / 1e3, "us")
    var accepted = 0
    m.put("partitioner.join_us", nsPerOp {
      accepted = 0
      calls.foreach(c => if (Factories.partitioner.join(q, c.curSize, c.merged, c.history)) accepted += 1)
      calls.length.toLong
    } / 1e3, "us")
    m.put("partitioner.join_accept_ratio", accepted.toDouble / math.max(1, calls.length), "ratio")
  }

  /** Tbui over the stream: every arrival's score, and a unit completion
    * (with the unit's precomputed top-k) every unit.
    */
  def tbui(p: Prepared, maxUnits: Int, m: Metrics): Unit = {
    val ev = p.events
    val k = p.q.k
    val unitSz = Factories.partitioner.unitSize(p.q)
    val units = math.min(maxUnits, ev.length / unitSz)
    val tops = Array.tabulate(units)(u => topDesc(ev, u * unitSz, (u + 1) * unitSz, k))
    val complete = new Samples
    var kUnits = 0
    m.put("tbui.on_object_ns", repMedian {
      val tb = new Tbui(k)
      var onObject = 0L
      val summaries = new Array[UnitSummary](units)
      var u = 0
      while (u < units) {
        val c0 = Clock.cpu()
        var i = u * unitSz
        while (i < (u + 1) * unitSz) { tb.onObject(ev(i).score); i += 1 }
        val c1 = Clock.cpu()
        summaries(u) = tb.completeUnit(tops(u), u * unitSz + 1L, (u + 1L) * unitSz + 1L)
        complete.add(Clock.cpu() - c1)
        onObject += c1 - c0
        u += 1
      }
      kUnits = summaries.count(_.kUnit)
      onObject.toDouble / (units.toLong * unitSz)
    }, "ns")
    m.put("tbui.complete_unit_us", Stats.quantile(complete.sorted, 0.5) / 1e3, "us")
    m.put("tbui.k_unit_share", kUnits.toDouble / math.max(1, units), "ratio")
  }

  // ------------------------------------------------------ meaningful, ring

  /** M_i formation as `Sap.prepareFront` does it, for each replayed
    * partition whose group dominance number ρ is below k: a reverse-arrival
    * scan of the partition minus its top-k into an S-AVL with limit k − ρ
    * and the global threshold Fθ (k-th best score of the later part of the
    * window); then the drain, one slide at a time: `expire` and
    * `collectTop(k)`.
    */
  def meaningful(p: Prepared, parts: Seq[Partition], m: Metrics): Unit = {
    val q = p.q
    val ev = p.events
    final case class Front(part: Partition, limit: Int, fTheta: Double, topTs: Set[Long])
    val fronts = parts.filter(pt => pt.start + q.n <= ev.length).flatMap { pt =>
      val later = topDesc(ev, pt.end, pt.start + q.n, q.k)
      val own = topDesc(ev, pt.start, pt.end, q.k)
      val minTop = own.last
      val rho = later.count(e => Event.gt(e.score, e.t, minTop.score, minTop.t))
      if (rho >= q.k || later.length < q.k) None
      else Some(Front(pt, q.k - rho, later.last.score, own.map(_.t).toSet))
    }
    val inserts = new Samples; val expires = new Samples; val collects = new Samples
    var tried = 0L; var admitted = 0L
    val formed = if (fronts.nonEmpty) fronts else parts.take(1).map { pt =>
      // no partition of this stream needs M_i: measure the structure at ρ = 0
      Front(pt, q.k, Double.NegativeInfinity, topDesc(ev, pt.start, pt.end, q.k).map(_.t).toSet)
    }
    (1 to Reps).foreach { _ =>
      formed.foreach { f =>
        val savl = new SAvl(f.limit, f.fTheta)
        val c0 = Clock.cpu()
        var i = f.part.end - 1
        var n = 0L; var in = 0L
        while (i >= f.part.start) {
          val e = ev(i)
          if (!f.topTs.contains(e.t)) { n += 1; if (savl.insert(e.score, e.t)) in += 1 }
          i -= 1
        }
        inserts.add((Clock.cpu() - c0) / math.max(1L, n))
        tried += n; admitted += in
        var cut = f.part.start
        while (cut < f.part.end) {
          val next = math.min(cut + q.s, f.part.end)
          val outgoing = java.util.Arrays.copyOfRange(ev, cut, next)
          val e0 = Clock.cpu()
          savl.expire(outgoing, ev(next - 1).t)
          val e1 = Clock.cpu()
          savl.collectTop(q.k)
          collects.add(Clock.cpu() - e1)
          expires.add(e1 - e0)
          cut = next
        }
      }
    }
    m.put("meaningful.savl_insert_ns", Stats.quantile(inserts.sorted, 0.5), "ns")
    m.put("meaningful.savl_admit_ratio", admitted.toDouble / math.max(1L, tried), "ratio")
    m.put("meaningful.savl_collect_top_us", Stats.quantile(collects.sorted, 0.5) / 1e3, "us")
    m.put("meaningful.savl_expire_us", Stats.quantile(expires.sorted, 0.5) / 1e3, "us")
    Console.err.println(s"[perfbench] meaningful: ${fronts.length} of ${parts.length} replayed partitions need M_i")
  }

  /** `WindowRing.at` over a full window, newest first, as M_i scans read it. */
  def ring(p: Prepared, m: Metrics): Unit = {
    val ring = new WindowRing(p.q.n)
    p.events.foreach(ring.append)
    val last = ring.lastT
    m.put("ring.at_ns", nsPerOp {
      var t = last; var sink = 0L
      while (t > last - p.q.n) { sink += ring.at(t).t; t -= 1 }
      if (sink == 0L) 0L else p.q.n.toLong
    }, "ns")
  }

  // ------------------------------------------------------------------ spark

  /** The operator state at up to 16 evenly spaced batch boundaries of one
    * pass: serialize and deserialize through the operator's codec.
    */
  def sparkState(p: Prepared, v: Verdict, m: Metrics): Unit = {
    val ser = new Samples; val deser = new Samples
    var bytes = 0.0; var states = 0L
    val stride = SlideLoop.batchStride(p, 16)
    val algo = SlideLoop.fill(p, v)
    var i = p.firstAnswer + 1
    while (i < p.slides.length) {
      v.check(p, i, algo.processSlide(p.slides(i)))
      if ((i + 1) % stride == 0) {
        val st = new StreamState(algo, Array.empty, 0L)
        val c0 = Clock.cpu()
        val b = PerfbenchStateCodec.serialize(st)
        val c1 = Clock.cpu()
        PerfbenchStateCodec.deserialize(b)
        deser.add(Clock.cpu() - c1)
        ser.add(c1 - c0)
        bytes += b.length; states += 1
      }
      i += 1
    }
    m.put("spark.state_ser_ms", Stats.quantile(ser.sorted, 0.5) / 1e6, "ms")
    m.put("spark.state_deser_ms", Stats.quantile(deser.sorted, 0.5) / 1e6, "ms")
    m.put("spark.state_bytes", bytes / states, "B")
  }
}
