package repro.core

/** Decides the sub-window layout of the SAP framework (§4).
  *
  * Partitions are assembled from *units*: the SAP driver completes a unit
  * every `unitSize` arrivals and asks the partitioner whether the unit
  * should join the current partition or start a new one. Unit sizes are a
  * multiple of s and at least max(s, k), so every partition automatically
  * satisfies the paper's two structural constraints (§4).
  */
trait Partitioner extends Serializable {
  /** Unit granularity (and minimum partition size) for this query. */
  def unitSize(q: TopKQuery): Int

  /** Should the just-completed unit join the current partition?
    *
    * @param curSize        objects already in the current partition (> 0)
    * @param mergedTopK     top-k scores of partition ∪ unit, best-first
    * @param historyTopEtaK top-ηk candidate scores of the lookback interval
    *                       I = [t0 − n + |P′|, t0), best-first (may be
    *                       shorter early in the stream)
    */
  def join(q: TopKQuery, curSize: Int, mergedTopK: Array[Double],
           historyTopEtaK: Array[Double]): Boolean

  /** Whether the SAP driver should run TBUI and use UBSA unit-skipping. */
  def useTbui: Boolean = false
}

object Partitioner {
  /** m* = ⌈√(n / max(s,k))⌉ — the resolution minimizing the |C ∪ M0| upper
    * bound under equal partitioning (§4.1).
    */
  def mStar(q: TopKQuery): Int =
    math.ceil(math.sqrt(q.n.toDouble / math.max(q.s, q.k))).toInt.max(1)

  /** l_min = √(n · max(s,k)) = n/m*, rounded to the structural constraints:
    * a multiple of s and at least max(s, k) (§4.2).
    */
  def lMin(q: TopKQuery): Int = {
    val raw = math.sqrt(q.n.toDouble * math.max(q.s, q.k))
    roundToSlide(q, raw)
  }

  /** l_max: solution of (n − l)/l = η, i.e. l = n/(1 + η) (§4.2). */
  def lMax(q: TopKQuery): Int = {
    val raw = q.n.toDouble / (1.0 + Wrt.eta(q.k))
    math.max(lMin(q), roundToSlide(q, raw))
  }

  /** Round to a positive multiple of s that is ≥ max(s,k) and ≤ n. */
  private[core] def roundToSlide(q: TopKQuery, raw: Double): Int = {
    val floor = math.max(q.s.toLong, ((math.max(q.s, q.k) + q.s - 1L) / q.s) * q.s)
    val mult = math.max(1L, math.round(raw / q.s)) * q.s
    math.min(q.n.toLong, math.max(floor, mult)).toInt
  }
}

/** Equal partitioning (§4.1): every partition is exactly one unit of size
  * n/m (rounded to the structural constraints). With m = m* this is the
  * configuration whose |C ∪ M0| bound is minimized; with n/m ≤ s it
  * degenerates to MinTopK, as the paper notes. It is the one partitioner
  * of a time-based query: `Sap` makes each unit ⌈w/m⌉ of its w slides.
  */
final class EqualPartitioner(private[core] val m: Int) extends Partitioner {
  require(m >= 1)

  override def unitSize(q: TopKQuery): Int = Partitioner.roundToSlide(q, q.n.toDouble / m)

  override def join(q: TopKQuery, curSize: Int, mergedTopK: Array[Double],
                    historyTopEtaK: Array[Double]): Boolean = false
}

object EqualPartitioner {
  /** Equal partitioning at the cost-model optimum m*. */
  def atMStar(q: TopKQuery): EqualPartitioner = new EqualPartitioner(Partitioner.mStar(q))
}

/** Dynamic partitioning (§4.2): units of size l_min; a unit joins the
  * current partition while the WRT evaluation F(P′^k, I_ηk) ≤ 0 (the
  * partition's top-k does *not* significantly out-score the recent
  * history's top-ηk) and the partition stays within l_max.
  */
class DynamicPartitioner extends Partitioner {
  override def unitSize(q: TopKQuery): Int = Partitioner.lMin(q)

  override def join(q: TopKQuery, curSize: Int, mergedTopK: Array[Double],
                    historyTopEtaK: Array[Double]): Boolean = {
    if (curSize + unitSize(q) > Partitioner.lMax(q)) return false
    // Too little history to test against: keep growing (early stream).
    if (historyTopEtaK.length < Wrt.etaK(q.k)) return true
    Wrt.evaluate(mergedTopK, historyTopEtaK) <= 0.0
  }
}

/** Enhanced dynamic partitioning (§4.3): the dynamic join rule plus TBUI
  * unit labelling and UBSA unit-skipping S-AVL construction in the driver.
  */
final class EnhancedDynamicPartitioner extends DynamicPartitioner {
  override def useTbui: Boolean = true
}
