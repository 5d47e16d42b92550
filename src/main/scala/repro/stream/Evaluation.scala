package repro.stream

import repro.baselines.{BruteForce, KSkyband, MinTopK, Sma}
import repro.core._

/** The algorithms and parameter grids that the evaluation tables
  * ([[Tables]]) are built from.
  *
  * The paper streams 10⁶–10⁸ objects through a C++ implementation; we
  * stream |D| = 120k (regular tables) / 240k (high-speed tables) objects
  * through the JVM with n, k, s at the paper's ratios — see DESIGN.md §4.
  */
object Evaluation {
  /** Regular-speed dataset size (Tables 2, 3, 6, 8). */
  val RegularD = 120_000
  /** High-speed dataset size (Tables 5, 7, 9). */
  val HighD = 240_000

  // Regular-speed sweeps (defaults bolded in the paper: n=2%|D| here,
  // k=100, s=1%n — the paper's 0.1%|D|, 100, 0.1%n at its |D|).
  val RegN = Seq(600, 1200, 2400, 4800) // 0.5%..4% of |D|
  val RegK = Seq(10, 50, 100, 250, 500)
  val RegS: Int => Seq[Int] = n => Seq(math.max(1, n / 1000), n / 100, n / 20, n / 10)
  val RegDefault: (Int, Int, Int) = (2400, 100, 24)

  // High-speed sweeps (paper Table 4: n=10–50%|D|, k=500–50000, s≤10%n).
  val HighN = Seq(24_000, 48_000, 72_000, 96_000, 120_000)
  val HighK = Seq(500, 1000, 2500, 5000)
  val HighS: Int => Seq[Int] = n => Seq(n / 1000, n / 100, n / 50, n / 20, n / 10)
  val HighDefault: (Int, Int, Int) = (48_000, 1000, 960)

  /** Every algorithm the tables compare, by name; "SAP" is an alias of
    * "EN-DYNA" (see `canonical`).
    */
  val algorithms: Map[String, TopKQuery => ContinuousTopK] = Map(
    "EN-DYNA" -> (q => new Sap(q, new EnhancedDynamicPartitioner, Formation.DelayedSAvl)),
    "DYNA" -> (q => new Sap(q, new DynamicPartitioner, Formation.DelayedSAvl)),
    "EQUAL" -> (q => new Sap(q, EqualPartitioner.atMStar(q), Formation.DelayedSAvl)),
    "minTopK" -> (q => new MinTopK(q)),
    "k-skyband" -> (q => new KSkyband(q)),
    "SMA" -> (q => new Sma(q)),
    "brute" -> (q => new BruteForce(q)),
  )

  /** The registry name of `algo`: the paper's SAP is EN-DYNA with S-AVL
    * and UBSA formation, one configuration under two names.
    */
  def canonical(algo: String): String = if (algo == "SAP") "EN-DYNA" else algo

  def factory(algo: String): TopKQuery => ContinuousTopK = algorithms(canonical(algo))

  /** The regular parameter grid of Tables 3/6/8: the n sweep, k sweep and
    * s sweep around the default point, without repeats.
    */
  def regularGrid: Seq[(Int, Int, Int)] = {
    val (n0, k0, s0) = RegDefault
    (RegN.map(n => (n, k0, n / 100)) ++
      RegK.map(k => (n0, k, s0)) ++
      RegS(n0).map(s => (n0, k0, s))).distinct
  }

  def highGrid: Seq[(Int, Int, Int)] = {
    val (n0, k0, s0) = HighDefault
    (HighN.map(n => (n, k0, n / 50)) ++
      HighK.map(k => (n0, k, s0)) ++
      HighS(n0).map(s => (n0, k0, s))).distinct
  }
}
