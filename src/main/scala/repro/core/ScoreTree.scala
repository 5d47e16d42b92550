package repro.core

/** Mutable order-statistics AVL tree keyed by the composite (score, t).
  *
  * Every algorithm in this reproduction needs the same primitive: a sorted
  * set of (score, arrival) pairs with O(log n) insert/delete/min, rank
  * queries ("how many entries beat this key"), and in-order iteration.
  * Each node carries `dom`, the dominance counter D(o, C, W) of the
  * merge-&-refine step (Fig. 4) and of the k-skyband baseline.
  *
  * Not thread-safe; used single-threaded inside one stream's state machine.
  */
final class ScoreTree extends Serializable {

  final class Node(val score: Double, val t: Long) extends Serializable {
    var left: Node = _
    var right: Node = _
    var height: Int = 1
    var size: Int = 1
    var dom: Int = 0
    def event: Event = Event(t, score)
  }

  private var root: Node = _

  def size: Int = sz(root)

  @inline private def sz(n: Node): Int = if (n == null) 0 else n.size
  @inline private def ht(n: Node): Int = if (n == null) 0 else n.height

  private def fix(n: Node): Unit = {
    n.height = 1 + math.max(ht(n.left), ht(n.right))
    n.size = 1 + sz(n.left) + sz(n.right)
  }

  private def rotRight(y: Node): Node = {
    val x = y.left; y.left = x.right; x.right = y; fix(y); fix(x); x
  }
  private def rotLeft(x: Node): Node = {
    val y = x.right; x.right = y.left; y.left = x; fix(x); fix(y); y
  }

  private def balance(n: Node): Node = {
    fix(n)
    val bf = ht(n.left) - ht(n.right)
    if (bf > 1) {
      if (ht(n.left.left) >= ht(n.left.right)) rotRight(n)
      else { n.left = rotLeft(n.left); rotRight(n) }
    } else if (bf < -1) {
      if (ht(n.right.right) >= ht(n.right.left)) rotLeft(n)
      else { n.right = rotRight(n.right); rotLeft(n) }
    } else n
  }

  /** Insert (score, t); keys are unique by construction (t is unique). */
  def insert(score: Double, t: Long, dom: Int = 0): Unit =
    root = ins(root, score, t, dom)

  private def ins(n: Node, s: Double, t: Long, dom: Int): Node = {
    if (n == null) { val nn = new Node(s, t); nn.dom = dom; return nn }
    if (Event.gt(n.score, n.t, s, t)) n.left = ins(n.left, s, t, dom)
    else n.right = ins(n.right, s, t, dom)
    balance(n)
  }

  /** Merge-&-refine (Fig. 4): fold in the keys `best` (best-first), which
    * arrived after every entry. Each entry's `dom` grows by the number of new
    * keys above it, entries reaching `k` are deleted, and the new keys enter
    * with `dom` 0. The ascending walk stops at the first entry above all new
    * keys, so it visits only the entries the new keys dominate.
    */
  def refine(best: Array[Event], k: Int): Unit = {
    var j = best.length - 1 // best(j): the lowest new key above the entry
    val doomed = new scala.collection.mutable.ArrayBuffer[Node]()
    foreachAscendingWhile { n =>
      while (j >= 0 && !Event.gt(best(j).score, best(j).t, n.score, n.t)) j -= 1
      if (j >= 0) {
        n.dom += j + 1
        if (n.dom >= k) doomed += n
      }
      j >= 0
    }
    doomed.foreach(n => delete(n.score, n.t))
    var i = best.length - 1
    while (i >= 0) { insert(best(i).score, best(i).t); i -= 1 }
  }

  /** Delete every entry stamped at or before `minT`. */
  def expireThrough(minT: Long): Unit = {
    val dead = new scala.collection.mutable.ArrayBuffer[Node]()
    foreachAscending(n => if (n.t <= minT) dead += n)
    dead.foreach(n => delete(n.score, n.t))
  }

  /** Delete the entry with exactly this key. Returns true if present. */
  def delete(score: Double, t: Long): Boolean = {
    val before = size
    root = del(root, score, t)
    size != before
  }

  private def del(n: Node, s: Double, t: Long): Node = {
    if (n == null) return null
    if (s == n.score && t == n.t) {
      if (n.left == null) return n.right
      if (n.right == null) return n.left
      var succ = n.right
      while (succ.left != null) succ = succ.left
      val repl = new Node(succ.score, succ.t)
      repl.dom = succ.dom
      repl.left = n.left
      repl.right = del(n.right, succ.score, succ.t)
      return balance(repl)
    }
    if (Event.gt(n.score, n.t, s, t)) n.left = del(n.left, s, t)
    else n.right = del(n.right, s, t)
    balance(n)
  }

  /** Node with exactly this key, or null. */
  def find(score: Double, t: Long): Node = {
    var n = root
    while (n != null) {
      if (score == n.score && t == n.t) return n
      n = if (Event.gt(n.score, n.t, score, t)) n.left else n.right
    }
    null
  }

  def minNode: Node = { var n = root; if (n == null) return null; while (n.left != null) n = n.left; n }

  /** Number of entries with key strictly greater than (score, t). */
  def countGreater(score: Double, t: Long): Int = {
    var n = root; var cnt = 0
    while (n != null) {
      if (Event.gt(n.score, n.t, score, t)) { cnt += 1 + sz(n.right); n = n.left }
      else n = n.right // n.key <= key: nothing in its left subtree is greater
    }
    cnt
  }

  /** Remove and return the minimum entry, or null when empty. */
  def popMin(): Node = {
    val n = minNode
    if (n != null) delete(n.score, n.t)
    n
  }

  /** In-order ascending visit; `f` must not mutate the tree. */
  def foreachAscending(f: Node => Unit): Unit = asc(root, f)
  private def asc(n: Node, f: Node => Unit): Unit =
    if (n != null) { asc(n.left, f); f(n); asc(n.right, f) }

  /** In-order descending visit; `f` must not mutate the tree. */
  def foreachDescending(f: Node => Unit): Unit = desc(root, f)
  private def desc(n: Node, f: Node => Unit): Unit =
    if (n != null) { desc(n.right, f); f(n); desc(n.left, f) }

  /** Descending visit with early exit: stop when `f` returns false. */
  def foreachDescendingWhile(f: Node => Boolean): Unit = { descW(root, f); () }
  private def descW(n: Node, f: Node => Boolean): Boolean = {
    if (n == null) return true
    if (!descW(n.right, f)) return false
    if (!f(n)) return false
    descW(n.left, f)
  }

  /** Ascending visit with early exit: stop when `f` returns false. */
  def foreachAscendingWhile(f: Node => Boolean): Unit = { ascW(root, f); () }
  private def ascW(n: Node, f: Node => Boolean): Boolean = {
    if (n == null) return true
    if (!ascW(n.left, f)) return false
    if (!f(n)) return false
    ascW(n.right, f)
  }

  /** All entries, descending by key. */
  def toDescendingArray: Array[Event] = {
    val out = new Array[Event](size); var i = 0
    foreachDescending { n => out(i) = n.event; i += 1 }
    out
  }

  def clear(): Unit = root = null
}

/** A top-k buffer: a ScoreTree capped at `k` entries, keeping the largest.
  * Used for the per-unit U_v^k and brute-force selection.
  */
final class TopKBuffer(val k: Int) extends Serializable {
  val tree = new ScoreTree
  require(k > 0)

  /** Offer an event; keeps only the k best. Returns true if it entered. */
  def offer(score: Double, t: Long): Boolean = {
    if (tree.size < k) { tree.insert(score, t); return true }
    val mn = tree.minNode
    if (Event.gt(score, t, mn.score, mn.t)) {
      tree.delete(mn.score, mn.t)
      tree.insert(score, t)
      true
    } else false
  }

  def size: Int = tree.size
  def toDescendingArray: Array[Event] = tree.toDescendingArray
}
