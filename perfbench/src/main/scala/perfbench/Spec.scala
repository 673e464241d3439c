package perfbench

import repro.core.{VersionGraph, VersioningBenchmark}

/** The operation kinds a workload mixes; each has its own end-to-end
  * latency metric (`<name>.p50_s`), except the driver-algorithm kinds.
  */
object Kind extends Enumeration {
  val checkout, diff, commit, vquel, vsql, migrate, partition, storage_plan, lineage = Value

  /** Timed per layer only (`partition.lyresplit_s`, `storage.plan_s`,
    * `provenance.infer_s`): their run medians moved between runs by more
    * than the largest end-to-end bound, 0.25 (quartile spreads of up to
    * 0.29 over ten runs), too unsteady for a bounded metric.
    */
  val perLayerOnly: Set[Value] = Set(partition, storage_plan, lineage)
}

/** One benchmark workload.
  *
  * Every workload runs every operation kind, so every end-to-end metric is
  * defined on every workload; they differ in the data's shape, in which
  * store checkouts go through, and in how many operations of each kind a
  * run makes.
  *
  * @param store            version graph of the Parquet CVD, from a seed
  * @param partitionedReads checkouts go through the LyreSplit-partitioned
  *                         store (else through the unpartitioned one)
  * @param algo             version graph the driver algorithms (LyreSplit,
  *                         lineage inference, the Ch. 7 solvers) run on,
  *                         from a seed
  * @param mergeEvery       every k-th commit merges two branch heads
  * @param ops              timed operations of each kind in a run of
  *                         [[Spec.SizedForSeconds]] seconds; a run of `s`
  *                         seconds makes `s / SizedForSeconds` as many
  *                         (at least one)
  */
final case class Spec(
    name: String,
    store: Long => VersionGraph,
    partitionedReads: Boolean,
    algo: Long => VersionGraph,
    mergeEvery: Int,
    ops: Map[Kind.Value, Int],
)

object Spec {
  import Kind._

  /** Decibel-style SCI graph (a tree of branches) with the churn of the
    * repo's `sciSuite`: per commit ~9% of a version's records replaced and
    * ~1% added. `cur` adds a merge every `mergeEvery` versions.
    */
  private def sci(versions: Int, base: Int, branches: Int)(seed: Long): VersionGraph =
    VersioningBenchmark.sci(versions, base, base * 9 / 100, base / 100, branches, seed)

  private def cur(versions: Int, base: Int, branches: Int, mergeEvery: Int)(seed: Long): VersionGraph =
    VersioningBenchmark.cur(versions, base, base * 9 / 100, base / 100, branches, mergeEvery, seed)

  /** Seed of every generated version graph. The graphs are part of a
    * workload's definition, like a scale factor; `--seed` drives the
    * operation stream (which versions, which rows, which queries).
    */
  val GraphSeed = 42L

  /** Attribute columns per record (the paper's records have 100). */
  val Attrs = 20

  /** Versions, a prefix of the driver-algorithm graph, in the undirected
    * Ch. 7 storage plan and given to the directed solvers (Edmonds, MP);
    * at 1000 versions the directed solvers alone outlast a run.
    */
  val PlanVersions = 200
  val DirectedVersions = 40

  /** Run length, in seconds of operations on a 4-core machine, that the
    * `ops` counts are sized for.
    */
  val SizedForSeconds = 30

  val all: Seq[Spec] = Seq(
    // Reads through the partition layer; writes are few. A checkout reads
    // one LyreSplit partition of a few thousand rows, so its time is
    // mostly the per-call cost of the layer (file listing, footer reads,
    // planning, task launch), not the scan. The driver algorithms run on a
    // separate 200-version SCI graph.
    Spec("sci-read", sci(20, 3000, 2), partitionedReads = true, algo = sci(200, 100, 20),
      mergeEvery = 0,
      ops = Map(checkout -> 10, diff -> 4, commit -> 3, vquel -> 3, vsql -> 9,
        migrate -> 2, partition -> 4, storage_plan -> 2, lineage -> 2)),
    // Writes beside reads on the unpartitioned split-by-rlist store of a
    // CUR graph with merges: a commit change that fragments the data
    // table shows here as slower checkouts and VersionSql scans. The
    // driver algorithms run on a separate 200-version CUR DAG.
    Spec("cur-collab", cur(20, 3000, 2, 5), partitionedReads = false, algo = cur(200, 100, 20, 9),
      mergeEvery = 3,
      ops = Map(checkout -> 10, diff -> 4, commit -> 3, vquel -> 3, vsql -> 9,
        migrate -> 2, partition -> 4, storage_plan -> 2, lineage -> 2)),
  )

  def byName(name: String): Option[Spec] = all.find(_.name == name)
}
