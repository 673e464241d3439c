package perfbench

import java.nio.file.{Files, Path}
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.Oracle
import repro.core.{IntervalSet, VersionGraph, VersioningBenchmark}
import repro.core.model.{SplitByRlist, VersionSql}
import repro.core.partition.{CostModel, LyreSplit, Migration, PartitionScheme, PartitionedStore}
import repro.lang.{Evaluator, Parser, Repository, VersionMeta}
import repro.provenance.LineageInference
import repro.storage.{DeltaGraph, DeltaMode, Problems}
import scala.collection.mutable
import scala.util.Random
import scala.util.control.NonFatal

/** An output check that did not hold; the operation counts as failed. */
final class CheckFailed(msg: String) extends Exception(msg)

/** One run of one workload: set-up, a closed loop of operations from one
  * client thread, and the output checks.
  *
  * Every call into the program is made here, from outside, and timed
  * around the call; the ground truth for every check is kept on the driver
  * as `IntervalSet`s, independently of the stores.
  */
final class Run(spark: SparkSession, spec: Spec, seed: Long, seconds: Double,
                tracer: Tracer, work: Path) {
  import spark.implicits._
  import Kind._

  // ---- state of the CVD under test ----------------------------------------

  private var g: VersionGraph = _
  private var algo: VersionGraph = _
  private var rlist: SplitByRlist = _
  private var parts: PartitionedStore = _
  private var scheme2: PartitionScheme = _
  private var scheme15: PartitionScheme = _
  private var vsql: VersionSql = _

  /** Rid set and parents of every version in `rlist`, including commits. */
  private val truth = mutable.ArrayBuffer.empty[IntervalSet]
  private val parentsOf = mutable.ArrayBuffer.empty[Vector[Int]]
  private val heads = mutable.ArrayBuffer.empty[Int]
  private var nextRid = 0L
  private var nextPk = 1L << 40

  // ---- results ---------------------------------------------------------------

  val samples: Map[Kind.Value, mutable.ArrayBuffer[Double]] =
    Kind.values.toSeq.map(_ -> mutable.ArrayBuffer.empty[Double]).toMap
  val setupSeconds = mutable.ArrayBuffer.empty[Double]
  val generateSeconds = mutable.ArrayBuffer.empty[Double]
  val setupParts = mutable.ArrayBuffer.empty[String]
  var attempted = 0
  var failed = 0
  val failures = mutable.ArrayBuffer.empty[String]
  val checks = mutable.ArrayBuffer.empty[String]
  val gauges = mutable.LinkedHashMap.empty[String, Double]
  var knownDefect = "none"
  var dataBytes = 0L

  private val rngs = Kind.values.toSeq.map(k => k -> new Random(seed * 1000003L + k.id)).toMap

  private def check(ok: Boolean, what: => String): Unit =
    if (!ok) throw new CheckFailed(what)

  private def nowS: Double = System.nanoTime() / 1e9

  // ---- set-up ----------------------------------------------------------------

  /** Generate the graphs, load both stores and partition: everything before
    * the first timed operation. Repeated, each time into a fresh directory.
    */
  def setup(repeats: Int): Unit = {
    for (i <- 0 until repeats) {
      val dir = work.resolve(s"cvd-$i")
      val t0 = nowS
      tracer.beginOp()
      val (gs, ga) = tracer.span("core.generate") {
        val gs = spec.store(Spec.GraphSeed)
        (gs, spec.algo(Spec.GraphSeed))
      }
      val t1 = nowS
      val data = VersioningBenchmark.dataTableDF(spark, gs, Spec.Attrs)
      val rl = new SplitByRlist(spark, dir.resolve("rlist"))
      tracer.span("setup.model.load")(rl.load(data, gs))
      val (s2, s15) = tracer.span("setup.lyresplit") {
        (LyreSplit.forBudget(gs, 2 * gs.numRecords).scheme,
         LyreSplit.forBudget(gs, (1.5 * gs.numRecords).toLong).scheme)
      }
      val ps = new PartitionedStore(spark, dir.resolve("parts"))
      tracer.span("setup.partition.load")(ps.load(data, gs, s2))
      setupSeconds += nowS - t0
      setupParts += tracer.all.filter(_.op == tracer.all.last.op).map(s => f"${s.name}=${s.seconds}%.2f").mkString(" ")
      generateSeconds += t1 - t0
      if (i > 0) deleteRecursively(work.resolve(s"cvd-${i - 1}"))
      g = gs; algo = ga; rlist = rl; parts = ps; scheme2 = s2; scheme15 = s15
    }
    truth ++= g.versions.map(_.records)
    parentsOf ++= g.versions.map(_.parents)
    heads ++= g.versions.map(_.vid).filter(g.children(_).isEmpty)
    nextRid = g.allRecords.intervals.last._2 + 1
    vsql = VersionSql.forStore(spark, rlist)
  }

  /** Split-by-rlist checkouts of loaded versions, as VQuel relations. The
    * plans stay valid: commits only add files, which these versions'
    * records are not in.
    */
  private val relationOf = mutable.Map.empty[Int, DataFrame]

  /** The loaded versions as a VQuel repository. Relations are bound only
    * for `reach`, the versions the query can reach: binding one costs a
    * checkout() call, which the query itself does not make.
    */
  private def repository(reach: Set[Int]): Repository =
    Repository(g.versions.map { v =>
      val rel =
        if (reach(v.vid)) Map("Data" -> relationOf.getOrElseUpdate(v.vid, rlist.checkout(v.vid)))
        else Map.empty[String, DataFrame]
      VersionMeta(s"v${v.vid}", s"commit ${v.vid}", v.commitTs, "bench", v.parents.map(p => s"v$p"), rel)
    })

  // ---- operation inputs --------------------------------------------------------

  /** A vid in [0, n), skewed toward recent versions. */
  private def recent(rng: Random, n: Int): Int =
    n - 1 - math.min(n - 1, (n * math.pow(rng.nextDouble(), 3)).toInt)

  /** Attribute `a<i>` of a loaded record, as `VersioningBenchmark` derives it. */
  private def attrOf(i: Int, rid: Long): Long = (rid * (2654435761L + i) + i) % 100000L

  /** Rows picked for editing by the `salt`-th commit: ~1% of rids. */
  private def edited(rid: Long, salt: Long): Boolean =
    Math.floorMod(rid * 7919L + salt, 100L) == 0L

  // ---- operations ----------------------------------------------------------------

  private def checkoutOp(rng: Random): Double = {
    val n = if (spec.partitionedReads) g.numVersions else truth.length
    val vid = recent(rng, n)
    val (rows, secs) = timedCheckout(vid, spec.partitionedReads)
    check(rows == truth(vid).size, s"checkout v$vid: $rows rows, expected ${truth(vid).size}")
    secs
  }

  /** Checkout materialized by count(): (rows, seconds). */
  private def timedCheckout(vid: Int, partitioned: Boolean): (Long, Double) = {
    val layer = if (partitioned) "partition" else "model"
    val t0 = nowS
    val rows = tracer.span(s"$layer.checkout") {
      val df = tracer.span(s"$layer.checkout.call") {
        if (partitioned) parts.checkout(vid) else rlist.checkout(vid)
      }
      tracer.span(s"$layer.checkout.exec")(df.count())
    }
    val secs = nowS - t0
    val predicted =
      if (partitioned) CostModel.checkoutCost(g, parts.currentScheme, vid).toDouble else Double.NaN
    tracer.note(s"$layer.checkout", "rows" -> rows.toDouble, "predicted" -> predicted)
    (rows, secs)
  }

  private def diffOp(rng: Random): Double = {
    var vid = recent(rng, truth.length)
    while (parentsOf(vid).isEmpty) vid = recent(rng, truth.length)
    val p = parentsOf(vid).head
    val t0 = nowS
    val rows = tracer.span("model.diff")(rlist.diffVersions(vid, p).count())
    val secs = nowS - t0
    val want = truth(vid).diff(truth(p)).size
    check(rows == want, s"diff v$vid-v$p: $rows rows, expected $want")
    secs
  }

  private def commitOp(rng: Random): Double = {
    val i = opsRun(commit)
    val merge = spec.mergeEvery > 0 && i % spec.mergeEvery == spec.mergeEvery - 1 && heads.length >= 2
    val h1 = heads(rng.nextInt(heads.length))
    val h2 = if (merge) heads.filter(_ != h1)(rng.nextInt(heads.length - 1)) else -1
    val salt = seed * 7 + i
    val inserts = 5
    // The user's edited checkout, materialized before the commit as
    // OrpheusDB materializes a checkout into a table.
    val table = tracer.span("model.commit.prep") {
      val base =
        if (merge) rlist.checkout(h1).unionByName(rlist.checkout(h2)).distinct()
        else rlist.checkout(h1)
      val sel = pmod(col("rid") * 7919L + lit(salt), lit(100L)) === 0L
      val attrs = base.columns.filter(_.startsWith("a"))
      val edits = base.select(
        (when(sel, lit(null).cast("long")).otherwise(col("rid")) as "rid") +: col("pk") +:
          attrs.map(a => if (a == "a1") when(sel, col(a) + 1).otherwise(col(a)) as a else col(a)).toSeq: _*)
      val fresh = spark.range(inserts).select(
        (lit(null).cast("long") as "rid") +: (col("id") + nextPk as "pk") +:
          attrs.map(a => (col("id") * 31 + a.drop(1).toLong) % 100000L as a).toSeq: _*)
      val t = edits.unionByName(fresh).cache()
      t.count()
      t
    }
    nextPk += inserts
    val parents = if (merge) Seq(h1, h2) else Seq(h1)
    val base = if (merge) truth(h1).union(truth(h2)) else truth(h1)
    val kept = IntervalSet.fromSeq(base.toSeq.filterNot(edited(_, salt)))
    val nFresh = base.size - kept.size + inserts
    val filesBefore = dataFiles
    val t0 = nowS
    val vid = tracer.span("model.commit")(rlist.commit(table, parents))
    val secs = nowS - t0
    table.unpersist()
    val want = kept.union(IntervalSet.range(nextRid, nextRid + nFresh - 1))
    nextRid += nFresh
    truth += want
    parentsOf += parents.toVector
    heads -= h1; if (merge) heads -= h2; heads += vid
    check(vid == truth.length - 1, s"commit returned v$vid, expected v${truth.length - 1}")
    tracer.note("model.commit", "files_written" -> (dataFiles - filesBefore).toDouble)
    val got = tracer.span("model.commit.verify") {
      IntervalSet.fromSeq(rlist.checkout(vid).select("rid").as[Long].collect().toSeq)
    }
    check(got == want, s"commit v$vid: rid set of ${got.size} rows differs from the committed ${want.size}")
    secs
  }

  private def dataFiles: Int = {
    val s = Files.walk(rlist.dir.resolve("data"))
    try s.filter(_.toString.endsWith(".parquet")).count().toInt finally s.close()
  }

  private def vsqlOp(rng: Random): Double = {
    val t0 = nowS
    val rows = tracer.span("model.vsql") {
      vsql.run("SELECT vid, count(*) AS n FROM CVD c GROUP BY vid").collect()
    }
    val secs = nowS - t0
    val got = rows.map(r => r.getInt(0) -> r.getLong(1)).toMap
    val want = truth.indices.map(v => v -> truth(v).size).toMap
    check(got == want, s"VersionSql group-by: ${got.size} versions, expected ${want.size}, or counts differ")
    secs
  }

  private val a1Below = mutable.Map.empty[Int, Long]

  /** Query centers: three versions, drawn from those with the most common
    * two-hop neighbourhood size so that every query touches as many.
    */
  private lazy val vquelCenters: IndexedSeq[Int] = {
    val bySize = (0 until g.numVersions).groupBy(g.neighbors(_, 2).size)
    val same = bySize.maxBy { case (size, vs) => (vs.length, size) }._2
    new Random(seed).shuffle(same).take(3)
  }

  private def vquelOp(rng: Random): Double = {
    val center = vquelCenters(rng.nextInt(vquelCenters.length))
    val q =
      s"""range of V is Version(id = ||v$center||)
         |range of N is V.N(2)
         |range of E is N.Relations(name = ||Data||).Tuples
         |retrieve N.id, count(E.rid where E.a1 < 50000)""".stripMargin
    val reach = g.neighbors(center, 2)
    val repo = repository(reach)
    val t0 = nowS
    val res = tracer.span("lang.query") {
      val ast = tracer.span("lang.parse")(Parser.parse(q))
      tracer.span("lang.eval")(Evaluator.run(repo, ast))
    }
    val secs = nowS - t0
    val got = res.rows.map(r => r(0).toString -> r(1).asInstanceOf[Number].longValue).toSet
    val want = reach.map { v =>
      s"v$v" -> a1Below.getOrElseUpdate(v, truth(v).toSeq.count(attrOf(1, _) < 50000L).toLong)
    }
    tracer.note("lang.query", "versions" -> got.size.toDouble)
    check(got == want, s"VQuel N(2) of v$center: ${got.size} rows, expected ${want.size}, or counts differ")
    secs
  }

  private def migrateOp(rng: Random): Double = {
    val target = if (parts.currentScheme == scheme2) scheme15 else scheme2
    val t0 = nowS
    val plan = tracer.span("partition.migrate") {
      val plan = tracer.span("partition.migrate.plan")(Migration.plan(g, parts.currentScheme, target))
      tracer.span("partition.migrate.run")(parts.migrate(target, plan))
      plan
    }
    val secs = nowS - t0
    tracer.note("partition.migrate", "records_planned" -> plan.totalModifiedRecords.toDouble)
    check(parts.currentScheme == target, "migrate did not install the target scheme")
    // Where checkouts read the partitioned store, they check it next.
    if (!spec.partitionedReads) {
      val vid = rng.nextInt(g.numVersions)
      val (rows, _) = timedCheckout(vid, partitioned = true)
      check(rows == truth(vid).size, s"checkout v$vid after migrate: $rows rows, expected ${truth(vid).size}")
    }
    secs
  }

  /** LyreSplit at both storage budgets, γ = 2|R| and 1.5|R|. */
  private def partitionOp(rng: Random): Double = {
    val gammas = Seq(2 * algo.numRecords, (1.5 * algo.numRecords).toLong)
    val t0 = nowS
    val schemes = gammas.map(gm => tracer.span("partition.lyresplit")(LyreSplit.forBudget(algo, gm)).scheme)
    val secs = nowS - t0
    for ((gm, scheme) <- gammas.zip(schemes)) {
      val storage = CostModel.storageCost(algo, scheme)
      check(scheme.numVersions == algo.numVersions, "LyreSplit scheme misses versions")
      check(storage <= gm, s"LyreSplit storage $storage exceeds the budget $gm")
    }
    secs
  }

  /** Cost C, ΣR and max R of the last solution of each solver. */
  val solutions = mutable.LinkedHashMap.empty[String, (Double, Double, Double)]

  private def storagePlanOp(rng: Random): Double = {
    val sets = algo.versions.take(Spec.PlanVersions).map(_.records)
    val t0 = nowS
    val (und, dir, sols) = tracer.span("storage.plan") {
      val und = tracer.span("storage.deltagraph")(DeltaGraph.fromRecordSets(sets, DeltaMode.Undirected))
      val p1 = tracer.span("storage.solve.mst")(Problems.minStorage(und))
      val p2 = tracer.span("storage.solve.spt")(Problems.minRecreation(und))
      val c1 = p1.storageCost(und)
      val maxMat = (1 to und.n).map(und.phi(0)(_)).max
      val p3 = tracer.span("storage.solve.lmg")(Problems.minSumRecreation(und, 1.5 * c1))
      val p4 = tracer.span("storage.solve.last")(Problems.minMaxRecreation(und, 1.5 * c1))
      val p5 = tracer.span("storage.solve.lmg")(
        Problems.minStorageSumRecreation(und, 1.5 * p2.sumRecreation(und)))
      val p6 = tracer.span("storage.solve.last")(Problems.minStorageMaxRecreation(und, 1.5 * maxMat))
      val dir = tracer.span("storage.deltagraph")(
        DeltaGraph.fromRecordSets(sets.take(Spec.DirectedVersions), DeltaMode.DirectedEq))
      val d1 = tracer.span("storage.solve.edmonds")(Problems.minStorage(dir))
      val dMaxMat = (1 to dir.n).map(dir.phi(0)(_)).max
      val d4 = tracer.span("storage.solve.mp")(Problems.minMaxRecreation(dir, 1.5 * d1.storageCost(dir)))
      val d6 = tracer.span("storage.solve.mp")(Problems.minStorageMaxRecreation(dir, 1.5 * dMaxMat))
      (und, dir, Seq("p1_mst" -> p1, "p2_spt" -> p2, "p3_lmg" -> p3, "p4_last" -> p4,
        "p5_lmg" -> p5, "p6_last" -> p6, "d1_edmonds" -> d1, "d4_mp" -> d4, "d6_mp" -> d6))
    }
    val secs = nowS - t0
    def graphOf(name: String): DeltaGraph = if (name.startsWith("d")) dir else und
    for ((name, s) <- sols) {
      val dg = graphOf(name)
      check(s.isValid, s"storage plan $name is not a spanning tree")
      solutions(name) = (s.storageCost(dg), s.sumRecreation(dg), s.maxRecreation(dg))
    }
    val eps = 1e-6
    for ((name, (c, _, _)) <- solutions; first = if (name.startsWith("d")) "d1_edmonds" else "p1_mst")
      check(solutions(first)._1 <= c + eps, s"P1 ($first) storage exceeds that of $name")
    secs
  }

  private var lineageF1 = Double.NaN

  private def lineageOp(rng: Random): Double = {
    val m = VersioningBenchmark.membershipDF(spark, algo)
    val ts = algo.versions.map(v => v.vid -> v.commitTs).toMap
    if (tracer.enabled) tracer.span("provenance.overlaps")(LineageInference.pairwiseOverlaps(spark, m))
    val t0 = nowS
    val res = tracer.span("provenance.infer")(LineageInference.infer(spark, m, ts))
    val secs = nowS - t0
    lineageF1 = LineageInference.evaluate(res, algo).f1
    check(res.edges.forall(e => ts(e.parent) < ts(e.child)), "lineage inferred an edge against commit order")
    secs
  }

  // ---- the loop --------------------------------------------------------------------

  /** Warm-up operations per kind: the loop's first operations of a kind
    * are run and checked but not timed, so that JIT compilation and Spark's
    * lazy set-up land there. Without them the Spark-backed kinds still
    * sped up by a third over the timed part of a run, so their medians
    * depended on how fast the JVM warmed. Migrations have none, so that a
    * run makes an even number and ends on the γ = 2|R| scheme it loaded.
    */
  private val warmUps: Map[Kind.Value, Int] =
    Kind.values.toSeq.map(k => k -> (k match {
      case Kind.migrate                => 0
      case Kind.commit | Kind.lineage  => 1
      case Kind.checkout | Kind.vsql   => 3
      case _                           => 2
    })).toMap

  private val opsRun = mutable.Map(Kind.values.toSeq.map(_ -> 0): _*)

  private def runOp(k: Kind.Value): Unit = {
    tracer.beginOp()
    attempted += 1
    val rng = rngs(k)
    try {
      val secs = k match {
        case Kind.checkout     => checkoutOp(rng)
        case Kind.diff         => diffOp(rng)
        case Kind.commit       => commitOp(rng)
        case Kind.vquel        => vquelOp(rng)
        case Kind.vsql         => vsqlOp(rng)
        case Kind.migrate      => migrateOp(rng)
        case Kind.partition    => partitionOp(rng)
        case Kind.storage_plan => storagePlanOp(rng)
        case Kind.lineage      => lineageOp(rng)
      }
      opsRun(k) += 1
      if (opsRun(k) > warmUps(k)) samples(k) += secs
    } catch {
      case NonFatal(e) =>
        failed += 1
        opsRun(k) += 1
        failures += s"$k: ${e.getClass.getSimpleName}: ${e.getMessage}".take(300)
    }
  }

  /** Closed loop, one client, in a fixed order: every warm-up first, in
    * rounds of one per kind that still has warm-ups left, then each kind's
    * operations, their count scaled to `seconds`, spread evenly over the
    * run. A run does the same work for a given seed and run length,
    * however fast each operation is; the order is the same for every seed,
    * so that the warmth of what runs before an operation does not vary
    * with it.
    */
  def loop(): Unit = {
    val scale = seconds / Spec.SizedForSeconds
    val plan = Kind.values.toSeq.flatMap { k =>
      val n = math.max(1, math.round(spec.ops(k) * scale).toInt)
      (-warmUps(k) until 0).map(_.toDouble -> k) ++ (0 until n).map(i => (i + 0.5) / n -> k)
    }
    plan.sortBy(_._1).foreach { case (_, k) => runOp(k) }
  }

  // ---- untimed checks -------------------------------------------------------------

  /** One seeded checkout and one diff against DuckDB, before the loop. */
  def oracleChecks(): Unit = {
    val rng = new Random(seed ^ 0x5eed)
    val vid = 1 + rng.nextInt(g.numVersions - 1)
    val p = parentsOf(vid).head
    // The version's rows on four of the columns, as the generator defines
    // them: DuckDB derives them from the version's rid intervals, so only
    // the intervals go over JDBC, which loads one call per value.
    val cols = Seq("rid", "pk", "a1", s"a${Spec.Attrs}")
    val attrs = Seq(1, Spec.Attrs).map(i => s"(rid * ${2654435761L + i} + $i) % 100000 AS a$i")
    val data =
      s"""WITH data AS (SELECT rid, rid AS pk, ${attrs.mkString(", ")} FROM
         |  (SELECT unnest(range(CAST(s AS BIGINT), CAST(e AS BIGINT) + 1)) AS rid FROM ivals))
         |""".stripMargin
    def intervals(s: IntervalSet): DataFrame = s.intervals.toDF("s", "e")
    val store = if (spec.partitionedReads) "partitioned" else "split-by-rlist"
    def oracle(what: String, df: => DataFrame, sql: String, tables: (String, DataFrame)*): Unit = {
      attempted += 1
      try {
        tracer.beginOp()
        val t0 = nowS
        Oracle.assertEquivalent(df, sql, tables: _*)
        checks += f"oracle $what: ok (${nowS - t0}%.1f s)"
      } catch {
        case NonFatal(e) =>
          failed += 1
          failures += s"oracle $what: ${e.getMessage}".take(300)
          checks += s"oracle $what: FAILED"
      }
    }
    // Both stores' checkout layers are traced once on every workload.
    for (partitioned <- Seq(true, false)) {
      tracer.beginOp()
      attempted += 1
      val (rows, _) = timedCheckout(vid, partitioned)
      if (rows != truth(vid).size) {
        failed += 1
        failures += s"checkout v$vid (partitioned=$partitioned): $rows rows, expected ${truth(vid).size}"
      }
    }
    val select = cols.mkString(", ")
    oracle(s"checkout v$vid ($store)",
      (if (spec.partitionedReads) parts.checkout(vid) else rlist.checkout(vid)).select(cols.map(col): _*),
      s"${data}SELECT $select FROM data", "ivals" -> intervals(truth(vid)))
    oracle(s"diff v$vid-v$p (split-by-rlist)", rlist.diffVersions(vid, p).select(cols.map(col): _*),
      s"""${data}SELECT $select FROM data WHERE NOT EXISTS
         |  (SELECT 1 FROM parent WHERE rid BETWEEN CAST(s AS BIGINT) AND CAST(e AS BIGINT))""".stripMargin,
      "ivals" -> intervals(truth(vid)), "parent" -> intervals(truth(p)))
  }

  /** LyreSplit on a 4000-version graph: a known stack overflow in its
    * recursion. Recorded with its exception class, never hidden.
    */
  def probeLyreSplit4k(): Unit = {
    val big = VersioningBenchmark.sci(4000, 200, 18, 2, 400, Spec.GraphSeed)
    @volatile var outcome = s"still running after ${ProbeSeconds} s"
    // A thread of its own, with the JVM's default 1 MiB stack, so the
    // outcome does not depend on the caller's stack; daemon, because
    // without the overflow the quadratic partitioner runs for minutes.
    val t = new Thread(null, () => {
      outcome =
        try { LyreSplit.forBudget(big, 2 * big.numRecords); "none" }
        catch { case e: StackOverflowError => e.getClass.getName }
    }, "lyresplit-4k", 1L << 20)
    t.setDaemon(true)
    t.start()
    t.join(ProbeSeconds * 1000L)
    knownDefect = outcome
    gauges("partition.lyresplit_4k_failed") = if (knownDefect == "none") 0 else 1
  }

  private val ProbeSeconds = 5

  /** Store bytes on disk per byte of the deduplicated data table written
    * once as Parquet, for the store checkouts read.
    */
  def spaceAmp(): Double = {
    val (storeBytes, dataDir) =
      if (spec.partitionedReads) (parts.storageBytes, parts.dir.resolve("master-data"))
      else (rlist.storageBytes, rlist.dir.resolve("data"))
    val once = work.resolve("dedup-once")
    spark.read.parquet(dataDir.toString).write.parquet(once.toString)
    val onceBytes = repro.core.model.CvdStore.du(once)
    dataBytes = onceBytes
    deleteRecursively(once)
    gauges("model.data_files") = dataFiles
    gauges("partition.partitions") = parts.currentScheme.numPartitions
    gauges("partition.storage_records") = CostModel.storageCost(g, parts.currentScheme).toDouble
    storeBytes.toDouble / onceBytes
  }

  def graphFacts: (VersionGraph, VersionGraph) = (g, algo)
  def partitionCounts: (Int, Int) = (scheme2.numPartitions, scheme15.numPartitions)
  def f1: Double = lineageF1

  private def deleteRecursively(p: Path): Unit = if (Files.exists(p)) {
    val s = Files.walk(p)
    try s.sorted(java.util.Comparator.reverseOrder()).forEach(Files.delete(_))
    finally s.close()
  }
}
