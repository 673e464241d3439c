package perfbench

import java.nio.file.{Files, Path, Paths}
import org.apache.spark.sql.SparkSession
import repro.core.VersionGraph
import scala.collection.mutable

/** Benchmark entry point:
  * `Bench --workload <name> --seed <n> --seconds <s> --trace <0|1> --work <dir> [--trace-out <file>]`.
  *
  * Prints the run context, one line per metric with its unit, the check
  * results, and as its last line one JSON object: `correct`, `attempted`,
  * `failed` and `metrics` — the end-to-end metrics with `--trace 0`, the
  * per-layer metrics with `--trace 1`.
  */
object Bench {

  /** Set-ups per run; `setup_s` is their median. */
  val SetupRepeats = 3
  val ShufflePartitions = 16

  final case class Opts(workload: String, seed: Long, seconds: Double, trace: Boolean,
                        work: Path, traceOut: Option[Path])

  private def parse(args: Array[String]): Opts = {
    val m = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String) = m.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    val trace = need("trace") match {
      case "0" => false
      case "1" => true
      case t   => throw new IllegalArgumentException(s"--trace must be 0 or 1, got $t")
    }
    Opts(need("workload"), need("seed").toLong, need("seconds").toDouble, trace,
      Paths.get(need("work")).toAbsolutePath, m.get("trace-out").map(Paths.get(_).toAbsolutePath))
  }

  def main(args: Array[String]): Unit = {
    val opts =
      try parse(args)
      catch { case e: Exception => System.err.println(s"usage error: ${e.getMessage}"); sys.exit(2) }
    val spec = Spec.byName(opts.workload).getOrElse {
      System.err.println(s"unknown workload ${opts.workload}; known: ${Spec.all.map(_.name).mkString(", ")}")
      sys.exit(2)
    }
    Files.createDirectories(opts.work)
    val cores = math.min(4, Runtime.getRuntime.availableProcessors)
    val spark = SparkSession.builder
      .master(s"local[$cores]")
      .appName(s"perfbench-${spec.name}")
      .config("spark.sql.shuffle.partitions", ShufflePartitions.toString)
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.driver.bindAddress", "127.0.0.1")
      .config("spark.sql.warehouse.dir", opts.work.resolve("warehouse").toString)
      .getOrCreate()
    try report(spark, spec, opts, cores)
    finally spark.stop()
  }

  private def report(spark: SparkSession, spec: Spec, opts: Opts, cores: Int): Unit = {
    val tracer = new Tracer(spark, opts.trace)
    val run = new Run(spark, spec, opts.seed, opts.seconds, tracer, opts.work)
    val phases = mutable.ArrayBuffer.empty[String]
    def phase[T](name: String)(body: => T): T = {
      val t0 = System.nanoTime()
      try body finally phases += f"$name=${(System.nanoTime() - t0) / 1e9}%.1fs"
    }
    // Cold, before any LyreSplit call has been compiled, as a user's
    // first call would be; warm, the recursion overflows later or never.
    phase("probe")(run.probeLyreSplit4k())
    phase("setup")(run.setup(SetupRepeats))
    phase("oracle")(run.oracleChecks())
    phase("loop")(run.loop())
    val spaceAmp = phase("space")(run.spaceAmp())
    tracer.drain()
    tracer.detach()

    val (g, algo) = run.graphFacts
    val conf = spark.conf
    println(s"context: workload=${spec.name} seed=${opts.seed} seconds=${opts.seconds} " +
      s"trace=${if (opts.trace) 1 else 0}")
    println(s"context: nproc=${Runtime.getRuntime.availableProcessors} " +
      s"driver_heap=${Runtime.getRuntime.maxMemory / (1 << 20)}MiB spark=${spark.version} " +
      s"master=${spark.sparkContext.master} " +
      s"shuffle_partitions=${conf.get("spark.sql.shuffle.partitions")} " +
      s"broadcast_threshold=${conf.get("spark.sql.autoBroadcastJoinThreshold")} " +
      "page_cache=warm (inputs were just written; dropping the cache needs root)")
    println(s"context: store |V|=${g.numVersions} |R|=${g.numRecords} |E|=${g.numBipartiteEdges} " +
      s"attrs=${Spec.Attrs} data_bytes=${run.dataBytes}; driver-algorithm graph |V|=${algo.numVersions} " +
      s"|R|=${algo.numRecords} |E|=${algo.numBipartiteEdges}; storage plan n=${Spec.PlanVersions} " +
      s"undirected, n=${Spec.DirectedVersions} directed; partitions γ=2|R|: ${run.partitionCounts._1}, " +
      s"γ=1.5|R|: ${run.partitionCounts._2}")
    println(s"context: phases ${phases.mkString(" ")}")
    run.setupParts.foreach(p => println(s"context: setup $p"))
    println("context: client=1 closed loop; timed samples per kind, in run order (s): " +
      Kind.values.toSeq.map(k => s"$k=" + run.samples(k).map(x => f"$x%.3f").mkString(",")).mkString(" "))

    val metrics: Seq[(String, Double, String)] =
      if (opts.trace) perLayer(run, tracer, g, algo, cores)
      else endToEnd(run, spaceAmp)
    for ((name, v, unit) <- metrics) println(f"metric $name%-42s $v%.6g $unit")

    run.checks.foreach(c => println(s"check: $c"))
    println(s"check: LyreSplit at |V|=4000 (known defect): ${run.knownDefect}")
    println(s"check: lineage F1=${run.f1}")
    run.failures.take(10).foreach(f => println(s"check FAILED: $f"))
    println(s"ops: attempted=${run.attempted} failed=${run.failed} " +
      f"failed_ratio=${run.failed.toDouble / run.attempted}%.4f")
    opts.traceOut.filter(_ => opts.trace).foreach { p =>
      Files.createDirectories(p.getParent)
      tracer.write(p)
      println(s"trace: ${tracer.all.length} spans written to ${p.getFileName}")
    }

    val bad = metrics.filter { case (_, v, _) => v.isNaN || v.isInfinite }
    if (bad.nonEmpty)
      throw new IllegalStateException(s"metrics without a value: ${bad.map(_._1).mkString(", ")}")
    val json = metrics.map { case (n, v, u) => s""""$n": {"value": $v, "unit": "$u"}""" }
      .mkString("{", ", ", "}")
    println(s"""{"correct": ${run.failed == 0}, "attempted": ${run.attempted}, """ +
      s""""failed": ${run.failed}, "metrics": $json}""")
  }

  // ---- statistics ------------------------------------------------------------------

  def median(xs: Seq[Double]): Double = {
    if (xs.isEmpty) return Double.NaN
    val s = xs.sorted; val n = s.length
    if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
  }

  private def endToEnd(run: Run, spaceAmp: Double): Seq[(String, Double, String)] = {
    val out = mutable.ArrayBuffer.empty[(String, Double, String)]
    out += (("setup_s", median(run.setupSeconds.toSeq), "s"))
    for (k <- Kind.values.toSeq if !Kind.perLayerOnly(k))
      out += ((s"$k.p50_s", median(run.samples(k).toSeq), "s"))
    out += (("space_amp", spaceAmp, "ratio"))
    out.toSeq
  }

  private def perLayer(run: Run, tracer: Tracer, g: VersionGraph, algo: VersionGraph,
                       cores: Int): Seq[(String, Double, String)] = {
    val spans = tracer.all
    val byName = spans.groupBy(_.name)
    val setupOps = spans.filter(s => s.name == "core.generate" || s.name.startsWith("setup.")).map(_.op).toSet
    def opsOf(name: String): Seq[Seq[Span]] =
      byName.getOrElse(name, Nil).filterNot(s => setupOps(s.op)).groupBy(_.op).values.toSeq
    /** Per operation, `f` of its spans named `name`; the median over operations. */
    def perOp(name: String)(f: Seq[Span] => Double): Double = median(opsOf(name).map(f))
    def secs(name: String) = perOp(name)(_.map(_.seconds).sum)
    def count(name: String)(f: Counters => Long) = perOp(name)(_.map(s => f(tracer.counters(s)).toDouble).sum)
    def fact(name: String, key: String): Double =
      median(byName.getOrElse(name, Nil).flatMap(s => tracer.notes.get(s.id).flatMap(_.get(key))))
    def factRatio(name: String, key: String): Double =
      median(byName.getOrElse(name, Nil).flatMap { s =>
        tracer.notes.get(s.id).flatMap(_.get(key)).map(tracer.counters(s).recordsRead / _)
      })

    val sparkOps = Seq("model.checkout", "partition.checkout", "model.diff", "model.commit",
      "lang.query", "model.vsql", "partition.migrate", "provenance.infer")
    val sparkSpans = sparkOps.flatMap(byName.getOrElse(_, Nil))
    val sparkCounters = sparkSpans.map(tracer.counters)
    val busy = sparkCounters.map(_.runTimeMs).sum / 1000.0 / (sparkSpans.map(_.seconds).sum * cores)

    val m = mutable.ArrayBuffer.empty[(String, Double, String)]
    def add(n: String, v: Double, u: String): Unit = m += ((n, v, u))
    add("core.generate_s", median(run.generateSeconds.toSeq), "s")
    add("core.versions", g.numVersions, "count")
    add("core.records", g.numRecords.toDouble, "count")
    add("core.edges", g.numBipartiteEdges.toDouble, "count")
    for (layer <- Seq("model", "partition")) {
      val c = s"$layer.checkout"
      add(s"$c.call_s", secs(s"$c.call"), "s")
      add(s"$c.exec_s", secs(s"$c.exec"), "s")
      add(s"$c.rows_scanned", count(c)(_.recordsRead), "count")
      if (layer == "model") add(s"$c.rows_scanned_per_row", factRatio(c, "rows"), "ratio")
      add(s"$c.bytes_read", count(c)(_.bytesRead), "bytes")
      add(s"$c.shuffle_bytes", count(c)(_.shuffleBytes), "bytes")
      add(s"$c.tasks", count(c)(_.tasks), "count")
      if (layer == "partition") {
        add(s"$c.predicted_rows", fact(c, "predicted"), "count")
        add(s"$c.scan_over_model", factRatio(c, "predicted"), "ratio")
      }
    }
    add("model.diff.rows_scanned", count("model.diff")(_.recordsRead), "count")
    add("model.diff.shuffle_bytes", count("model.diff")(_.shuffleBytes), "bytes")
    add("model.commit.jobs", count("model.commit")(_.jobs), "count")
    add("model.commit.shuffle_bytes", count("model.commit")(_.shuffleBytes), "bytes")
    add("model.commit.bytes_written", count("model.commit")(_.bytesWritten), "bytes")
    add("model.commit.files_written", fact("model.commit", "files_written"), "count")
    add("model.commit.max_task_s", perOp("model.commit")(_.map(tracer.counters(_).maxTaskMs / 1000.0).max), "s")
    add("model.data_files", run.gauges("model.data_files"), "count")
    add("model.vsql.rows_scanned", count("model.vsql")(_.recordsRead), "count")
    add("model.vsql.shuffle_bytes", count("model.vsql")(_.shuffleBytes), "bytes")
    add("partition.partitions", run.gauges("partition.partitions"), "count")
    add("partition.storage_records", run.gauges("partition.storage_records"), "count")
    add("partition.migrate.records_planned", fact("partition.migrate", "records_planned"), "count")
    add("partition.migrate.bytes_written", count("partition.migrate")(_.bytesWritten), "bytes")
    add("partition.migrate.shuffle_bytes", count("partition.migrate")(_.shuffleBytes), "bytes")
    add("partition.lyresplit_s", secs("partition.lyresplit"), "s")
    add("partition.lyresplit_4k_failed", run.gauges("partition.lyresplit_4k_failed"), "count")
    add("lang.parse_s", secs("lang.parse"), "s")
    add("lang.eval_s", secs("lang.eval"), "s")
    add("lang.spark_jobs", count("lang.eval")(_.jobs), "count")
    add("lang.versions_touched", fact("lang.query", "versions"), "count")
    add("storage.plan_s", secs("storage.plan"), "s")
    add("storage.deltagraph_build_s", secs("storage.deltagraph"), "s")
    for (a <- Seq("mst", "spt", "lmg", "last", "edmonds", "mp"))
      add(s"storage.solve.${a}_s", secs(s"storage.solve.$a"), "s")
    for ((name, (c, sumR, maxR)) <- run.solutions) {
      add(s"storage.$name.cost", c, "records")
      add(s"storage.$name.sum_r", sumR, "records")
      add(s"storage.$name.max_r", maxR, "records")
    }
    add("provenance.overlaps_s", secs("provenance.overlaps"), "s")
    add("provenance.infer_s", secs("provenance.infer"), "s")
    add("provenance.join_rows", selfJoinRows(algo).toDouble, "count")
    add("provenance.shuffle_bytes", count("provenance.infer")(_.shuffleBytes), "bytes")
    add("provenance.f1", run.f1, "ratio")
    add("spark.gc_s", sparkCounters.map(_.gcMs).sum / 1000.0 / sparkSpans.length, "s")
    add("spark.executor_busy_share", busy, "ratio")
    // The traced runs' checkout median; over the untraced runs'
    // checkout.p50_s it gives the tracing overhead.
    add("trace.checkout_p50_s", median(run.samples(Kind.checkout).toSeq), "s")
    m.toSeq
  }

  /** Rows of the (vid, rid) membership self-join on rid that lineage
    * inference runs: Σ over records of (versions holding it)².
    */
  def selfJoinRows(g: VersionGraph): Long = {
    val delta = mutable.TreeMap.empty[Long, Long]
    for (v <- g.versions; (s, e) <- v.records.intervals) {
      delta(s) = delta.getOrElse(s, 0L) + 1
      delta(e + 1) = delta.getOrElse(e + 1, 0L) - 1
    }
    var rows = 0L; var cover = 0L; var prev = 0L
    for ((x, d) <- delta) { rows += (x - prev) * cover * cover; cover += d; prev = x }
    rows
  }
}
