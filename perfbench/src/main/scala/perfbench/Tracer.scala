package perfbench

import java.io.PrintWriter
import java.nio.file.Path
import org.apache.spark.scheduler._
import org.apache.spark.sql.SparkSession
import scala.collection.mutable

/** Spark work attributed to one span: the sum over every task of every
  * job that ran under the span's job group.
  */
final class Counters {
  var jobs = 0L
  var tasks = 0L
  var recordsRead = 0L
  var bytesRead = 0L
  var shuffleReadBytes = 0L
  var shuffleWriteBytes = 0L
  var bytesWritten = 0L
  var recordsWritten = 0L
  var runTimeMs = 0L
  var gcMs = 0L
  var maxTaskMs = 0L

  def shuffleBytes: Long = shuffleReadBytes + shuffleWriteBytes

  def add(o: Counters): Unit = {
    jobs += o.jobs; tasks += o.tasks; recordsRead += o.recordsRead
    bytesRead += o.bytesRead; shuffleReadBytes += o.shuffleReadBytes
    shuffleWriteBytes += o.shuffleWriteBytes; bytesWritten += o.bytesWritten
    recordsWritten += o.recordsWritten; runTimeMs += o.runTimeMs; gcMs += o.gcMs
    maxTaskMs = math.max(maxTaskMs, o.maxTaskMs)
  }
}

/** One timed call, made from the benchmark around a call into a layer.
  * `parent` is the enclosing span's id (-1 for an operation's root span);
  * spans of one operation share `op`.
  */
final case class Span(id: Int, op: Int, parent: Int, name: String,
                      startNs: Long, endNs: Long) {
  def seconds: Double = (endNs - startNs) / 1e9
}

/** Records spans and, when `enabled`, the Spark work of each one.
  *
  * Attribution uses one Spark job group per span, set on the client thread
  * while the span runs; a listener registered on the benchmark's own
  * session maps each stage to its job's group and sums task metrics per
  * group. Listener events arrive asynchronously, so [[drain]] runs a marker
  * job and waits until the listener has seen it end: the bus delivers in
  * order, so every earlier event has been counted by then.
  *
  * With `enabled` false nothing is registered and no job group is set;
  * spans still record wall time, so untraced runs time the same calls.
  */
final class Tracer(spark: SparkSession, val enabled: Boolean) {
  private val sc = spark.sparkContext
  private val spans = mutable.ArrayBuffer.empty[Span]
  private val stack = mutable.Stack.empty[Int]
  private var nextId = 0
  private var currentOp = -1

  private val byGroup = mutable.Map.empty[String, Counters]
  private val stageGroup = mutable.Map.empty[Int, String]
  private val groupOfJob = mutable.Map.empty[Int, String]
  private val endedGroups = mutable.Set.empty[String]

  private val listener = new SparkListener {
    override def onJobStart(e: SparkListenerJobStart): Unit = {
      val g = Option(e.properties).map(_.getProperty("spark.jobGroup.id")).orNull
      if (g != null) byGroup.synchronized {
        byGroup.getOrElseUpdate(g, new Counters).jobs += 1
        groupOfJob(e.jobId) = g
        e.stageIds.foreach(stageGroup(_) = g)
      }
    }
    override def onJobEnd(e: SparkListenerJobEnd): Unit = byGroup.synchronized {
      groupOfJob.remove(e.jobId).foreach(endedGroups += _)
    }
    override def onTaskEnd(e: SparkListenerTaskEnd): Unit = byGroup.synchronized {
      val m = e.taskMetrics
      for (g <- stageGroup.get(e.stageId); if m != null) {
        val c = byGroup.getOrElseUpdate(g, new Counters)
        c.tasks += 1
        c.recordsRead += m.inputMetrics.recordsRead
        c.bytesRead += m.inputMetrics.bytesRead
        c.shuffleReadBytes += m.shuffleReadMetrics.totalBytesRead
        c.shuffleWriteBytes += m.shuffleWriteMetrics.bytesWritten
        c.bytesWritten += m.outputMetrics.bytesWritten
        c.recordsWritten += m.outputMetrics.recordsWritten
        c.runTimeMs += m.executorRunTime
        c.gcMs += m.jvmGCTime
        c.maxTaskMs = math.max(c.maxTaskMs, e.taskInfo.duration)
      }
    }
  }

  if (enabled) sc.addSparkListener(listener)

  private var active = enabled

  /** Start a new operation; spans opened until the next call belong to it. */
  def beginOp(): Unit = { currentOp += 1 }

  /** Run `body` as a span named `name`, nested in the currently open span. */
  def span[T](name: String)(body: => T): T = {
    val id = nextId; nextId += 1
    val parent = stack.headOption.getOrElse(-1)
    stack.push(id)
    if (active) sc.setJobGroup(s"span-$id", name, interruptOnCancel = false)
    val t0 = System.nanoTime()
    try body
    finally {
      val t1 = System.nanoTime()
      stack.pop()
      spans += Span(id, currentOp, parent, name, t0, t1)
      if (active) {
        if (stack.isEmpty) sc.clearJobGroup()
        else sc.setJobGroup(s"span-${stack.head}", "", interruptOnCancel = false)
      }
    }
  }

  def all: Seq[Span] = spans.toSeq

  /** Facts known only to the benchmark (rows returned, predicted rows,
    * files written), keyed by span id.
    */
  val notes = mutable.Map.empty[Int, Map[String, Double]]

  /** Attach facts to the most recently closed span named `name`. */
  def note(name: String, facts: (String, Double)*): Unit =
    spans.reverseIterator.find(_.name == name).foreach { s =>
      notes(s.id) = notes.getOrElse(s.id, Map.empty) ++ facts
    }

  /** Wait until the listener has counted every job run so far. */
  def drain(): Unit = if (active) {
    val g = s"marker-$nextId"; nextId += 1
    sc.setJobGroup(g, "drain", interruptOnCancel = false)
    try sc.parallelize(Seq(1), 1).count() finally sc.clearJobGroup()
    val deadline = System.nanoTime() + 30L * 1000000000L
    while (!byGroup.synchronized(endedGroups(g)) && System.nanoTime() < deadline)
      Thread.sleep(5)
    require(byGroup.synchronized(endedGroups(g)), "Spark listener did not drain")
  }

  /** Spark work of a span and all spans nested in it. */
  def counters(s: Span): Counters = {
    val out = new Counters
    val inOp = spans.filter(_.op == s.op)
    def addTree(id: Int): Unit = {
      byGroup.synchronized(byGroup.get(s"span-$id")).foreach(out.add)
      inOp.filter(_.parent == id).foreach(c => addTree(c.id))
    }
    addTree(s.id)
    out
  }

  def detach(): Unit = if (active) { sc.removeSparkListener(listener); active = false }

  /** Write every span, with its own (not nested) Spark counters, as JSON lines. */
  def write(path: Path): Unit = {
    val w = new PrintWriter(path.toFile, "UTF-8")
    try for (s <- spans) {
      val c = byGroup.synchronized(byGroup.getOrElse(s"span-${s.id}", new Counters))
      w.println(
        s"""{"id":${s.id},"op":${s.op},"parent":${s.parent},"name":"${s.name}",""" +
        s""""start_ns":${s.startNs},"end_ns":${s.endNs},"jobs":${c.jobs},"tasks":${c.tasks},""" +
        s""""records_read":${c.recordsRead},"bytes_read":${c.bytesRead},""" +
        s""""shuffle_read_bytes":${c.shuffleReadBytes},"shuffle_write_bytes":${c.shuffleWriteBytes},""" +
        s""""bytes_written":${c.bytesWritten},"records_written":${c.recordsWritten},""" +
        s""""run_time_ms":${c.runTimeMs},"gc_ms":${c.gcMs},"max_task_ms":${c.maxTaskMs}}""")
    } finally w.close()
  }
}
