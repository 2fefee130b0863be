package perfbench

import org.apache.spark.SparkContext
import org.apache.spark.scheduler._
import scala.collection.mutable

/** Spark work per job group. The benchmark tags every call into a layer
  * (`<engine>.load`, `<engine>.plan`, ...) with a job group; this listener
  * charges each job, completed stage and finished task to the group of the
  * job that submitted it. All counts come from Spark's own events.
  */
final class Tracer extends SparkListener {

  final class Counts {
    var jobs = 0L
    var stages = 0L
    var tasks = 0L
    var shuffleWriteBytes = 0L
    var spillBytes = 0L
    var cachedBytes = 0L
  }

  // Only the listener-bus thread writes; read after `drain`.
  private val stageGroup = mutable.Map.empty[Int, String]
  private val groups = mutable.Map.empty[String, Counts]

  private def counts(g: String): Counts = groups.getOrElseUpdate(g, new Counts)

  override def onJobStart(e: SparkListenerJobStart): Unit = {
    val g = Option(e.properties).flatMap(p => Option(p.getProperty("spark.jobGroup.id")))
      .getOrElse(Tracer.Untagged)
    val c = counts(g)
    c.jobs += 1
    e.stageIds.foreach(stageGroup(_) = g)
  }

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit =
    stageGroup.get(e.stageInfo.stageId).foreach { g =>
      val c = counts(g)
      c.stages += 1
    }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit =
    for (g <- stageGroup.get(e.stageId); m <- Option(e.taskMetrics)) {
      val c = counts(g)
      c.tasks += 1
      c.shuffleWriteBytes += m.shuffleWriteMetrics.bytesWritten
      c.spillBytes += m.memoryBytesSpilled + m.diskBytesSpilled
      for ((id, st) <- m.updatedBlockStatuses if id.isRDD) c.cachedBytes += st.memSize + st.diskSize
    }

  /** Counts of one group after every event posted so far was delivered. */
  def get(sc: SparkContext, group: String): Counts = {
    org.apache.spark.ListenerBusAccess.drain(sc)
    groups.getOrElse(group, new Counts)
  }

  def totalSpillBytes(sc: SparkContext): Long = {
    org.apache.spark.ListenerBusAccess.drain(sc)
    groups.values.map(_.spillBytes).sum
  }
}

object Tracer {
  val Untagged = "untagged"

  /** Runs `body` with its Spark jobs tagged as `group`. */
  def tagged[A](sc: SparkContext, group: String)(body: => A): A = {
    sc.setJobGroup(group, group)
    try body finally sc.clearJobGroup()
  }
}
