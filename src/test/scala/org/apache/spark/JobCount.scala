package org.apache.spark

import java.util.concurrent.ConcurrentHashMap
import java.util.concurrent.atomic.{AtomicInteger, AtomicLong}
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerStageCompleted, SparkListenerStageSubmitted}

/** What a block of code made Spark do: the jobs it submitted, the stages
  * those jobs ran (skipped stages excluded), their tasks, the shuffle
  * bytes they wrote and the input records they read (Spark counts every
  * record read from a cached block).
  */
final case class SparkWork(jobs: Int, stages: Int, tasks: Int, shuffleWriteBytes: Long, recordsRead: Long)

/** Counts the Spark work a block of code submits, by tagging its jobs with
  * a job group of their own. Listener events arrive asynchronously, so the
  * counts are read once the listener bus has drained (`waitUntilEmpty` is
  * package-private to Spark).
  */
object JobCount {
  def apply[A](sc: SparkContext)(body: => A): (A, Int) = {
    val (result, w) = work(sc)(body)
    (result, w.jobs)
  }

  def work[A](sc: SparkContext)(body: => A): (A, SparkWork) = {
    val group = s"job-count-${java.util.UUID.randomUUID()}"
    def ours(props: java.util.Properties) =
      Option(props).exists(_.getProperty(SparkContext.SPARK_JOB_GROUP_ID) == group)
    val jobs, stages, tasks = new AtomicInteger
    val shuffleWrite, recordsRead = new AtomicLong
    val submitted = ConcurrentHashMap.newKeySet[Int]()
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit =
        if (ours(e.properties)) jobs.incrementAndGet()
      override def onStageSubmitted(e: SparkListenerStageSubmitted): Unit =
        if (ours(e.properties)) submitted.add(e.stageInfo.stageId)
      override def onStageCompleted(e: SparkListenerStageCompleted): Unit =
        if (submitted.contains(e.stageInfo.stageId)) {
          stages.incrementAndGet()
          tasks.addAndGet(e.stageInfo.numTasks)
          shuffleWrite.addAndGet(e.stageInfo.taskMetrics.shuffleWriteMetrics.bytesWritten)
          recordsRead.addAndGet(e.stageInfo.taskMetrics.inputMetrics.recordsRead)
        }
    }
    sc.addSparkListener(listener)
    try {
      sc.setJobGroup(group, group)
      val result = try body finally sc.clearJobGroup()
      sc.listenerBus.waitUntilEmpty()
      (result, SparkWork(jobs.get, stages.get, tasks.get, shuffleWrite.get, recordsRead.get))
    } finally sc.removeSparkListener(listener)
  }
}
