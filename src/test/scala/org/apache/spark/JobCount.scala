package org.apache.spark

import java.util.concurrent.atomic.AtomicInteger
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}

/** Counts the Spark jobs a block of code submits, by tagging them with a
  * job group of their own. Listener events arrive asynchronously, so the
  * count is read once the listener bus has drained (`waitUntilEmpty` is
  * package-private to Spark).
  */
object JobCount {
  def apply[A](sc: SparkContext)(body: => A): (A, Int) = {
    val group = s"job-count-${java.util.UUID.randomUUID()}"
    val jobs = new AtomicInteger
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit =
        if (Option(e.properties).exists(_.getProperty(SparkContext.SPARK_JOB_GROUP_ID) == group))
          jobs.incrementAndGet()
    }
    sc.addSparkListener(listener)
    try {
      sc.setJobGroup(group, group)
      val result = try body finally sc.clearJobGroup()
      sc.listenerBus.waitUntilEmpty()
      (result, jobs.get)
    } finally sc.removeSparkListener(listener)
  }
}
