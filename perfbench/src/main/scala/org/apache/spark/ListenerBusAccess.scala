package org.apache.spark

/** Listener events arrive asynchronously; counts read before the bus is
  * empty come up short. `waitUntilEmpty` is package-private to Spark.
  */
object ListenerBusAccess {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
