package repro.spark

/** The benchmark's door to the Structured Streaming operator's own state
  * codec, so that `state_serialized_kb` and the `spark.state_*` metrics
  * follow whatever encoding `StructuredTopK` uses.
  */
object PerfbenchStateCodec {
  def serialize(st: StreamState): Array[Byte] = StructuredTopK.serialize(st)
  def deserialize(bytes: Array[Byte]): StreamState = StructuredTopK.deserialize(bytes)
}
