package repro.core

import scala.collection.mutable

/** A DAG vertex: a named processor factory plus its per-node parallelism.
  *
  * `localParallelism == -1` means "one instance per cooperative thread" —
  * Jet deploys the complete dataflow graph on every available core (§3.1).
  */
final class Vertex(
    val name: String,
    val createProcessor: () => Processor,
    val localParallelism: Int = -1
) {
  override def toString = s"Vertex($name, lp=$localParallelism)"
}

/** A directed edge of the Core DAG (§2.2).
  *
  * @param distributed false keeps the exchange node-local (§3.1's locality
  *                    optimization — e.g. the accumulate→combine first hop);
  *                    true spans the cluster through flow-controlled links.
  * @param priority    lower runs first: a tasklet drains priority-0 inputs
  *                    to completion before touching priority-1 (used by the
  *                    hash-join build side).
  */
final case class EdgeDef(
    from: String,
    fromOrdinal: Int,
    to: String,
    toOrdinal: Int,
    routing: RoutingPolicy,
    distributed: Boolean,
    priority: Int = 0
)

/** The Core API dataflow graph: vertices plus edges, with basic validation
  * (acyclicity, unique input ordinals). The Pipeline API compiles to this.
  */
final class Dag {
  private val vertexMap = mutable.LinkedHashMap.empty[String, Vertex]
  private val edgeBuf   = mutable.ArrayBuffer.empty[EdgeDef]

  def newVertex(name: String, create: () => Processor, localParallelism: Int = -1): Vertex = {
    require(!vertexMap.contains(name), s"duplicate vertex $name")
    val v = new Vertex(name, create, localParallelism)
    vertexMap(name) = v
    v
  }

  def edge(e: EdgeDef): Dag = {
    require(vertexMap.contains(e.from), s"unknown vertex ${e.from}")
    require(vertexMap.contains(e.to), s"unknown vertex ${e.to}")
    require(
      !edgeBuf.exists(x => x.to == e.to && x.toOrdinal == e.toOrdinal),
      s"input ordinal ${e.toOrdinal} of ${e.to} already connected"
    )
    edgeBuf += e
    this
  }

  def vertices: Vector[Vertex]     = vertexMap.values.toVector
  def vertex(name: String): Vertex = vertexMap(name)
  def edges: Vector[EdgeDef]       = edgeBuf.toVector

  def inboundEdges(name: String): Vector[EdgeDef]  = edges.filter(_.to == name).sortBy(_.toOrdinal)
  def outboundEdges(name: String): Vector[EdgeDef] = edges.filter(_.from == name)

  /** Vertices in topological order; throws on a cycle. */
  def topologicalOrder: Vector[Vertex] = {
    val inDeg = mutable.Map.empty[String, Int].withDefaultValue(0)
    vertexMap.keys.foreach(v => inDeg(v) = 0)
    edgeBuf.foreach(e => inDeg(e.to) += 1)
    val queue  = mutable.Queue.from(vertexMap.keys.filter(inDeg(_) == 0))
    val sorted = Vector.newBuilder[Vertex]
    var seen   = 0
    while (queue.nonEmpty) {
      val v = queue.dequeue()
      sorted += vertexMap(v)
      seen += 1
      edgeBuf.filter(_.from == v).foreach { e =>
        inDeg(e.to) -= 1
        if (inDeg(e.to) == 0) queue.enqueue(e.to)
      }
    }
    require(seen == vertexMap.size, "DAG contains a cycle")
    sorted.result()
  }
}
