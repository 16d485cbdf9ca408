package repro.core

import scala.collection.mutable
import repro.imdg.GridCluster

/** Instantiates a [[Dag]] onto the cluster: one copy of the whole graph per
  * member, `localParallelism` processor instances per vertex per member
  * (§3.1, Figure 3), SPSC queues for every producer→consumer pair, local
  * routing wherever the edge allows it, and receive-window flow control on
  * every member-crossing pair of a distributed edge. One
  * [[PartitionOwnership]], built from the grid's partition table, decides
  * both where partitioned edges send a key and which instance restores the
  * key's snapshot state.
  */
object ExecutionPlan {

  /** Snapshot entry values are stored in the IMDG *serialized*, as Hazelcast
    * does — serialization is a real, paid cost of every checkpoint and a
    * large part of Fig. 13's latency overhead (§7.6).
    */
  private[core] def serialize(v: Any): Array[Byte] = {
    val bos = new java.io.ByteArrayOutputStream()
    val oos = new java.io.ObjectOutputStream(bos)
    oos.writeObject(v)
    oos.close()
    bos.toByteArray
  }

  private[core] def deserialize(b: Array[Byte]): Any = {
    val ois = new java.io.ObjectInputStream(new java.io.ByteArrayInputStream(b))
    try ois.readObject() finally ois.close()
  }

  /** Late binding between tasklet callbacks and the Job (which is only
    * constructed once the tasklets exist).
    */
  private final class JobRef { var job: Job = _ }

  final class Plan(
      val tasklets: Vector[ProcessorTasklet],
      val byNode: Vector[(JetNode, Vector[Tasklet])],
      private val ref: JobRef
  ) {
    def bindJob(j: Job): Unit = ref.job = j
  }

  private final class Instance(
      val vertex: Vertex,
      val node: JetNode,
      val globalIdx: Int
  ) {
    val processor: Processor = vertex.createProcessor()
    val channels             = mutable.ArrayBuffer.empty[InputChannel]
    val collectors           = mutable.ArrayBuffer.empty[EdgeCollector]
    val restored             = mutable.ArrayBuffer.empty[(Any, Any)]
  }

  def build(
      dag: Dag,
      nodes: Vector[JetNode],
      jobId: Long,
      config: JobConfig,
      grid: GridCluster,
      ctl: SnapshotController, // null when FT off
      restoreSnapshotId: Long
  ): Plan = {
    require(nodes.nonEmpty)
    dag.topologicalOrder // validates acyclicity

    def lp(v: Vertex): Int = if (v.localParallelism > 0) v.localParallelism else nodes.head.cooperativeThreads

    val ownership = PartitionOwnership(grid.table, nodes.map(_.id).toArray)

    // 1. Processor instances, numbered member by member as the ownership
    //    map numbers them: globalIdx = nodeIdx * lp + localIdx.
    val instances: Map[String, Vector[Instance]] = dag.vertices.map { v =>
      val l = lp(v)
      val is = for {
        (node, nodeIdx) <- nodes.zipWithIndex
        localIdx        <- 0 until l
      } yield new Instance(v, node, nodeIdx * l + localIdx)
      v.name -> is
    }.toMap

    // 2. Edges: queues + channels + collectors. Out-edge order per vertex
    //    follows dag.outboundEdges so every producer instance's outbox has
    //    a consistent edge layout. A partitioned edge's sinks are indexed
    //    the way `ownership.routes` numbers them.
    for (v <- dag.vertices; e <- dag.outboundEdges(v.name)) {
      val producers = instances(e.from)
      val consumers = instances(e.to)
      val routes = e.routing match {
        case _: RoutingPolicy.Partitioned => ownership.routes(lp(consumers.head.vertex), e.distributed)
        case _                            => null
      }
      // One shared flow-control link per (edge, fromNode, toNode) pair.
      val links = mutable.Map.empty[(Int, Int), ReceiveWindow]
      for (p <- producers) {
        val targets = if (e.distributed) consumers else consumers.filter(_.node.id == p.node.id)
        require(targets.nonEmpty, s"edge ${e.from}->${e.to}: no reachable consumers")
        val sinks: Array[QueueSink] = targets.map { c =>
          val q = new SpscQueue(config.queueSize)
          val link =
            if (e.distributed && c.node.id != p.node.id)
              links.getOrElseUpdate((p.node.id, c.node.id), new ReceiveWindow())
            else null
          c.channels += new InputChannel(q, e.toOrdinal, e.priority, link)
          if (link != null) new FlowControlledSink(q, link) else new LocalQueueSink(q)
        }.toArray
        p.collectors += new EdgeCollector(sinks, e.routing, routes)
      }
    }

    // 3. Snapshot restore: each partition's keyed entries go to the
    //    instance that owns the partition now, broadcast entries to every
    //    instance of their vertex.
    if (restoreSnapshotId > 0) {
      val map = grid.getMap[SnapshotKey, Array[Byte]](ctl.snapshotMapName(restoreSnapshotId))
      for (p <- 0 until ownership.partitionCount; (k, bytes) <- map.entriesInPartition(p)) {
        val owners = instances.getOrElse(k.vertex, throw new IllegalStateException(
          s"snapshot $restoreSnapshotId: entry ${k.entryKey} of vertex ${k.vertex} (partition $p) " +
            "has no owning instance: the job has no such vertex"))
        val entry = (k.entryKey, deserialize(bytes))
        k.entryKey match {
          case _: BroadcastKey => owners.foreach(_.restored += entry)
          case _               => owners(ownership.instanceOf(p, lp(owners.head.vertex))).restored += entry
        }
      }
    }

    // 4. Tasklets.
    val jobRef         = new JobRef
    val taskletsByNode = mutable.Map.empty[Int, mutable.ArrayBuffer[ProcessorTasklet]]
    val allTasklets    = Vector.newBuilder[ProcessorTasklet]

    for (v <- dag.vertices; inst <- instances(v.name)) {
      val total = instances(v.name).size
      val ctx   = ProcessorContext(jobId, v.name, inst.globalIdx, total, inst.node.id)
      inst.processor.init(ctx)
      if (inst.restored.nonEmpty) inst.processor.restoreSnapshot(inst.restored.iterator)
      val taskletId = s"j$jobId-${v.name}-${inst.globalIdx}"
      val writer: (Long, Iterator[(Any, Any)]) => Unit =
        if (ctl == null) (_, _) => ()
        else { (snapId, entries) =>
          val map = grid.getMap[SnapshotKey, Array[Byte]](ctl.snapshotMapName(snapId))
          entries.foreach { case (k, value) =>
            map.put(SnapshotKey(v.name, inst.globalIdx, k), serialize(value))
          }
        }
      val t = new ProcessorTasklet(
        taskletId,
        ctx,
        inst.processor,
        inst.channels.toArray,
        new Outbox(inst.collectors.toArray),
        config.guarantee,
        ctl,
        writer,
        tk => jobRef.job.onTaskletFinished(tk),
        e => jobRef.job.onTaskletFailed(e)
      )
      if (ctl != null) ctl.register(taskletId)
      allTasklets += t
      taskletsByNode.getOrElseUpdate(inst.node.id, mutable.ArrayBuffer.empty) += t
    }

    val tasklets = allTasklets.result()
    val byNode = nodes.map { n =>
      (n, taskletsByNode.getOrElse(n.id, mutable.ArrayBuffer.empty).toVector: Vector[Tasklet])
    }
    new Plan(tasklets, byNode, jobRef)
  }
}
