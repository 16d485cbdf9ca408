package repro.imdg

/** Replica assignment for every partition: `replicas(p)` is the ordered
  * list of node ids holding partition `p` — head is the *primary* replica,
  * the rest are backups (§4.2 of the paper, Figure 5).
  */
final case class PartitionTable(replicas: Vector[Vector[Int]]) {

  def partitionCount: Int = replicas.size

  /** Node holding the primary replica of partition `p`. */
  def primary(p: Int): Int = replicas(p).head

  /** Nodes holding backup replicas of partition `p`, in promotion order. */
  def backups(p: Int): Vector[Int] = replicas(p).tail

  /** All nodes holding any replica of partition `p`. */
  def holders(p: Int): Vector[Int] = replicas(p)

  /** Replica-count histogram node → number of replicas held. */
  def loadByNode: Map[Int, Int] =
    replicas.flatten.groupBy(identity).map { case (n, xs) => n -> xs.size }
}
