"""WAL-shipping replication: follower reads and leader failover.

The ROADMAP's "millions of read-heavy users" item.  Each shard's
(WAL, oracle) pair is the unit of replication:

* :class:`~repro.replication.follower.FollowerShard` — a complete
  replica :class:`~repro.storage.engine.StorageEngine` fed committed
  WAL records by its leader and replaying them with the existing redo
  path (:func:`repro.storage.recovery._apply` + version stamping), so
  a snapshot at or below its applied commit timestamp reads
  bit-for-bit the leader's data.
* :class:`~repro.replication.engine.ReplicatedStorageEngine` — a
  :class:`~repro.storage.sharding.ShardedStorageEngine` that ships each
  shard's durable log delta to its followers at commit-ack time
  (semi-synchronous: received-before-acknowledged, so an acknowledged
  commit can never be lost to a leader crash), routes SNAPSHOT reads to
  any follower whose applied position dominates the reading
  transaction's consistent cut, serves stale-but-consistent cuts under
  a ``max_staleness`` bound, and promotes the maximal-durable-position
  follower on leader failure via the existing recovery path.

The client façade exposes all of it through
``repro.connect(..., replicas=N, max_staleness=K)``; sessions layer
read-your-writes on top by pinning their begin cuts to the vectors of
their own commits.
"""

from repro.replication.follower import FollowerShard
from repro.replication.engine import ReplicatedStorageEngine

__all__ = ["FollowerShard", "ReplicatedStorageEngine"]
