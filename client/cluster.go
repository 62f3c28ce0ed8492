// Cluster-aware client: one logical connection to an S-Store cluster.
// A ClusterClient holds the static cluster map (node → address →
// partition set) and routes every request to the node that owns its
// partition, falling back to server-side forwarding (the owning node
// serves the request one hop later) when the client cannot compute the
// partition itself — servers accept any request on any node.
package client

import (
	"fmt"
	"sync"
	"time"

	"sstore"
	"sstore/internal/cluster"
)

// ClusterClient fans requests out across the nodes of a cluster map.
// Connections are dialed lazily per node and redialed once per request
// after a transport failure, so a restarted node is picked back up
// transparently. Methods are safe for concurrent use.
type ClusterClient struct {
	cfg *cluster.Config

	// PartitionOf optionally mirrors the server application's
	// PartitionBy routing function (raw key, pre-wrap). When set,
	// Ingest routes each batch directly to the node owning its
	// partition; when nil, batches go to the first node and reach the
	// owner by server-side forwarding (one extra hop).
	PartitionOf func(stream string, rows []sstore.Row) int
	// RouteCallTo optionally mirrors the application's RouteCall
	// function; same contract as PartitionOf, for Call.
	RouteCallTo func(sp string, params sstore.Row) int

	mu    sync.Mutex
	conns map[int]*Client // by node ID
	rr    int             // round-robin cursor for unrouted Calls
}

// DialCluster builds a cluster client over a validated cluster map.
// Nothing is dialed until the first request needs a node.
func DialCluster(cfg *cluster.Config) (*ClusterClient, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &ClusterClient{cfg: cfg, conns: make(map[int]*Client)}, nil
}

// DialClusterSpec is DialCluster over the textual cluster map format
// of cmd/sstore-server -cluster ("id=host:port:p0,p1;...").
func DialClusterSpec(spec string) (*ClusterClient, error) {
	cfg, err := cluster.Parse(spec)
	if err != nil {
		return nil, err
	}
	return DialCluster(cfg)
}

// Close closes every node connection.
func (cc *ClusterClient) Close() error {
	cc.mu.Lock()
	conns := cc.conns
	cc.conns = make(map[int]*Client)
	cc.mu.Unlock()
	var first error
	for _, c := range conns {
		if err := c.Close(); err != nil && first != nil {
			first = err
		}
	}
	return first
}

// Config returns the cluster map the client routes by.
func (cc *ClusterClient) Config() *cluster.Config { return cc.cfg }

// Node returns the (cached or freshly dialed) connection to one node,
// for callers that need per-connection features — pipelined
// IngestAsync, per-node Drain — the cluster-wide wrappers do not
// expose.
func (cc *ClusterClient) Node(id int) (*Client, error) { return cc.node(id) }

// node returns the (cached or freshly dialed) connection to a node.
func (cc *ClusterClient) node(id int) (*Client, error) {
	n, err := cc.cfg.NodeByID(id)
	if err != nil {
		return nil, err
	}
	cc.mu.Lock()
	if c, ok := cc.conns[id]; ok {
		cc.mu.Unlock()
		return c, nil
	}
	cc.mu.Unlock()
	c, err := Dial(n.Addr)
	if err != nil {
		return nil, fmt.Errorf("client: node %d (%s): %w", id, n.Addr, err)
	}
	cc.mu.Lock()
	if prev, ok := cc.conns[id]; ok {
		// Lost a dial race; keep the established one.
		cc.mu.Unlock()
		c.Close()
		return prev, nil
	}
	cc.conns[id] = c
	cc.mu.Unlock()
	return c, nil
}

// invalidate drops a node's cached connection (if it is still the one
// that failed) so the next request redials.
func (cc *ClusterClient) invalidate(id int, c *Client) {
	cc.mu.Lock()
	if cc.conns[id] == c {
		delete(cc.conns, id)
	}
	cc.mu.Unlock()
	c.Close()
}

// onNode runs fn against a node's connection, redialing and retrying
// exactly once when the connection had died (sticky transport error) —
// the restarted-node path. Request-level errors pass through.
func (cc *ClusterClient) onNode(id int, fn func(c *Client) error) error {
	c, err := cc.node(id)
	if err != nil {
		return err
	}
	err = fn(c)
	if err != nil && c.Broken() {
		cc.invalidate(id, c)
		if c, err = cc.node(id); err != nil {
			return err
		}
		return fn(c)
	}
	return err
}

// wrap maps a raw routing key into the cluster-wide partition space,
// mirroring the engine's own wrap.
func (cc *ClusterClient) wrap(key int) int {
	n := cc.cfg.Partitions()
	return ((key % n) + n) % n
}

// ownerID returns the node owning a (wrapped) partition.
func (cc *ClusterClient) ownerID(pid int) (int, error) {
	n, err := cc.cfg.Owner(pid)
	if err != nil {
		return 0, err
	}
	return n.ID, nil
}

// nextNode picks a node round-robin for requests the client cannot
// route itself; the server forwards to the owner when needed.
func (cc *ClusterClient) nextNode() int {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	id := cc.cfg.Nodes[cc.rr%len(cc.cfg.Nodes)].ID
	cc.rr++
	return id
}

// Call invokes a stored procedure, on the owning node when RouteCallTo
// is set, else on a round-robin node (which forwards if it does not
// own the routed partition).
func (cc *ClusterClient) Call(sp string, params ...sstore.Value) (*Result, error) {
	id := 0
	if cc.RouteCallTo != nil {
		pid := cc.wrap(cc.RouteCallTo(sp, sstore.Row(params)))
		var err error
		if id, err = cc.ownerID(pid); err != nil {
			return nil, err
		}
	} else {
		id = cc.nextNode()
	}
	var res *Result
	err := cc.onNode(id, func(c *Client) error {
		var err error
		res, err = c.Call(sp, params...)
		return err
	})
	return res, err
}

// Query runs a read-only statement against a consistent snapshot of
// one partition, on the node that owns it.
func (cc *ClusterClient) Query(partition int, stmt string, params ...sstore.Value) (*Result, error) {
	id, err := cc.ownerID(partition)
	if err != nil {
		return nil, err
	}
	var res *Result
	err = cc.onNode(id, func(c *Client) error {
		var err error
		res, err = c.Query(partition, stmt, params...)
		return err
	})
	return res, err
}

// Ingest pushes an atomic batch into a border stream on the owning
// node (PartitionOf set) or the first node (server forwards). The
// exactly-once ledger lives on the owning node either way, so retrying
// an uncertain outcome — including after a node restart — is legal and
// duplicate-suppressed.
func (cc *ClusterClient) Ingest(streamName string, b *sstore.Batch) error {
	id := cc.cfg.Nodes[0].ID
	if cc.PartitionOf != nil {
		pid := cc.wrap(cc.PartitionOf(streamName, b.Rows))
		var err error
		if id, err = cc.ownerID(pid); err != nil {
			return err
		}
	}
	return cc.onNode(id, func(c *Client) error {
		return c.Ingest(streamName, b)
	})
}

// IngestRetry is Ingest with the overload-retry loop of
// Client.IngestRetry, against the routed node.
func (cc *ClusterClient) IngestRetry(streamName string, b *sstore.Batch) error {
	id := cc.cfg.Nodes[0].ID
	if cc.PartitionOf != nil {
		pid := cc.wrap(cc.PartitionOf(streamName, b.Rows))
		var err error
		if id, err = cc.ownerID(pid); err != nil {
			return err
		}
	}
	return cc.onNode(id, func(c *Client) error {
		return c.IngestRetry(streamName, b)
	})
}

// NodeStats fetches each node's counter snapshot, by node ID.
func (cc *ClusterClient) NodeStats() (map[int]Stats, error) {
	out := make(map[int]Stats, len(cc.cfg.Nodes))
	for i := range cc.cfg.Nodes {
		id := cc.cfg.Nodes[i].ID
		var st Stats
		err := cc.onNode(id, func(c *Client) error {
			var err error
			st, err = c.Stats()
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("client: stats from node %d: %w", id, err)
		}
		out[id] = st
	}
	return out, nil
}

// Stats combines the counters across all nodes into one cluster-wide
// snapshot: every counter sums (see Stats.Add).
func (cc *ClusterClient) Stats() (Stats, error) {
	per, err := cc.NodeStats()
	if err != nil {
		return Stats{}, err
	}
	var sum Stats
	for _, st := range per {
		sum.Add(st)
	}
	return sum, nil
}

// Drain blocks until the cluster is quiescent: every node drained AND
// zero unacknowledged hand-offs anywhere. A node's own Drain does not
// cover batches it handed to a peer, so the loop alternates drain
// rounds with cluster-wide pending checks until a drained round shows
// nothing in flight. Like Client.Drain, this is for tests and
// controlled benchmarks; under continuous ingestion from other clients
// it may block indefinitely.
func (cc *ClusterClient) Drain() error {
	for {
		for i := range cc.cfg.Nodes {
			id := cc.cfg.Nodes[i].ID
			if err := cc.onNode(id, func(c *Client) error { return c.Drain() }); err != nil {
				return err
			}
		}
		st, err := cc.Stats()
		if err != nil {
			return err
		}
		if st.HandoffsPending == 0 {
			return nil
		}
		time.Sleep(5 * time.Millisecond)
	}
}
