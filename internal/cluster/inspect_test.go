package cluster

// Client operations and inspection helpers only the tests use.

// Nodes returns the member count.
func (c *Cluster) Nodes() int { return c.cfg.Nodes }

// DelVia deletes key as a client attached to member via, with the same
// acknowledgement rule as PutVia.
func (c *Cluster) DelVia(via int, key string) error {
	c.stats.Dels++
	return c.writeVia(via, key, "", true)
}
