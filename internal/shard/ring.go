// Package shard implements horizontal scan fan-out for a kserve fleet:
// a hash ring that partitions the corpus by file path across N shard
// owners, a scatter client that fans a scan or batch out to the owners
// as shard-local sub-requests (with per-shard timeouts and a local
// fallback when a shard is dead or behind), a deterministic merge that reassembles the partials
// byte-identically to a single-host scan, and a generation-feed client
// that commits changesets fleet-wide through kcached.
//
// The design premise is that every replica parses the FULL corpus —
// sharding shares scan *work*, not memory — which is what makes "any
// replica can coordinate" and "fall back to the local snapshot" cheap:
// a coordinator is never missing the files of a dead shard, it is just
// slower at scanning them.
package shard

import "hash/fnv"

// Ring is the fleet's partition function: file path → owning shard.
// It is pure and stateless, so every replica computes the same
// partition from nothing but -shard-count; no membership protocol or
// rebalancing traffic exists to disagree about.
type Ring struct {
	// Count is the number of shards (>= 1).
	Count int
}

// Owner returns the shard index that owns path.
func (r Ring) Owner(path string) int {
	if r.Count <= 1 {
		return 0
	}
	h := fnv.New64a()
	h.Write([]byte(path))
	return int(h.Sum64() % uint64(r.Count))
}

// Partition splits paths into per-shard partitions, preserving the
// input order within each partition — the property the merge relies on:
// concatenating the partitions' results in global path order only works
// if each shard scanned its files in that same relative order.
func (r Ring) Partition(paths []string) [][]string {
	parts := make([][]string, max(r.Count, 1))
	for _, p := range paths {
		o := r.Owner(p)
		parts[o] = append(parts[o], p)
	}
	return parts
}
