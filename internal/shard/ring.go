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

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"

	"knighter/internal/api"
)

// Ring is the fleet's partition function: file path → owning shard.
// It is pure and stateless, so every replica computes the same
// partition from nothing but -shard-count; no membership protocol or
// rebalancing traffic exists to disagree about.
type Ring struct {
	// Count is the number of shards (>= 1).
	Count int
}

// FNV-1a, 64-bit (hash/fnv's New64a), inlined so that an owner lookup
// allocates nothing.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// Owner returns the shard index that owns path: FNV-1a 64 of the path
// modulo Count.
func (r Ring) Owner(path string) int {
	if r.Count <= 1 {
		return 0
	}
	h := uint64(fnvOffset64)
	for i := 0; i < len(path); i++ {
		h ^= uint64(path[i])
		h *= fnvPrime64
	}
	return int(h % uint64(r.Count))
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

// Table is the partition of one corpus, computed once at boot: the
// corpus paths in canonical file order, each shard's partition of them
// with the positions of its paths in that order, and each partition's
// reference (its index, file count and path digest). A coordinator
// names a partition of a whole-corpus read by its reference instead of
// listing its paths, and the owner resolves the reference against its
// own table: the two agree only when both replicas partition the same
// path list the same way.
type Table struct {
	Paths []string
	Parts [][]string
	pos   [][]int
	refs  []api.Partition
}

// Table partitions paths, the whole corpus in canonical file order.
func (r Ring) Table(paths []string) *Table {
	n := max(r.Count, 1)
	t := &Table{Paths: paths, Parts: make([][]string, n), pos: make([][]int, n)}
	for i, p := range paths {
		o := r.Owner(p)
		t.Parts[o], t.pos[o] = append(t.Parts[o], p), append(t.pos[o], i)
	}
	for s, part := range t.Parts {
		h := sha256.New()
		var n [binary.MaxVarintLen64]byte
		for _, p := range part {
			h.Write(n[:binary.PutUvarint(n[:], uint64(len(p)))])
			h.Write([]byte(p))
		}
		t.refs = append(t.refs, api.Partition{Index: s, Files: len(part), Digest: hex.EncodeToString(h.Sum(nil)[:16])})
	}
	return t
}

// Ref is the reference a sub-batch sends for partition s.
func (t *Table) Ref(s int) api.Partition { return t.refs[s] }

// Resolve returns the positions in Paths of the files of the partition
// ref names — the corpus's file indices, since Paths is in file order —
// or an error when ref is not exactly one of t's references: the sender
// partitions another corpus, or the same corpus another way.
func (t *Table) Resolve(ref api.Partition) ([]int, error) {
	if ref.Index < 0 || ref.Index >= len(t.refs) || t.refs[ref.Index] != ref {
		return nil, fmt.Errorf("partition %d (%d files, digest %s) is not one of this replica's", ref.Index, ref.Files, ref.Digest)
	}
	return t.pos[ref.Index], nil
}
