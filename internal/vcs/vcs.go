// Package vcs is a miniature commit store: enough version-control
// machinery to hand the synthesis pipeline what Algorithm 1 consumes — a
// patch commit with its message, the buggy (pre-patch) and patched
// (post-patch) file contents, and metadata used by the evaluation.
package vcs

import (
	"crypto/sha1"
	"encoding/hex"
	"fmt"
	"time"

	"knighter/internal/patch"
)

// Commit is one bug-fix commit: a single-file change with both sides
// retained so validation can scan pre- and post-patch objects.
type Commit struct {
	ID        string // 12-hex commit id
	Subject   string // one-line summary
	Body      string // free-text explanation (may be terse)
	File      string // e.g. "drivers/spi/spi-pci1xxxx.c"
	Subsystem string // top-level directory
	FuncName  string // primary modified function
	// Class is the labeled bug category (Table 1 taxonomy).
	Class string
	// Flavor is the API anchor of the pattern (e.g. "devm_kzalloc").
	Flavor string
	// Detailed indicates a commit message that explains the root cause
	// (like paper Fig. 4) rather than a terse "fix crash" subject.
	Detailed bool
	// Seq is the occurrence index of this (Class, Flavor) pair within
	// its dataset, used to key per-commit model-capability calibration.
	Seq int
	// AutoCollected marks commits from the keyword-collected NPD set
	// (§5.2) rather than the hand-labeled 61-commit benchmark.
	AutoCollected bool
	Before        string // pre-patch file content (buggy)
	After         string // post-patch file content (fixed)
	AuthorDate    time.Time
}

// Message renders the full commit message (subject + body).
func (c *Commit) Message() string {
	if c.Body == "" {
		return c.Subject
	}
	return c.Subject + "\n\n" + c.Body
}

// Diff returns the unified diff of the commit.
func (c *Commit) Diff() string {
	return patch.Diff(c.File, c.File, c.Before, c.After, 3)
}

// Store holds commits indexed by id.
type Store struct {
	commits map[string]*Commit
	order   []string
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{commits: map[string]*Commit{}}
}

// Add inserts a commit, assigning its content-derived ID if unset.
func (s *Store) Add(c *Commit) *Commit {
	if c.ID == "" {
		c.ID = HashID(c.File, c.FuncName, c.Subject, c.Before, c.After)
	}
	if _, dup := s.commits[c.ID]; !dup {
		s.order = append(s.order, c.ID)
	}
	s.commits[c.ID] = c
	return c
}

// All returns the commits in insertion order.
func (s *Store) All() []*Commit {
	out := make([]*Commit, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.commits[id])
	}
	return out
}

// ByClass returns commits of one bug class, insertion-ordered.
func (s *Store) ByClass(class string) []*Commit {
	var out []*Commit
	for _, c := range s.All() {
		if c.Class == class {
			out = append(out, c)
		}
	}
	return out
}

// HashID derives a stable 12-hex id from content.
func HashID(parts ...string) string {
	h := sha1.New()
	for _, p := range parts {
		fmt.Fprintf(h, "%d:%s", len(p), p)
	}
	return hex.EncodeToString(h.Sum(nil))[:12]
}
