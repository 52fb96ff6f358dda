package main

import (
	"bytes"
	"math"
	"sync"
	"testing"

	"knighter/internal/kernel"
	"knighter/internal/scan"
)

var (
	seed1Once sync.Once
	seed1     *inputs
	seed1Err  error
)

// inputsSeed1 builds the seed-1 inputs once for every test that reads
// them (about a second: corpus, synthesis, two reference scans).
func inputsSeed1(t *testing.T) *inputs {
	t.Helper()
	seed1Once.Do(func() { seed1, seed1Err = buildInputs(1) })
	if seed1Err != nil {
		t.Fatal(seed1Err)
	}
	return seed1
}

// dump renders the first n ops of a workload's script, for the
// determinism test and for eyeballing. Generations are the ones a fresh
// daemon would return: 1 after canonicalization, then one per commit.
func (s *script) dump(workload string, n int) []byte {
	var out []byte
	add := func(b []byte) { out = append(append(out, b...), '\n') }
	add(s.in.canon)
	for i := 0; i < n; i++ {
		switch workload {
		case wlWarmServe:
			for c := 0; c < 2; c++ {
				_, b := s.warmOp(c, i, false)
				add(b)
			}
		case wlColdSweep:
			_, _, b := s.coldOp("r", i, false)
			add(b)
		default:
			_, b := s.commitOp(i)
			add(b)
			_, b = s.rescanOp(i, int64(i)+2, false)
			add(b)
			_, b = s.warmOp(1, i, false)
			add(b)
		}
	}
	return out
}

func TestSameSeedSameScript(t *testing.T) {
	a := newScript(inputsSeed1(t))
	again, err := buildInputs(1)
	if err != nil {
		t.Fatal(err)
	}
	other, err := buildInputs(2)
	if err != nil {
		t.Fatal(err)
	}
	b, c := newScript(again), newScript(other)
	for _, w := range workloadNames() {
		if !bytes.Equal(a.dump(w, 40), b.dump(w, 40)) {
			t.Errorf("%s: two builds of seed 1 give different request scripts", w)
		}
		if bytes.Equal(a.dump(w, 40), c.dump(w, 40)) {
			t.Errorf("%s: seeds 1 and 2 give the same request script", w)
		}
	}
}

func TestPoolCoversEveryBugClass(t *testing.T) {
	in := inputsSeed1(t)
	if len(in.pool) != poolSize {
		t.Fatalf("pool has %d checkers, want %d", len(in.pool), poolSize)
	}
	if in.commits != 61 || in.valid != 39 {
		t.Errorf("pipeline validated %d of %d commits at seed 1, want 39 of 61", in.valid, in.commits)
	}
	classes, names := map[string]bool{}, map[string]bool{}
	for _, p := range in.pool {
		classes[p.Class] = true
		if names[p.Base] {
			t.Errorf("checker %s is in the pool twice", p.Base)
		}
		names[p.Base] = true
		name, spec := p.revision("r7")
		if name != p.Base+"_r7" || spec == p.Spec || len(spec) != len(p.Spec)+len("_r7") {
			t.Errorf("revision of %s: name %q, spec grew by %d bytes", p.Base, name, len(spec)-len(p.Spec))
		}
	}
	if len(classes) != 10 {
		t.Errorf("pool covers %d bug classes, want all 10", len(classes))
	}
}

// The measured changesets must flip the corpus between exactly two
// states, each flip changing exactly one function in each toggled file —
// that is what bounds every post-commit scan to four misses.
func TestChangesetsAlternateBetweenTwoStates(t *testing.T) {
	in := inputsSeed1(t)
	cb, err := scan.NewCodebase(kernel.Generate(kernel.Config{Seed: 1, Scale: corpusScale}))
	if err != nil {
		t.Fatal(err)
	}
	var canon []scan.Change
	for _, tf := range in.toggles {
		f := cb.Files()[cb.FileIndex(tf.Path)]
		if got := len(f.Funcs); got == 0 || f.Funcs[got-1].Name != tf.Func {
			t.Fatalf("%s: toggled function %s is not the file's last", tf.Path, tf.Func)
		}
		canon = append(canon, scan.Change{Path: tf.Path, Source: tf.FileA})
	}
	if _, err := cb.ApplyChangeset(canon); err != nil {
		t.Fatal(err)
	}
	hashes := func() []string {
		var out []string
		for i, f := range cb.Files() {
			for j := range f.Funcs {
				out = append(out, cb.FuncHash(i, j))
			}
		}
		return out
	}
	states := [2][]string{hashes(), nil}
	for i := 0; i < 4; i++ {
		cs, err := cb.ApplyChangeset(in.toggleChanges(i%2 == 0))
		if err != nil {
			t.Fatal(err)
		}
		if cs.Changed != toggled || len(cs.Files) != toggled {
			t.Fatalf("flip %d changed %d functions in %d files, want %d in %d", i, cs.Changed, len(cs.Files), toggled, toggled)
		}
		now := hashes()
		st := (i + 1) % 2
		if states[st] == nil {
			states[st] = now
		}
		diff := 0
		for k := range now {
			if now[k] != states[st][k] {
				diff++
			}
		}
		if diff != 0 {
			t.Fatalf("flip %d: %d functions differ from the first visit to state %d", i, diff, st)
		}
	}
}

func TestReferenceCoversPoolAndChecks(t *testing.T) {
	in := inputsSeed1(t)
	for _, p := range in.pool {
		ref := in.ref["knighter."+p.Base]
		if ref == nil {
			t.Fatalf("no reference for %s", p.Base)
		}
		a := sig{rest: ref.rest}
		for k := range a.files {
			a.files[k] = ref.files[k][0]
		}
		// Generation 1 and every odd one hold state A.
		if err := in.check(p.Base, a, 1, true); err != nil {
			t.Errorf("state-A answer at generation 1: %v", err)
		}
		if err := in.check(p.Base, a, 0, true); err == nil {
			t.Errorf("%s: an answer from before canonicalization passed", p.Base)
		}
		bad := a
		bad.rest ^= 1
		if err := in.check(p.Base, bad, 1, false); err == nil {
			t.Errorf("%s: a corrupted answer passed", p.Base)
		}
	}
}

// A fleet read may merge partials from shards one commit apart, so each
// toggled file may be in either state; every other read must match the
// state of its generation exactly.
func TestCheckStrictness(t *testing.T) {
	in := &inputs{ref: map[string]*refDigest{"knighter.c": {
		rest:  7,
		files: [toggled][2]uint64{{1, 2}, {3, 4}, {5, 5}, {0, 0}},
	}}}
	in.toggles[0].Path = "a.c"
	stateA := sig{rest: 7, files: [toggled]uint64{1, 3, 5, 0}}
	stateB := sig{rest: 7, files: [toggled]uint64{2, 4, 5, 0}}
	mixed := sig{rest: 7, files: [toggled]uint64{2, 3, 5, 0}}
	for _, c := range []struct {
		name   string
		s      sig
		gen    int64
		strict bool
		ok     bool
	}{
		{"A at odd generation", stateA, 3, true, true},
		{"B at even generation", stateB, 2, true, true},
		{"A at even generation", stateA, 2, true, false},
		{"mixed, strict", mixed, 2, true, false},
		{"mixed, fleet read", mixed, 2, false, true},
		{"A at even generation, fleet read", stateA, 2, false, true},
	} {
		if err := in.check("c", c.s, c.gen, c.strict); (err == nil) != c.ok {
			t.Errorf("%s: err = %v, want ok = %v", c.name, err, c.ok)
		}
	}
}

// seeded_bug_recall at seed 1, pinned: the share of the corpus's 92
// seeded bugs that the 12 pool checkers' reference answers flag. The
// runner prints the same number from the daemons' answers.
func TestSeededBugRecallPinned(t *testing.T) {
	in := inputsSeed1(t)
	const want = 39.0 / 92.0
	if got := in.recall(in.refSites); math.Abs(got-want) > 1e-9 {
		t.Errorf("seeded_bug_recall at seed 1 = %.4f, pinned %.4f", got, want)
	}
}
