package main

import (
	"fmt"
	"strconv"

	"knighter/internal/minic"
	"knighter/internal/scan"
)

// Response bodies, decoded with the runner's own structs (see the note
// on request bodies in inputs.go). Only the fields the runner checks or
// measures are listed.

type wireReport struct {
	Checker string `json:"checker"`
	BugType string `json:"bug_type"`
	Message string `json:"message"`
	File    string `json:"file"`
	Func    string `json:"func"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Region  string `json:"region"`
}

type wireCache struct {
	Hits   int `json:"hits"`
	Misses int `json:"misses"`
}

type wireSpan struct {
	Name     string  `json:"name"`
	OffsetMS float64 `json:"offset_ms"`
	DurMS    float64 `json:"dur_ms"`
	Count    int     `json:"count"`
}

type wireScan struct {
	Checker      string       `json:"checker"`
	Error        string       `json:"error"`
	Reports      []wireReport `json:"reports"`
	FuncsScanned int          `json:"funcs_scanned"`
	Truncated    bool         `json:"truncated"`
	Cache        wireCache    `json:"cache"`
	Generation   int64        `json:"generation"`
	ElapsedMS    float64      `json:"elapsed_ms"`
	Timing       []wireSpan   `json:"timing"`
}

type wireBatch struct {
	Results       []*wireScan `json:"results"`
	CheckerErrors int         `json:"checker_errors"`
	ElapsedMS     float64     `json:"elapsed_ms"`
	Timing        []wireSpan  `json:"timing"`
}

type wireChangeset struct {
	Status       string `json:"status"`
	Generation   int64  `json:"generation"`
	ChangedFuncs int    `json:"changed_funcs"`
}

// sig is the digest of one answer's reports: one hash over the reports
// in each toggled file (0 when it has none) and one over all the rest,
// in order. The
// checker name is left out (it differs per revision) and compared on
// its own.
type sig struct {
	rest  uint64
	files [toggled]uint64
}

// refDigest is a pool checker's reference answer: the untouched files
// answer identically in both corpus states; each toggled file has an
// answer per state (index 0 = variant A, 1 = variant B).
type refDigest struct {
	rest  uint64
	files [toggled][2]uint64
}

// digester hashes reports into sigs; toggledIdx maps the toggled paths
// to their slot.
type digester struct {
	toggledIdx map[string]int
}

func newDigester(in *inputs) *digester {
	d := &digester{toggledIdx: map[string]int{}}
	for k, t := range in.toggles {
		d.toggledIdx[t.Path] = k
	}
	return d
}

// sum digests reports, all of which must carry checker name want. seen,
// when non-nil, collects the (file, func) sites reported.
func (d *digester) sum(reports []wireReport, want string, seen map[[2]string]bool) (sig, error) {
	s := sig{rest: fnvOffset}
	for i := range reports {
		r := &reports[i]
		if r.Checker != want {
			return s, fmt.Errorf("report from checker %q in an answer for %q", r.Checker, want)
		}
		h := &s.rest
		if k, ok := d.toggledIdx[r.File]; ok {
			h = &s.files[k]
			if *h == 0 {
				*h = fnvOffset
			}
		}
		for _, f := range [...]string{r.BugType, r.Message, r.File, r.Func, r.Region} {
			*h = fnvMix(fnvMix(*h, f), "\x00")
		}
		*h = fnvMix(*h, strconv.Itoa(r.Line))
		*h = fnvMix(*h, ":")
		*h = fnvMix(*h, strconv.Itoa(r.Col))
		if seen != nil {
			seen[[2]string{r.File, r.Func}] = true
		}
	}
	return s, nil
}

// FNV-1a, inlined so digesting an answer allocates nothing.
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

func fnvMix(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h
}

// buildReference computes the reference answers with scan.Codebase.Run:
// the uncached file-level scheduler on the in-process corpus, a path
// that shares nothing with Incremental, the store tiers, internal/api or
// the shard merge. All pool checkers run in one pass per corpus state.
func (in *inputs) buildReference() error {
	cks, err := in.compilePool()
	if err != nil {
		return err
	}
	d := newDigester(in)
	in.ref = map[string]*refDigest{}
	in.refSites = map[[2]string]bool{}
	for state := 0; state < 2; state++ {
		if state == 1 {
			if _, err := in.cb.ApplyChangeset(in.toggleChanges(true)); err != nil {
				return fmt.Errorf("reference: variant B: %w", err)
			}
			// The mixed patch/replace changeset must land on the same
			// sources the variant-B files were derived from.
			for _, t := range in.toggles {
				f := in.cb.Files()[in.cb.FileIndex(t.Path)]
				if minic.FormatFile(f) != t.FileB {
					return fmt.Errorf("reference: %s differs between the patch and replace routes", t.Path)
				}
			}
		}
		res := in.cb.Run(cks, scan.Options{})
		if len(res.RuntimeErrs) > 0 || res.Truncated {
			return fmt.Errorf("reference: scan had %d runtime errors (truncated=%v)", len(res.RuntimeErrs), res.Truncated)
		}
		by := map[string][]wireReport{}
		for _, r := range res.Reports {
			by[r.Checker] = append(by[r.Checker], wireReport{
				Checker: r.Checker, BugType: r.BugType, Message: r.Message,
				File: r.File, Func: r.Func, Line: r.Pos.Line, Col: r.Pos.Col, Region: r.RegionAt,
			})
		}
		for _, p := range in.pool {
			name := "knighter." + p.Base
			s, err := d.sum(by[name], name, in.refSites)
			if err != nil {
				return fmt.Errorf("reference: %w", err)
			}
			ref := in.ref[name]
			if ref == nil {
				ref = &refDigest{rest: s.rest}
				in.ref[name] = ref
			}
			if ref.rest != s.rest {
				return fmt.Errorf("reference: %s answers differently outside the toggled files", name)
			}
			for k := range s.files {
				ref.files[k][state] = s.files[k]
			}
		}
	}
	return nil
}

// recall is the share of the corpus's seeded bugs among the reported
// (file, function) sites.
func (in *inputs) recall(sites map[[2]string]bool) float64 {
	if len(in.corpus.Bugs) == 0 {
		return 0
	}
	found := 0
	for _, b := range in.corpus.Bugs {
		if sites[[2]string{b.File, b.Func}] {
			found++
		}
	}
	return float64(found) / float64(len(in.corpus.Bugs))
}

// stateOf maps a daemon generation to the corpus state it must hold:
// generation 1 is the canonicalized corpus (A) and every commit flips.
func stateOf(gen int64) int { return int((gen + 1) % 2) }

// check compares an answer's digest with the reference for pool checker
// base. strict demands the exact state of generation gen; otherwise each
// toggled file may be in either state (a fleet read can merge partials
// from shards one commit apart).
func (in *inputs) check(base string, s sig, gen int64, strict bool) error {
	ref := in.ref["knighter."+base]
	if ref == nil {
		return fmt.Errorf("no reference for %s", base)
	}
	if gen < 1 {
		return fmt.Errorf("%s answered at generation %d, before canonicalization", base, gen)
	}
	if s.rest != ref.rest {
		return fmt.Errorf("%s: reports outside the toggled files differ from the reference", base)
	}
	st := stateOf(gen)
	for k, h := range s.files {
		if h == ref.files[k][st] || (!strict && h == ref.files[k][1-st]) {
			continue
		}
		return fmt.Errorf("%s: reports in %s differ from the reference at generation %d", base, in.toggles[k].Path, gen)
	}
	return nil
}
