package store

import (
	"reflect"
	"testing"

	"knighter/internal/checker"
	"knighter/internal/engine"
	"knighter/internal/minic"
)

// codecCases are results whose reports and runtime errors must round
// trip exactly, nil-vs-empty traces included: the engine emits empty
// traces. The rest of a result is not stored (shown).
func codecCases() map[string]*engine.Result {
	return map[string]*engine.Result{
		"empty": {},
		"empty-slices": {
			Reports:     []*checker.Report{},
			RuntimeErrs: []engine.RuntimeErr{},
		},
		"empty-trace": {
			Reports: []*checker.Report{
				{Checker: "knighter.npd", Message: "deref", Trace: []checker.TraceStep{}},
				{Checker: "knighter.npd", Message: "nil trace"},
			},
		},
		"flags-and-counters": {Paths: 1 << 20, Steps: 987654321, Truncated: true},
		"typical":            result("use after free of 'p'"),
		"full": {
			Reports: []*checker.Report{
				{
					Checker: "knighter.uaf", BugType: "UseAfterFree",
					Message: "use of 'buf' after kfree",
					File:    "drivers/net/x.c", Func: "x_probe",
					Pos:      minic.Pos{File: "drivers/net/x.c", Line: 120, Col: 9},
					RegionAt: "x_probe:118",
					Trace: []checker.TraceStep{
						{Pos: minic.Pos{File: "drivers/net/x.c", Line: 117, Col: 3}, Note: "kfree(buf)"},
						{Pos: minic.Pos{File: "drivers/net/x.c", Line: 120, Col: 9}, Note: "use of freed 'buf'"},
					},
				},
				{
					// Zero-ish report: empty strings and no trace must survive.
					Checker: "", BugType: "", Message: "",
				},
			},
			Paths: 3, Steps: 41, Truncated: true,
			RuntimeErrs: []engine.RuntimeErr{
				{Func: "f1", Checker: "knighter.np", Panic: "index out of range"},
				{Func: "", Checker: "", Panic: ""},
			},
		},
		"unicode": {
			Reports: []*checker.Report{{Message: "déréférencement de NULL — 例"}},
		},
	}
}

// shown is what a decoded r must equal: its reports and runtime errors,
// an empty list of either being nil.
func shown(r *engine.Result) *engine.Result {
	out := &engine.Result{Reports: r.Reports, RuntimeErrs: r.RuntimeErrs}
	if len(out.Reports) == 0 {
		out.Reports = nil
	}
	if len(out.RuntimeErrs) == 0 {
		out.RuntimeErrs = nil
	}
	return out
}

func TestResultCodecRoundTrip(t *testing.T) {
	for name, r := range codecCases() {
		t.Run(name, func(t *testing.T) {
			buf := Encode(r)
			if len(buf) == 0 || buf[0] != resultCodec {
				t.Fatalf("bad format tag: %v", buf[:min(len(buf), 1)])
			}
			got, err := decodeResult(buf)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if want := shown(r); !reflect.DeepEqual(got, want) {
				t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}

// TestResultCodecStoresWhatAReplyShows: every result with no reports
// and no runtime errors encodes to one shared 3-byte payload, whatever
// its counters; a canceled result encodes to nil, which no tier stores.
func TestResultCodecStoresWhatAReplyShows(t *testing.T) {
	empty := Encode(&engine.Result{})
	if len(empty) != 3 {
		t.Fatalf("the empty payload is % x, want 3 bytes", empty)
	}
	for name, r := range map[string]*engine.Result{
		"counters":     {Paths: 3, Steps: 7, Truncated: true},
		"empty-slices": {Reports: []*checker.Report{}, RuntimeErrs: []engine.RuntimeErr{}},
	} {
		if got := Encode(r); len(got) != len(empty) || &got[0] != &empty[0] {
			t.Errorf("%s: encoded to % x, not the shared empty payload", name, got)
		}
	}
	for name, r := range map[string]*engine.Result{
		"canceled":              {Truncated: true, Canceled: true},
		"canceled, untruncated": {Canceled: true},
		"canceled with report":  {Reports: result("late").Reports, Canceled: true},
	} {
		if got := Encode(r); got != nil {
			t.Errorf("%s: encoded to % x, want nil", name, got)
		}
	}
}

// Truncations and bit flips must fail decode, not panic or fabricate a
// result — a corrupt payload degrades to a cache miss.
func TestResultCodecRejectsCorruptPayloads(t *testing.T) {
	buf := Encode(result("msg"))
	for cut := 1; cut < len(buf); cut += 3 {
		if _, err := decodeResult(buf[:cut]); err == nil {
			// A prefix can still parse if the cut lands exactly after a
			// complete value but before a count... it cannot here, because
			// the encoding ends with RuntimeErrs whose count is mandatory.
			t.Fatalf("decode of %d-byte truncation succeeded", cut)
		}
	}
	// A huge length prefix must not cause a giant allocation or a panic.
	evil := append([]byte{resultCodec}, 0xff, 0xff, 0xff, 0xff, 0x0f)
	if _, err := decodeResult(evil); err == nil {
		t.Fatal("decode of absurd length prefix succeeded")
	}
	// Payloads Encode never writes are rejected, so whatever
	// decodes re-encodes to the same bytes.
	empty := Encode(&engine.Result{})
	for name, bad := range map[string][]byte{
		"v1 tag":             append([]byte{0x01}, empty[1:]...),
		"v2 record":          {0x02, 0, 0, 0, 0, 0}, // an empty result: counters, flags, counts
		"trailing byte":      append(append([]byte{}, empty...), 0),
		"non-minimal varint": append([]byte{resultCodec, 0x80, 0x00}, empty[2:]...),
	} {
		if _, err := decodeResult(bad); err == nil {
			t.Errorf("%s: decode of % x succeeded", name, bad)
		}
	}
}
