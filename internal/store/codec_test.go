package store

import (
	"reflect"
	"testing"

	"knighter/internal/checker"
	"knighter/internal/engine"
	"knighter/internal/minic"
)

// codecCases are results whose round trip must be exact, nil-vs-empty
// slices included: the engine emits empty traces, and a decoded result
// must be reflect.DeepEqual to the computed one.
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
		"flags-and-counters": {
			Paths: 1 << 20, Steps: 987654321,
			Truncated: true, TimedOut: true, Canceled: true,
		},
		"typical": result("use after free of 'p'"),
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

func TestResultCodecRoundTrip(t *testing.T) {
	for name, want := range codecCases() {
		t.Run(name, func(t *testing.T) {
			buf := Encode(want)
			if len(buf) == 0 || buf[0] != resultCodec {
				t.Fatalf("bad format tag: %v", buf[:1])
			}
			got, err := decodeResult(buf)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
			}
		})
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
		"trailing byte":      append(append([]byte{}, empty...), 0),
		"non-minimal varint": append([]byte{resultCodec, 0x80, 0x00}, empty[2:]...),
		"unknown flag bit":   {resultCodec, 0, 0, 8, 0, 0},
	} {
		if _, err := decodeResult(bad); err == nil {
			t.Errorf("%s: decode of % x succeeded", name, bad)
		}
	}
}
