package store

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"

	"knighter/internal/checker"
	"knighter/internal/engine"
	"knighter/internal/minic"
)

// Binary payload codec: the form in which every tier holds and moves
// results. The memory tier keeps these bytes, the segment disk tier
// writes them and kcached's entry routes carry them, so a tier only
// stores and forwards payloads; the scan scheduler (internal/scan)
// encodes each result it computes once (Encode) and decodes a hit once
// (DecodeInto). Bytes that enter a process from outside it — a kcached
// reply, a kcached put body, a segment read — are checked with the same
// strict decode before a tier hands them on.
//
// encoding/json's reflective decode costs ~1.3µs even for an empty
// result, and a decoded result is an object graph the garbage collector
// must mark. Results are therefore stored in a small hand-rolled binary
// format: length-prefixed strings and uvarints over the flat
// Report/TraceStep/RuntimeErr shapes. A record holds exactly what a
// reply can show of a result — its reports and runtime errors — so a
// result with neither is 3 bytes, one shared payload. Encodings are
// canonical: DecodeInto rejects any payload Encode would not write.
//
// The first byte is a format tag. v3 (resultCodec) writes the report
// and runtime-error counts as n, a decoded empty list being nil, and
// trace lengths as n+1, 0 meaning nil, so nil and empty traces (the
// engine emits empty ones) survive a round trip. A record under any
// other tag is a miss: entries are content-addressed and cache-grade, so
// an old one is recomputed once. kcached's entry routes frame the same
// records with the same length-prefixed strings (appendKey,
// appendFrame), so no tier and no wire speaks another result encoding.
const resultCodec = 0x03

// emptyPayload is what Encode returns for every result with no reports
// and no runtime errors. Shared and read-only, like every payload.
var emptyPayload = []byte{resultCodec, 0, 0}

// Encode serializes r into a slice of exactly the encoded length: the
// payload every tier stores for r. A nil or canceled r encodes to nil,
// which no tier stores: such a result depends on one caller's lifetime,
// not on the key's inputs.
func Encode(r *engine.Result) []byte {
	if r == nil || r.Canceled {
		return nil
	}
	if len(r.Reports) == 0 && len(r.RuntimeErrs) == 0 {
		return emptyPayload
	}
	var scratch [256]byte
	buf := append(scratch[:0], resultCodec)
	buf = binary.AppendUvarint(buf, uint64(len(r.Reports)))
	for _, rep := range r.Reports {
		buf = appendString(buf, rep.Checker)
		buf = appendString(buf, rep.BugType)
		buf = appendString(buf, rep.Message)
		buf = appendString(buf, rep.File)
		buf = appendString(buf, rep.Func)
		buf = appendPos(buf, rep.Pos)
		buf = appendString(buf, rep.RegionAt)
		buf = appendCount(buf, len(rep.Trace), rep.Trace == nil)
		for _, step := range rep.Trace {
			buf = appendPos(buf, step.Pos)
			buf = appendString(buf, step.Note)
		}
	}
	buf = binary.AppendUvarint(buf, uint64(len(r.RuntimeErrs)))
	for _, re := range r.RuntimeErrs {
		buf = appendString(buf, re.Func)
		buf = appendString(buf, re.Checker)
		buf = appendString(buf, re.Panic)
	}
	return bytes.Clone(buf)
}

var errCodec = errors.New("store: corrupt binary result payload")

// getOne is a tier's one-key Get: the one-key case of its GetMany,
// decoded. A payload that does not decode is a miss.
func getOne(ctx context.Context, s Store, k Key) (*engine.Result, bool) {
	var out [1][]byte
	s.GetMany(ctx, []Key{k}, []Digest{k.Digest()}, out[:])
	r, err := decodeResult(out[0])
	return r, err == nil
}

// decodeResult parses a payload produced by Encode into a new result,
// or returns nil and an error (nil data, a miss, is one).
func decodeResult(data []byte) (*engine.Result, error) {
	r := new(engine.Result)
	if err := DecodeInto(r, data); err != nil {
		return nil, err
	}
	return r, nil
}

// DecodeInto parses a payload produced by Encode into *r, overwriting
// every field, so r may be a reused scratch result. It is the one strict
// parser: every check of a payload's bytes is a DecodeInto.
// On error *r is unspecified. The argument of a length or a count is the
// fewest bytes one element encodes to (a report: five strings, a
// position, RegionAt and a trace count).
func DecodeInto(r *engine.Result, data []byte) error {
	if len(data) == 0 || data[0] != resultCodec {
		return errCodec
	}
	d := &codecReader{buf: data[1:]}
	*r = engine.Result{}
	if n := d.length(10); n > 0 {
		r.Reports = make([]*checker.Report, 0, n)
		for i := 0; i < n && d.err == nil; i++ {
			rep := &checker.Report{
				Checker: d.string(),
				BugType: d.string(),
				Message: d.string(),
				File:    d.string(),
				Func:    d.string(),
				Pos:     d.pos(),
			}
			rep.RegionAt = d.string()
			if steps, ok := d.count(4); ok {
				rep.Trace = make([]checker.TraceStep, 0, steps)
				for j := 0; j < steps && d.err == nil; j++ {
					rep.Trace = append(rep.Trace, checker.TraceStep{Pos: d.pos(), Note: d.string()})
				}
			}
			r.Reports = append(r.Reports, rep)
		}
	}
	if n := d.length(3); n > 0 {
		r.RuntimeErrs = make([]engine.RuntimeErr, 0, n)
		for i := 0; i < n && d.err == nil; i++ {
			r.RuntimeErrs = append(r.RuntimeErrs, engine.RuntimeErr{
				Func:    d.string(),
				Checker: d.string(),
				Panic:   d.string(),
			})
		}
	}
	if d.err != nil || len(d.buf) != 0 {
		return errCodec
	}
	return nil
}

// appendCount writes a slice length as n+1, or 0 for a nil slice.
func appendCount(buf []byte, n int, isNil bool) []byte {
	if isNil {
		n = -1
	}
	return binary.AppendUvarint(buf, uint64(n+1))
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// appendFrame writes b as appendString writes a string.
func appendFrame(buf, b []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(b)))
	return append(buf, b...)
}

// appendKey writes a key's components, the form in which kcached's
// entry routes address an entry: the server derives the content address
// from them.
func appendKey(buf []byte, k Key) []byte {
	return appendString(appendString(appendString(buf, k.FuncHash), k.CheckerFP), k.EngineFP)
}

func appendPos(buf []byte, p minic.Pos) []byte {
	buf = appendString(buf, p.File)
	buf = binary.AppendUvarint(buf, uint64(p.Line))
	return binary.AppendUvarint(buf, uint64(p.Col))
}

// codecReader is a cursor over a binary payload; the first failed read
// latches err and every later read returns zero values, so decode code
// stays linear and checks the error once at the end.
type codecReader struct {
	buf []byte
	err error
}

func (d *codecReader) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf)
	if n <= 0 || (n > 1 && d.buf[n-1] == 0) { // malformed, or not minimal
		d.err = errCodec
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

// length reads a list's length. A length the rest of the input cannot
// hold at minSize bytes per element fails before anything is allocated.
func (d *codecReader) length(minSize int) int {
	n := d.uvarint()
	if n > uint64(len(d.buf)/minSize) {
		d.err = errCodec
		return 0
	}
	return int(n)
}

// count reads a length written by appendCount; ok is false for a nil
// slice. A length the rest of the input cannot hold at minSize bytes per
// element fails before anything is allocated.
func (d *codecReader) count(minSize int) (n int, ok bool) {
	c := d.uvarint()
	if c > 0 && c-1 > uint64(len(d.buf)/minSize) {
		d.err = errCodec
	}
	return int(c - 1), c > 0 && d.err == nil
}

func (d *codecReader) string() string { return string(d.frame()) }

// frame reads one length-prefixed byte string without copying it.
func (d *codecReader) frame() []byte {
	n := d.uvarint()
	if d.err != nil {
		return nil
	}
	if uint64(len(d.buf)) < n {
		d.err = errCodec
		return nil
	}
	b := d.buf[:n:n]
	d.buf = d.buf[n:]
	return b
}

func (d *codecReader) pos() minic.Pos {
	return minic.Pos{File: d.string(), Line: int(d.uvarint()), Col: int(d.uvarint())}
}
