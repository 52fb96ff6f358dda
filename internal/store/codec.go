package store

import (
	"bytes"
	"encoding/binary"
	"errors"

	"knighter/internal/checker"
	"knighter/internal/engine"
	"knighter/internal/minic"
)

// Binary payload codec: the form in which the memory tier holds results
// and the segment disk tier writes them.
//
// encoding/json's reflective decode costs ~1.3µs even for an empty
// result, and a decoded result is an object graph the garbage collector
// must mark. Results are therefore stored in a small hand-rolled binary
// format: length-prefixed strings and uvarints over the flat
// Result/Report/TraceStep/RuntimeErr shapes — about 9 bytes for a
// report-free result. Encodings are canonical: decodeResult rejects any
// payload encodeResult would not write.
//
// The first byte is a format tag. v2 (resultCodec) writes slice lengths
// as n+1, 0 meaning nil, so nil and empty slices (the engine emits empty
// traces) survive a round trip; v1 collapsed both to nil. A record under
// any other tag is a miss: entries are content-addressed and cache-grade,
// so an old one is recomputed once. kcached's entry routes carry the
// same records, framed with the same length-prefixed strings
// (appendKey, appendFrame), so no tier and no wire speaks another
// result encoding.
const resultCodec = 0x02

// Encode returns the bytes the memory and disk tiers store for r.
func Encode(r *engine.Result) []byte { return encodeResult(r) }

// encodeResult serializes r into a slice of exactly the encoded length.
func encodeResult(r *engine.Result) []byte {
	var scratch [256]byte
	buf := append(scratch[:0], resultCodec)
	buf = binary.AppendUvarint(buf, uint64(r.Paths))
	buf = binary.AppendUvarint(buf, uint64(r.Steps))
	var flags byte
	if r.Truncated {
		flags |= 1
	}
	if r.TimedOut {
		flags |= 2
	}
	if r.Canceled {
		flags |= 4
	}
	buf = append(buf, flags)
	buf = appendCount(buf, len(r.Reports), r.Reports == nil)
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
	buf = appendCount(buf, len(r.RuntimeErrs), r.RuntimeErrs == nil)
	for _, re := range r.RuntimeErrs {
		buf = appendString(buf, re.Func)
		buf = appendString(buf, re.Checker)
		buf = appendString(buf, re.Panic)
	}
	return bytes.Clone(buf)
}

var errCodec = errors.New("store: corrupt binary result payload")

// decodeResult parses a payload produced by encodeResult into a new
// result.
func decodeResult(data []byte) (*engine.Result, error) {
	r := new(engine.Result)
	if err := decodeInto(r, data); err != nil {
		return nil, err
	}
	return r, nil
}

// decodeInto parses a payload produced by encodeResult into *r,
// overwriting every field, so r may be a reused or zeroed slab element.
// On error *r is unspecified. A count's argument is the fewest bytes one
// element encodes to (a report: five strings, a position, RegionAt and
// a trace count).
func decodeInto(r *engine.Result, data []byte) error {
	if len(data) == 0 || data[0] != resultCodec {
		return errCodec
	}
	d := &codecReader{buf: data[1:]}
	*r = engine.Result{Paths: int(d.uvarint()), Steps: int(d.uvarint())}
	flags := d.uvarint() // a flag byte <= 7 is also its own uvarint
	if flags > 7 {
		d.err = errCodec
	}
	r.Truncated, r.TimedOut, r.Canceled = flags&1 != 0, flags&2 != 0, flags&4 != 0
	if n, ok := d.count(10); ok {
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
	if n, ok := d.count(3); ok {
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

// key reads what appendKey wrote.
func (d *codecReader) key() Key {
	return Key{FuncHash: d.string(), CheckerFP: d.string(), EngineFP: d.string()}
}

func (d *codecReader) pos() minic.Pos {
	return minic.Pos{File: d.string(), Line: int(d.uvarint()), Col: int(d.uvarint())}
}
