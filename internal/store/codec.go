package store

import (
	"encoding/binary"
	"errors"

	"knighter/internal/checker"
	"knighter/internal/engine"
	"knighter/internal/minic"
)

// Binary payload codec for the segment disk tier.
//
// A warm segment Get costs one index probe and one pread — a few
// hundred nanoseconds — which left encoding/json's reflective decode
// (~1.3µs even for an empty result) as the dominant cost of the disk
// hit path. The segment tier therefore stores results in a small
// hand-rolled binary format: length-prefixed strings and uvarints over
// the flat Result/Report/TraceStep/RuntimeErr shapes, no reflection, no
// field-name matching.
//
// The first byte is a format tag, resultCodecV1 (0x01); a record
// without it is unreadable and therefore a miss. The wire protocol
// (remote tier / kcached) stays JSON: this codec is a private storage
// format, not an interchange one.
const resultCodecV1 = 0x01

// encodeResult serializes r in the binary format.
func encodeResult(r *engine.Result) []byte {
	// Pre-size roughly: fixed header plus strings; the buffer grows as
	// needed, this just avoids most re-allocations.
	buf := make([]byte, 0, 64+96*len(r.Reports)+48*len(r.RuntimeErrs))
	buf = append(buf, resultCodecV1)
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
	buf = binary.AppendUvarint(buf, uint64(len(r.Reports)))
	for _, rep := range r.Reports {
		buf = appendString(buf, rep.Checker)
		buf = appendString(buf, rep.BugType)
		buf = appendString(buf, rep.Message)
		buf = appendString(buf, rep.File)
		buf = appendString(buf, rep.Func)
		buf = appendPos(buf, rep.Pos)
		buf = appendString(buf, rep.RegionAt)
		buf = binary.AppendUvarint(buf, uint64(len(rep.Trace)))
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
	return buf
}

var errCodec = errors.New("store: corrupt binary result payload")

// decodeResult parses a binary payload produced by encodeResult. The
// caller has already checked the format tag.
func decodeResult(data []byte) (*engine.Result, error) {
	d := &codecReader{buf: data[1:]}
	r := &engine.Result{}
	r.Paths = int(d.uvarint())
	r.Steps = int(d.uvarint())
	flags := d.byte()
	r.Truncated = flags&1 != 0
	r.TimedOut = flags&2 != 0
	r.Canceled = flags&4 != 0
	if n := d.uvarint(); n > 0 {
		if n > uint64(len(data)) { // length sanity: every report costs >= 1 byte
			return nil, errCodec
		}
		r.Reports = make([]*checker.Report, 0, n)
		for i := uint64(0); i < n && d.err == nil; i++ {
			rep := &checker.Report{
				Checker: d.string(),
				BugType: d.string(),
				Message: d.string(),
				File:    d.string(),
				Func:    d.string(),
				Pos:     d.pos(),
			}
			rep.RegionAt = d.string()
			if steps := d.uvarint(); steps > 0 {
				if steps > uint64(len(data)) {
					return nil, errCodec
				}
				rep.Trace = make([]checker.TraceStep, 0, steps)
				for j := uint64(0); j < steps && d.err == nil; j++ {
					rep.Trace = append(rep.Trace, checker.TraceStep{Pos: d.pos(), Note: d.string()})
				}
			}
			r.Reports = append(r.Reports, rep)
		}
	}
	if n := d.uvarint(); n > 0 {
		if n > uint64(len(data)) {
			return nil, errCodec
		}
		r.RuntimeErrs = make([]engine.RuntimeErr, 0, n)
		for i := uint64(0); i < n && d.err == nil; i++ {
			r.RuntimeErrs = append(r.RuntimeErrs, engine.RuntimeErr{
				Func:    d.string(),
				Checker: d.string(),
				Panic:   d.string(),
			})
		}
	}
	if d.err != nil {
		return nil, d.err
	}
	return r, nil
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
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
	if n <= 0 {
		d.err = errCodec
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

func (d *codecReader) byte() byte {
	if d.err != nil {
		return 0
	}
	if len(d.buf) < 1 {
		d.err = errCodec
		return 0
	}
	b := d.buf[0]
	d.buf = d.buf[1:]
	return b
}

func (d *codecReader) string() string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if uint64(len(d.buf)) < n {
		d.err = errCodec
		return ""
	}
	s := string(d.buf[:n])
	d.buf = d.buf[n:]
	return s
}

func (d *codecReader) pos() minic.Pos {
	return minic.Pos{File: d.string(), Line: int(d.uvarint()), Col: int(d.uvarint())}
}
