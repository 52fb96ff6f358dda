package shard

import (
	"encoding/binary"
	"errors"

	"knighter/internal/checker"
	"knighter/internal/engine"
	"knighter/internal/scan"
	"knighter/internal/store"
)

// The sub-batch reply: what a shard owner answers on SubBatchPath, one
// partial per checker of the sub-batch, in the store's binary codec
// rather than JSON. Per checker it carries the counters, the generation
// and the flags as uvarints, the file cuts as uvarint pairs, and the
// partition's reports and runtime errors as one store.Encode payload.
// The coordinator decodes it strictly (DecodeSubBatch, store.DecodeInto
// for the payload) and maps each partial onto the wire response with
// api.ScanResult, the function a local partition goes through too, so a
// partition served remotely and one recomputed locally merge the same.
//
//	reply  = tag(0x01) uvarint(n) entry*n
//	entry  = uvarint(files) uvarint(funcs) uvarint(hits) uvarint(misses)
//	         uvarint(generation) uvarint(flags) uvarint(cuts) cut*cuts
//	         uvarint(len(payload)) payload
//	cut    = uvarint(reports) uvarint(runtime errors)
//	flags  = 1 truncated | 2 canceled
//
// The encoding is canonical: DecodeSubBatch rejects any reply
// EncodeSubBatch would not write, down to non-minimal uvarints and file
// cuts that do not add up to the payload's reports and runtime errors.
const subBatchCodec = 0x01

// SubBatchContentType is the Content-Type of a sub-batch reply.
const SubBatchContentType = "application/x-knighter-sub-batch"

const (
	flagTruncated = 1 << iota
	flagCanceled
	flagsAll = flagTruncated | flagCanceled
)

var errSubBatch = errors.New("shard: corrupt sub-batch reply")

// EncodeSubBatch encodes one partial per result. Without includeTrace
// the reports travel without their path traces, which the coordinator
// would drop anyway.
func EncodeSubBatch(results []*scan.Result, includeTrace bool) []byte {
	buf := binary.AppendUvarint([]byte{subBatchCodec}, uint64(len(results)))
	for _, res := range results {
		var flags uint64
		if res.Truncated {
			flags |= flagTruncated
		}
		if res.Canceled {
			flags |= flagCanceled
		}
		for _, v := range [...]uint64{uint64(res.FilesScanned), uint64(res.FuncsScanned),
			uint64(res.CacheHits), uint64(res.CacheMisses), uint64(res.Generation), flags, uint64(len(res.FileCuts))} {
			buf = binary.AppendUvarint(buf, v)
		}
		for _, c := range res.FileCuts {
			buf = binary.AppendUvarint(binary.AppendUvarint(buf, uint64(c.Reports)), uint64(c.RuntimeErrs))
		}
		reports := res.Reports
		if !includeTrace {
			reports = withoutTraces(reports)
		}
		payload := store.Encode(&engine.Result{Reports: reports, RuntimeErrs: res.RuntimeErrs})
		buf = append(binary.AppendUvarint(buf, uint64(len(payload))), payload...)
	}
	return buf
}

// withoutTraces returns reps with every trace dropped, reps itself when
// none has a step.
func withoutTraces(reps []*checker.Report) []*checker.Report {
	i := 0
	for i < len(reps) && len(reps[i].Trace) == 0 {
		i++
	}
	if i == len(reps) {
		return reps
	}
	out := make([]*checker.Report, len(reps))
	bare := make([]checker.Report, len(reps))
	for j, rep := range reps {
		bare[j] = *rep
		bare[j].Trace = nil
		out[j] = &bare[j]
	}
	return out
}

// DecodeSubBatch parses a sub-batch reply into one result per entry,
// each carrying what EncodeSubBatch encodes (not QuietResults or
// Elapsed), or fails on any reply EncodeSubBatch would not write.
func DecodeSubBatch(data []byte) ([]*scan.Result, error) {
	if len(data) == 0 || data[0] != subBatchCodec {
		return nil, errSubBatch
	}
	d := &wireReader{buf: data[1:]}
	// An entry is at least 11 bytes: seven uvarints, a payload length
	// and the 3-byte empty payload.
	n := d.count(11)
	out := make([]*scan.Result, 0, n)
	for i := 0; i < n && d.err == nil; i++ {
		res := &scan.Result{
			FilesScanned: d.int(),
			FuncsScanned: d.int(),
			CacheHits:    d.int(),
			CacheMisses:  d.int(),
			Generation:   int64(d.int()),
		}
		flags := d.int()
		if flags&^flagsAll != 0 {
			return nil, errSubBatch
		}
		res.Truncated, res.Canceled = flags&flagTruncated != 0, flags&flagCanceled != 0
		var sumReports, sumErrs int
		if cuts := d.count(2); cuts > 0 {
			res.FileCuts = make([]scan.FileCut, cuts)
			for j := range res.FileCuts {
				c := scan.FileCut{Reports: d.int(), RuntimeErrs: d.int()}
				sumReports, sumErrs = sumReports+c.Reports, sumErrs+c.RuntimeErrs
				res.FileCuts[j] = c
			}
		}
		var r engine.Result
		if d.err != nil || store.DecodeInto(&r, d.bytes()) != nil {
			return nil, errSubBatch
		}
		if sumReports != len(r.Reports) || sumErrs != len(r.RuntimeErrs) {
			return nil, errSubBatch
		}
		res.Reports, res.RuntimeErrs = r.Reports, r.RuntimeErrs
		out = append(out, res)
	}
	if d.err != nil || len(d.buf) != 0 {
		return nil, errSubBatch
	}
	return out, nil
}

// wireReader is a cursor over a sub-batch reply; the first failed read
// latches err and every later read returns zero values.
type wireReader struct {
	buf []byte
	err error
}

// int reads a minimal uvarint that fits an int64.
func (d *wireReader) int() int {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf)
	if n <= 0 || (n > 1 && d.buf[n-1] == 0) || int64(v) < 0 || int64(int(v)) != int64(v) {
		d.err = errSubBatch
		return 0
	}
	d.buf = d.buf[n:]
	return int(v)
}

// count reads a count of elements that each take at least min bytes,
// failing when the rest of the reply cannot hold that many.
func (d *wireReader) count(min int) int {
	n := d.int()
	if n > len(d.buf)/min {
		d.err = errSubBatch
		return 0
	}
	return n
}

// bytes reads a length-prefixed frame.
func (d *wireReader) bytes() []byte {
	n := d.count(1)
	if d.err != nil {
		return nil
	}
	b := d.buf[:n]
	d.buf = d.buf[n:]
	return b
}
