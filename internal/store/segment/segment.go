// Package segment implements the disk cache's storage engine: an
// append-only log of checksummed records packed into a few large segment
// files, with an in-memory index mapping each entry id to its
// (segment, offset, length). A warm GET is one index probe and one
// pread, a PUT is one buffered append, and deletion is an index removal
// whose disk space a background compaction reclaims later.
//
// The engine is deliberately generic: it maps string ids to byte
// payloads, with a secondary "func token" index so a corpus mutation can
// drop every entry of one function in O(entries-of-that-function). The
// store package's SegmentDisk adapter layers engine.Result serialization
// and store.Key addressing on top.
//
// Durability is cache-grade, by design: appends land in the OS page
// cache immediately (so every read in this process sees them) and a
// background flusher fsyncs the active segment at a bounded interval —
// a crash can lose at most the last flush window of puts, never corrupt
// the store. Every record carries a CRC; recovery is one sequential scan
// of the segments that rebuilds the index, truncates a torn tail, and
// skips anything that fails its checksum.
//
// Accounting is exact by construction: Entries and Bytes are derived
// from the index itself, and every index mutation happens under one
// lock — there are no delta-maintained counters that can drift when
// operations race. Expired and Evicted count exactly what compaction
// dropped from the index; Invalidated counts exactly what invalidation
// removed.
package segment

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

const (
	// recMagic starts every record; a framing scan that lands on
	// anything else has hit a torn tail or corruption.
	recMagic = 0x4b534731 // "KSG1"
	// headerSize is the fixed record prefix: magic, body length, CRC.
	headerSize = 12
	// kindPut and kindTombstone are the two record types.
	kindPut       = 1
	kindTombstone = 2
	// maxRecordBytes bounds one record so a corrupt length field cannot
	// make recovery allocate an absurd buffer. Matches the wire bound the
	// cache protocol enforces. PutAt rejects anything larger: a record
	// that recovery would refuse to replay must never be written, or a
	// restart would treat it as corruption and truncate everything after
	// it.
	maxRecordBytes = 64 << 20
)

// ErrRecordTooLarge rejects a Put whose encoded record would exceed
// maxRecordBytes and therefore be unrecoverable after a restart.
var ErrRecordTooLarge = fmt.Errorf("segment: record exceeds %d bytes", maxRecordBytes)

// castagnoli is the CRC polynomial used for record checksums (hardware
// accelerated on every platform we run on).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Options tunes an engine instance; zero values select the defaults.
type Options struct {
	// SegmentMaxBytes rotates the active segment past this size
	// (default 64 MiB).
	SegmentMaxBytes int64
	// MaxBytes is the live-payload byte budget (0 = unbounded): past it,
	// compaction evicts oldest-first until the live set fits.
	MaxBytes int64
	// SyncInterval is how often the background flusher fsyncs a dirty
	// active segment (default 100ms). Negative disables the flusher —
	// the caller syncs explicitly (tests, or callers that batch their
	// own barriers).
	SyncInterval time.Duration
	// CompactDeadFraction is the dead-byte fraction past which a sealed
	// segment is rewritten during compaction (default 0.5).
	CompactDeadFraction float64
}

func (o Options) withDefaults() Options {
	if o.SegmentMaxBytes <= 0 {
		o.SegmentMaxBytes = 64 << 20
	}
	if o.SyncInterval == 0 {
		o.SyncInterval = 100 * time.Millisecond
	}
	if o.CompactDeadFraction <= 0 {
		o.CompactDeadFraction = 0.5
	}
	return o
}

// ref locates one live entry: which segment, where the record starts,
// where its payload sits inside it, and when it was written (the TTL
// clock).
type ref struct {
	seg      uint32
	recOff   int64
	recLen   uint32
	payOff   int64
	payLen   uint32
	unixNano int64
	funcTok  string
}

// segFile is one open segment: the handle stays open for its entire
// life, so a GET is a pread with no open/close syscalls around it.
type segFile struct {
	id   uint32
	f    *os.File
	size int64
	// tombs lists the func tokens this segment holds tombstones for, so
	// compaction can forward the ones whose deletions an older surviving
	// segment's replay could otherwise undo.
	tombs []string
}

// Stats is the engine's point-in-time snapshot. Entries and Bytes come
// from the index under the lock — they cannot drift from the live set.
type Stats struct {
	Entries     int
	Bytes       int64 // live payload bytes (the cache-entry weight)
	DiskBytes   int64 // total segment-file bytes, dead records included
	Segments    int
	Puts        int64
	Invalidated int64
	Expired     int64
	Evicted     int64
	Compactions int64
}

// Store is the engine. Safe for concurrent use: reads take the read
// lock (index probe + pread), writes and compaction take the write
// lock.
type Store struct {
	dir  string
	opts Options

	mu     sync.RWMutex
	idx    map[string]*ref
	byFunc map[string]map[string]*ref
	// liveBytes is the sum of live payload lengths; maintained under mu
	// alongside every index mutation and verifiable against a full index
	// walk (the tests' VerifyIntegrity does exactly that).
	liveBytes int64
	segs      map[uint32]*segFile
	active    *segFile
	closed    bool

	// dirty flags an unsynced append; the flusher checks it each tick.
	dirty atomic.Bool
	stop  chan struct{}
	done  chan struct{}

	puts        atomic.Int64
	invalidated atomic.Int64
	expired     atomic.Int64
	evicted     atomic.Int64
	compactions atomic.Int64
}

// Open loads (or creates) the engine at dir: one sequential scan over
// the existing segments rebuilds the index, so a daemon restart starts
// warm without touching any entry it does not serve.
func Open(dir string, opts Options) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &Store{
		dir:    dir,
		opts:   opts.withDefaults(),
		idx:    map[string]*ref{},
		byFunc: map[string]map[string]*ref{},
		segs:   map[uint32]*segFile{},
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	if err := s.recover(); err != nil {
		s.closeFiles()
		return nil, err
	}
	if s.opts.SyncInterval > 0 {
		go s.flushLoop()
	} else {
		close(s.done)
	}
	return s, nil
}

// segPath names a segment file.
func (s *Store) segPath(id uint32) string {
	return filepath.Join(s.dir, fmt.Sprintf("seg-%08d.log", id))
}

// recover scans every segment in id order, replaying puts and
// tombstones into the index. A record that fails its checksum in the
// last segment marks a torn tail: the file is truncated there and
// appends resume at that offset. In earlier segments the rest of the
// segment is skipped — its framing is lost, and whatever it held is
// either superseded by later records or gone with the crash that tore
// it.
func (s *Store) recover() error {
	names, err := filepath.Glob(filepath.Join(s.dir, "seg-*.log"))
	if err != nil {
		return err
	}
	var ids []uint32
	for _, name := range names {
		var id uint32
		if _, err := fmt.Sscanf(filepath.Base(name), "seg-%08d.log", &id); err == nil {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for i, id := range ids {
		last := i == len(ids)-1
		if err := s.recoverSegment(id, last); err != nil {
			return err
		}
	}
	if s.active == nil || s.active.size >= s.opts.SegmentMaxBytes {
		next := uint32(1)
		if s.active != nil {
			next = s.active.id + 1
		}
		if err := s.openActive(next); err != nil {
			return err
		}
	}
	return nil
}

// recoverSegment replays one segment into the index.
func (s *Store) recoverSegment(id uint32, last bool) error {
	f, err := os.OpenFile(s.segPath(id), os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	sf := &segFile{id: id, f: f}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return err
	}
	size := info.Size()
	var off int64
	hdr := make([]byte, headerSize)
	var body []byte
	for off+headerSize <= size {
		if _, err := f.ReadAt(hdr, off); err != nil {
			break
		}
		magic := binary.LittleEndian.Uint32(hdr[0:4])
		bodyLen := binary.LittleEndian.Uint32(hdr[4:8])
		crc := binary.LittleEndian.Uint32(hdr[8:12])
		if magic != recMagic || bodyLen == 0 || bodyLen > maxRecordBytes ||
			off+headerSize+int64(bodyLen) > size {
			break
		}
		if int(bodyLen) > cap(body) {
			body = make([]byte, bodyLen)
		}
		body = body[:bodyLen]
		if _, err := f.ReadAt(body, off+headerSize); err != nil {
			break
		}
		if crc32.Checksum(body, castagnoli) != crc {
			break
		}
		s.replay(sf, off, body)
		off += headerSize + int64(bodyLen)
	}
	if off < size && last {
		// Torn tail on the segment we are about to append to: truncate so
		// new records start on a clean frame.
		if err := f.Truncate(off); err != nil {
			f.Close()
			return err
		}
		size = off
	}
	// A mid-chain segment keeps its (unreadable) tail as dead bytes; the
	// index never points there, and compaction will rewrite the segment's
	// live records and drop the file.
	sf.size = size
	s.segs[id] = sf
	if last {
		s.active = sf
	}
	return nil
}

// replay applies one decoded record body to the index during recovery.
func (s *Store) replay(sf *segFile, recOff int64, body []byte) {
	kind, unixNano, id, funcTok, payOff, payLen, ok := parseBody(body)
	if !ok {
		return
	}
	switch kind {
	case kindPut:
		s.indexPut(id, &ref{
			seg:      sf.id,
			recOff:   recOff,
			recLen:   headerSize + uint32(len(body)),
			payOff:   recOff + headerSize + payOff,
			payLen:   payLen,
			unixNano: unixNano,
			funcTok:  funcTok,
		})
	case kindTombstone:
		s.dropFuncLocked(funcTok)
		sf.tombs = append(sf.tombs, funcTok)
	}
}

// parseBody decodes a record body. For puts, payOff is the payload's
// offset WITHIN the body; payLen its length.
func parseBody(body []byte) (kind byte, unixNano int64, id, funcTok string, payOff int64, payLen uint32, ok bool) {
	if len(body) < 9 {
		return 0, 0, "", "", 0, 0, false
	}
	kind = body[0]
	unixNano = int64(binary.LittleEndian.Uint64(body[1:9]))
	rest := body[9:]
	switch kind {
	case kindPut:
		if len(rest) < 8 {
			return 0, 0, "", "", 0, 0, false
		}
		idLen := int(binary.LittleEndian.Uint16(rest[0:2]))
		fnLen := int(binary.LittleEndian.Uint16(rest[2:4]))
		payLen = binary.LittleEndian.Uint32(rest[4:8])
		if len(rest) != 8+idLen+fnLen+int(payLen) {
			return 0, 0, "", "", 0, 0, false
		}
		id = string(rest[8 : 8+idLen])
		funcTok = string(rest[8+idLen : 8+idLen+fnLen])
		payOff = int64(9 + 8 + idLen + fnLen)
		return kind, unixNano, id, funcTok, payOff, payLen, true
	case kindTombstone:
		if len(rest) < 2 {
			return 0, 0, "", "", 0, 0, false
		}
		fnLen := int(binary.LittleEndian.Uint16(rest[0:2]))
		if len(rest) != 2+fnLen {
			return 0, 0, "", "", 0, 0, false
		}
		funcTok = string(rest[2 : 2+fnLen])
		return kind, unixNano, "", funcTok, 0, 0, true
	}
	return 0, 0, "", "", 0, 0, false
}

// encodePut frames a put record.
func encodePut(id, funcTok string, payload []byte, unixNano int64) []byte {
	bodyLen := 9 + 8 + len(id) + len(funcTok) + len(payload)
	buf := make([]byte, headerSize+bodyLen)
	body := buf[headerSize:]
	body[0] = kindPut
	binary.LittleEndian.PutUint64(body[1:9], uint64(unixNano))
	binary.LittleEndian.PutUint16(body[9:11], uint16(len(id)))
	binary.LittleEndian.PutUint16(body[11:13], uint16(len(funcTok)))
	binary.LittleEndian.PutUint32(body[13:17], uint32(len(payload)))
	copy(body[17:], id)
	copy(body[17+len(id):], funcTok)
	copy(body[17+len(id)+len(funcTok):], payload)
	frame(buf)
	return buf
}

// encodeTombstone frames a tombstone record.
func encodeTombstone(funcTok string, unixNano int64) []byte {
	bodyLen := 9 + 2 + len(funcTok)
	buf := make([]byte, headerSize+bodyLen)
	body := buf[headerSize:]
	body[0] = kindTombstone
	binary.LittleEndian.PutUint64(body[1:9], uint64(unixNano))
	binary.LittleEndian.PutUint16(body[9:11], uint16(len(funcTok)))
	copy(body[11:], funcTok)
	frame(buf)
	return buf
}

// frame fills in the header (magic, body length, CRC) of an encoded
// record whose body is already in place.
func frame(buf []byte) {
	body := buf[headerSize:]
	binary.LittleEndian.PutUint32(buf[0:4], recMagic)
	binary.LittleEndian.PutUint32(buf[4:8], uint32(len(body)))
	binary.LittleEndian.PutUint32(buf[8:12], crc32.Checksum(body, castagnoli))
}

// openActive creates and adopts a fresh active segment.
func (s *Store) openActive(id uint32) error {
	f, err := os.OpenFile(s.segPath(id), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	sf := &segFile{id: id, f: f}
	s.segs[id] = sf
	s.active = sf
	return nil
}

// appendLocked writes one framed record to the active segment, rotating
// first if the active segment is full. Returns the segment and record
// offset the record landed at. Caller holds the write lock.
func (s *Store) appendLocked(rec []byte) (*segFile, int64, error) {
	if s.active.size >= s.opts.SegmentMaxBytes {
		// Seal the outgoing segment with a final sync so rotation is also
		// a durability barrier, then start the next one.
		s.active.f.Sync()
		if err := s.openActive(s.active.id + 1); err != nil {
			return nil, 0, err
		}
	}
	off := s.active.size
	if _, err := s.active.f.WriteAt(rec, off); err != nil {
		return nil, 0, err
	}
	s.active.size += int64(len(rec))
	s.dirty.Store(true)
	return s.active, off, nil
}

// indexPut installs a ref, replacing any previous version of the id and
// keeping liveBytes exact. Caller holds the write lock.
func (s *Store) indexPut(id string, r *ref) {
	if old, ok := s.idx[id]; ok {
		s.liveBytes -= int64(old.payLen)
		if old.funcTok != r.funcTok {
			s.unindexFunc(id, old.funcTok)
		}
	}
	s.idx[id] = r
	s.liveBytes += int64(r.payLen)
	byFn := s.byFunc[r.funcTok]
	if byFn == nil {
		byFn = map[string]*ref{}
		s.byFunc[r.funcTok] = byFn
	}
	byFn[id] = r
}

// unindexFunc removes one id from the func index.
func (s *Store) unindexFunc(id, funcTok string) {
	if byFn := s.byFunc[funcTok]; byFn != nil {
		delete(byFn, id)
		if len(byFn) == 0 {
			delete(s.byFunc, funcTok)
		}
	}
}

// dropLocked removes one live entry from both indexes and the byte
// accounting. Caller holds the write lock.
func (s *Store) dropLocked(id string, r *ref) {
	delete(s.idx, id)
	s.liveBytes -= int64(r.payLen)
	s.unindexFunc(id, r.funcTok)
}

// dropFuncLocked removes every live entry of one func token, returning
// how many were dropped. Caller holds the write lock.
func (s *Store) dropFuncLocked(funcTok string) int {
	byFn := s.byFunc[funcTok]
	n := len(byFn)
	for id, r := range byFn {
		delete(s.idx, id)
		s.liveBytes -= int64(r.payLen)
	}
	delete(s.byFunc, funcTok)
	return n
}

// Put appends one entry. The previous version of the id (if any) becomes
// dead bytes for compaction to reclaim; the index moves to the new
// record atomically under the lock.
func (s *Store) Put(id, funcTok string, payload []byte) error {
	return s.PutAt(id, funcTok, payload, time.Now())
}

// PutAt is Put with an explicit timestamp — the TTL clock for the
// entry (tests age entries with it).
func (s *Store) PutAt(id, funcTok string, payload []byte, t time.Time) error {
	if bodyLen := 9 + 8 + len(id) + len(funcTok) + len(payload); bodyLen > maxRecordBytes {
		return ErrRecordTooLarge
	}
	rec := encodePut(id, funcTok, payload, t.UnixNano())
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return os.ErrClosed
	}
	sf, off, err := s.appendLocked(rec)
	if err != nil {
		return err
	}
	payOff := int64(headerSize + 9 + 8 + len(id) + len(funcTok))
	s.indexPut(id, &ref{
		seg:      sf.id,
		recOff:   off,
		recLen:   uint32(len(rec)),
		payOff:   off + payOff,
		payLen:   uint32(len(payload)),
		unixNano: t.UnixNano(),
		funcTok:  funcTok,
	})
	s.puts.Add(1)
	return nil
}

// Get returns the payload stored under id: one index probe, one pread.
// Any read failure is a miss — the engine is a cache.
func (s *Store) Get(id string) ([]byte, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.read(s.idx[id])
}

// GetBytes is Get for an id held as bytes: the index probe makes no
// string of them.
func (s *Store) GetBytes(id []byte) ([]byte, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.read(s.idx[string(id)])
}

// read preads r's payload, or misses for no r; s.mu is held.
func (s *Store) read(r *ref) ([]byte, bool) {
	if s.closed || r == nil {
		return nil, false
	}
	sf := s.segs[r.seg]
	if sf == nil {
		return nil, false
	}
	buf := make([]byte, r.payLen)
	if _, err := sf.f.ReadAt(buf, r.payOff); err != nil {
		return nil, false
	}
	return buf, true
}

// InvalidateFunc drops every live entry of one func token, appending a
// tombstone so the deletion survives restart (without it, recovery would
// resurrect the entries as unreachable garbage). Returns the number of
// entries dropped.
func (s *Store) InvalidateFunc(funcTok string) int {
	return s.InvalidateFuncs([]string{funcTok})
}

// InvalidateFuncs drops the entries of many func tokens in one lock
// hold and one append batch.
func (s *Store) InvalidateFuncs(funcToks []string) int {
	now := time.Now().UnixNano()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0
	}
	n := 0
	for _, fn := range funcToks {
		dropped := s.dropFuncLocked(fn)
		if dropped == 0 {
			continue
		}
		n += dropped
		// Tombstone only func tokens that actually had entries: an
		// invalidation storm over cold hashes must not bloat the log.
		if _, _, err := s.appendLocked(encodeTombstone(fn, now)); err == nil {
			s.active.tombs = append(s.active.tombs, fn)
		}
	}
	s.invalidated.Add(int64(n))
	return n
}

// Sync flushes the active segment to stable storage now.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.active == nil {
		return nil
	}
	s.dirty.Store(false)
	return s.active.f.Sync()
}

// flushLoop is the batched-fsync goroutine: puts never block on
// stable-storage latency; the flusher syncs a dirty active segment once
// per interval.
func (s *Store) flushLoop() {
	defer close(s.done)
	tick := time.NewTicker(s.opts.SyncInterval)
	defer tick.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-tick.C:
			if s.dirty.Swap(false) {
				s.mu.RLock()
				if !s.closed && s.active != nil {
					s.active.f.Sync()
				}
				s.mu.RUnlock()
			}
		}
	}
}

// Close syncs and closes every segment. The engine is unusable
// afterwards; operations return misses / zero.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	var err error
	if s.active != nil {
		err = s.active.f.Sync()
	}
	s.closeFilesLocked()
	s.mu.Unlock()
	close(s.stop)
	<-s.done
	return err
}

func (s *Store) closeFiles() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closeFilesLocked()
}

func (s *Store) closeFilesLocked() {
	for _, sf := range s.segs {
		sf.f.Close()
	}
}

// Stats snapshots the engine's counters. Entries and Bytes come from
// the index under the lock, so they are exact for the live set.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	st := Stats{
		Entries:  len(s.idx),
		Bytes:    s.liveBytes,
		Segments: len(s.segs),
	}
	for _, sf := range s.segs {
		st.DiskBytes += sf.size
	}
	s.mu.RUnlock()
	st.Puts = s.puts.Load()
	st.Invalidated = s.invalidated.Load()
	st.Expired = s.expired.Load()
	st.Evicted = s.evicted.Load()
	st.Compactions = s.compactions.Load()
	return st
}

// readRecord fetches one full framed record (for compaction copies). A
// short read is an error, never a zero-padded success: compaction must
// take its keep-the-victim path rather than copy a truncated record.
func (sf *segFile) readRecord(off int64, length uint32) ([]byte, error) {
	buf := make([]byte, length)
	n, err := sf.f.ReadAt(buf, off)
	if n != int(length) {
		if err == nil {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return buf, nil
}
