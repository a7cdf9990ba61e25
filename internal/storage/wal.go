package storage

// logManager is the write-ahead log: an LSN counter and a circular log
// buffer whose blocks are written by every update/insert/delete and by
// every commit. It models the consolidated buffer acquire→copy→release
// path of Aether logging (Johnson et al., cited as the logging optimization
// enabled in Section 4.1).
type logManager struct {
	lsn     uint64
	offset  uint64 // bytes ever written; buffer position = offset % LogBufBytes
	records uint64
	flushes uint64
}

// Log record kinds (payload layout is irrelevant to tracing; sizes matter).
type logKind uint8

const (
	logUpdate logKind = iota
	logInsert
	logDelete
	logCommit
)

const (
	logRecordHeader = 48
	logFlushChunk   = 64 << 10 // flush path taken when crossing a 64KB boundary
)

func newLogManager() *logManager {
	return &logManager{lsn: 1}
}

// insert appends one log record and returns its LSN, emitting the
// instrumented log_insert path and the log-buffer block writes. An untraced
// manager skips both and only advances the log's position and counters.
//
// Code-range map for log_insert (120 blocks):
//
//	[0,60)    buffer-slot reserve (CAS fast path)
//	[60,100)  payload copy loop (looped per 128 payload bytes)
//	[100,120) flush/group-commit path (on 64KB boundary crossings)
func (lg *logManager) insert(m *Manager, txn *Txn, kind logKind, payload int) uint64 {
	size := uint64(logRecordHeader + payload)
	start := lg.offset
	end := lg.offset + size
	flush := start/logFlushChunk != end/logFlushChunk
	if m.rec != nil {
		lg.emitInsert(m, start, end, flush)
	}
	if flush {
		lg.flushes++
	}

	lg.offset = end
	lg.records++
	lsn := lg.lsn
	lg.lsn++
	txn.lastLSN = lsn
	return lsn
}

// emitInsert records the log_insert path of a record occupying log bytes
// [start, end).
func (lg *logManager) emitInsert(m *Manager, start, end uint64, flush bool) {
	m.emitRange(&m.seg.logInsert, 0, 60)

	// Copy loop: one iteration per 128 bytes of record.
	iters := int((end - start + 127) / 128)
	if iters > 8 {
		iters = 8
	}
	m.emitLoop(&m.seg.logInsert, 60, 100, 1)
	for i := 1; i < iters; i++ {
		m.emitRange(&m.seg.logInsert, 60, 72) // hot inner copy loop
	}

	// Write the touched log-buffer blocks.
	for blk := start &^ 63; blk < end; blk += 64 {
		m.dataWrite(LogBase + blk%LogBufBytes)
	}

	if flush {
		m.emitRange(&m.seg.logInsert, 100, 120)
	}
}
