// Package replica turns the engine's write-ahead log into a replication
// stream: a leader ships committed WAL entries (and whole snapshots for
// catch-up) over HTTP, and followers tail the stream, journal the frames
// into a byte-identical local log, and apply each batch through the engine's
// MVCC publish cycle so follower reads are snapshot-consistent and never
// block on apply.
//
// Endpoints (mounted under /repl on the leader):
//
//	GET /repl/position                     -> JSON {gen, offset, seq}
//	GET /repl/stream?gen=G&offset=O&seq=S  -> chunked binary frame stream
//	GET /repl/snapshot                     -> live snapshot bytes (X-Repl-Gen header)
//
// The stream body is a sequence of self-checking frames (see below). HTTP
// status 410 Gone on /stream means the requested generation was truncated by
// a leader checkpoint — fall back to /snapshot. 409 Conflict means the
// follower's position is ahead of the leader's log, which has no automatic
// recovery (wipe the follower).
package replica

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/storage"
)

// Stream frame kinds. A frame starts with one kind byte.
const (
	// frameEntry carries one committed WAL entry:
	// [kind][term u64][gen u64][offset i64][len u32][crc32c u32][payload].
	// term is the election term the sending leader holds — the follower
	// refuses entries older than its fence (a deposed leader's late writes).
	// gen/offset locate the entry's first header byte in the leader's WAL;
	// the follower requires them to equal its own log end before appending.
	frameEntry = byte(1)
	// framePos carries the leader's live position — a heartbeat:
	// [kind][term u64][gen u64][offset i64][seq u64]. Sent after every
	// drained batch and on an idle timer, it is what lets a follower report
	// lag (and detect a dead TCP peer); in a cluster it doubles as the
	// leader's lease renewal, and the term lets a follower notice a newer
	// leader even when no entry flows.
	framePos = byte(2)
	// frameResync ends a stream that can no longer continue from the
	// follower's position (the generation rotated mid-stream): [kind].
	// The follower reconnects; the fresh request is answered with 410 and
	// snapshot catch-up takes over.
	frameResync = byte(3)
)

// maxWireEntry bounds a single streamed entry; mirrors the WAL's own limit
// so a garbage length prefix cannot become an allocation request.
const maxWireEntry = 1 << 30

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// errBadFrame is returned by readWireFrame for any torn, truncated or
// bit-flipped frame. The tailer treats it as a broken connection: drop the
// stream and re-request from the last locally journaled position.
var errBadFrame = errors.New("replica: corrupt or truncated stream frame")

// wireFrame is one decoded stream frame.
type wireFrame struct {
	kind byte
	// term is the election term stamped by the sending leader (frameEntry
	// and framePos).
	term uint64
	// pos: for frameEntry, where the entry starts in the leader's WAL (Seq
	// unused); for framePos, the leader's live position.
	pos storage.Position
	// payload: frameEntry only — the WAL entry payload, checksum-verified.
	payload []byte
}

// writeEntryFrame writes one committed entry frame.
func writeEntryFrame(w io.Writer, term, gen uint64, offset int64, payload []byte) error {
	var hdr [1 + 8 + 8 + 8 + 4 + 4]byte
	hdr[0] = frameEntry
	binary.LittleEndian.PutUint64(hdr[1:9], term)
	binary.LittleEndian.PutUint64(hdr[9:17], gen)
	binary.LittleEndian.PutUint64(hdr[17:25], uint64(offset))
	binary.LittleEndian.PutUint32(hdr[25:29], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[29:33], crc32.Checksum(payload, crcTable))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// writePosFrame writes a leader-position heartbeat frame.
func writePosFrame(w io.Writer, term uint64, pos storage.Position) error {
	var hdr [1 + 8 + 8 + 8 + 8]byte
	hdr[0] = framePos
	binary.LittleEndian.PutUint64(hdr[1:9], term)
	binary.LittleEndian.PutUint64(hdr[9:17], pos.Gen)
	binary.LittleEndian.PutUint64(hdr[17:25], uint64(pos.Offset))
	binary.LittleEndian.PutUint64(hdr[25:33], pos.Seq)
	_, err := w.Write(hdr[:])
	return err
}

// writeResyncFrame writes a stream-ending resync frame.
func writeResyncFrame(w io.Writer) error {
	_, err := w.Write([]byte{frameResync})
	return err
}

// readWireFrame reads and validates one frame. io.EOF is returned only at a
// clean frame boundary; a frame cut off partway — or one whose checksum or
// length field does not hold up — is errBadFrame, never a silent partial
// result. This mirrors the on-disk torn-tail discipline: a follower applies
// a shipped entry only if every byte of it arrived intact.
func readWireFrame(br *bufio.Reader) (wireFrame, error) {
	kind, err := br.ReadByte()
	if err != nil {
		if err == io.EOF {
			return wireFrame{}, io.EOF
		}
		return wireFrame{}, fmt.Errorf("%w: %v", errBadFrame, err)
	}
	switch kind {
	case frameEntry:
		var hdr [8 + 8 + 8 + 4 + 4]byte
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return wireFrame{}, fmt.Errorf("%w: truncated entry header", errBadFrame)
		}
		term := binary.LittleEndian.Uint64(hdr[0:8])
		gen := binary.LittleEndian.Uint64(hdr[8:16])
		offset := int64(binary.LittleEndian.Uint64(hdr[16:24]))
		length := binary.LittleEndian.Uint32(hdr[24:28])
		wantCRC := binary.LittleEndian.Uint32(hdr[28:32])
		if length > maxWireEntry {
			return wireFrame{}, fmt.Errorf("%w: entry length %d out of range", errBadFrame, length)
		}
		payload := make([]byte, length)
		if _, err := io.ReadFull(br, payload); err != nil {
			return wireFrame{}, fmt.Errorf("%w: truncated entry payload", errBadFrame)
		}
		if crc32.Checksum(payload, crcTable) != wantCRC {
			return wireFrame{}, fmt.Errorf("%w: entry at offset %d fails checksum", errBadFrame, offset)
		}
		return wireFrame{kind: frameEntry, term: term, pos: storage.Position{Gen: gen, Offset: offset}, payload: payload}, nil
	case framePos:
		var hdr [8 + 8 + 8 + 8]byte
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return wireFrame{}, fmt.Errorf("%w: truncated position frame", errBadFrame)
		}
		return wireFrame{kind: framePos, term: binary.LittleEndian.Uint64(hdr[0:8]), pos: storage.Position{
			Gen:    binary.LittleEndian.Uint64(hdr[8:16]),
			Offset: int64(binary.LittleEndian.Uint64(hdr[16:24])),
			Seq:    binary.LittleEndian.Uint64(hdr[24:32]),
		}}, nil
	case frameResync:
		return wireFrame{kind: frameResync}, nil
	default:
		return wireFrame{}, fmt.Errorf("%w: unknown frame kind %d", errBadFrame, kind)
	}
}
