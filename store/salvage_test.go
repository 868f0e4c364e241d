package store

import (
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"reflect"
	"testing"
	"time"
)

// salvageJournal is the salvage rule, read from the framing's definition
// alone: whole frames, each with a plausible length, the CRC-32C its
// header stores and a payload that decodes, from the start of body up
// to the first that is not. It returns their records and where the last
// one ends.
func salvageJournal(body []byte) (recs []Record, end int) {
	for {
		rest := body[end:]
		if len(rest) < recHeaderSize {
			return recs, end
		}
		size := binary.LittleEndian.Uint32(rest[0:4])
		if size > maxRecordSize || uint64(size) > uint64(len(rest)-recHeaderSize) {
			return recs, end
		}
		payload := rest[recHeaderSize : recHeaderSize+int(size)]
		if crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(rest[4:8]) {
			return recs, end
		}
		var rec Record
		if json.Unmarshal(payload, &rec) != nil {
			return recs, end
		}
		recs = append(recs, rec)
		end += recHeaderSize + int(size)
	}
}

// fixCRCs rewrites the stored checksum of every whole frame of body to
// its payload's, stopping at an implausible length, so the fuzzer's
// mutations of lengths and payloads reach the decoder.
func fixCRCs(body []byte) {
	for off := 0; len(body)-off >= recHeaderSize; {
		size := binary.LittleEndian.Uint32(body[off : off+4])
		if size > maxRecordSize || uint64(size) > uint64(len(body)-off-recHeaderSize) {
			return
		}
		payload := body[off+recHeaderSize : off+recHeaderSize+int(size)]
		binary.LittleEndian.PutUint32(body[off+4:off+8], crc32.Checksum(payload, crcTable))
		off += recHeaderSize + int(size)
	}
}

// journalSeed frames records the way Append writes them, after the
// journal header.
func journalSeed(tb testing.TB, recs ...Record) []byte {
	tb.Helper()
	buf := append([]byte(nil), journalMagic[:]...)
	for i := range recs {
		var err error
		if buf, err = appendFrame(buf, &recs[i]); err != nil {
			tb.Fatal(err)
		}
	}
	return buf
}

// FuzzJournalSalvage feeds arbitrary bytes to the journal scan Open
// recovers with. It must never panic; it must return exactly the
// records of the intact prefix salvageJournal finds (so never one whose
// checksum failed, nor one after it), count them, and report the rest
// as discarded with a reason, or nothing when the prefix is the whole
// journal. With fix set the input's frames get their right checksums
// first.
func FuzzJournalSalvage(f *testing.F) {
	at := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	good := journalSeed(f,
		Record{Seq: 1, Kind: KindSubmitted, Job: "job-1", Time: at, Submitted: &SubmittedRecord{Scenarios: 2, Request: json.RawMessage(`{"scenarios":[{"profile":"429.mcf"},{"profile":"470.lbm"}]}`)}},
		Record{Seq: 2, Kind: KindStarted, Job: "job-1", Time: at},
		Record{Seq: 3, Kind: KindRow, Job: "job-1", Time: at, Row: &RowRecord{Index: 1}},
		Record{Seq: 4, Kind: KindFinished, Job: "job-1", Time: at, Finished: &FinishedRecord{State: "done"}},
		Record{Seq: 5, Kind: KindSubmitted, Time: at},
	)
	f.Add(good, false)
	f.Add(good[:len(good)-3], false) // a torn last frame
	flipped := append([]byte(nil), good...)
	flipped[len(journalMagic)+5] ^= 0x80 // the first frame's stored checksum
	f.Add(flipped, false)
	f.Add(flipped, true)
	f.Add(journalMagic[:], false)
	f.Add([]byte("DARCOWA0"), false)
	f.Fuzz(func(t *testing.T, raw []byte, fix bool) {
		raw = append([]byte(nil), raw...)
		hasMagic := len(raw) >= len(journalMagic) && string(raw[:len(journalMagic)]) == string(journalMagic[:])
		if fix && hasMagic {
			fixCRCs(raw[len(journalMagic):])
		}
		st := &Store{jobs: make(map[string]*JobHistory), inJournal: make(map[string]bool)}
		out := st.scanJournal(raw, nil)
		rec := st.recovery
		if !hasMagic {
			if out != nil || rec.JournalRecords != 0 {
				t.Fatalf("a journal without its header salvaged %d records", len(out))
			}
			if len(raw) > 0 && (rec.Corrupt == "" || rec.DiscardedBytes != int64(len(raw))) {
				t.Fatalf("a journal without its header: corrupt %q, %d of %d bytes discarded", rec.Corrupt, rec.DiscardedBytes, len(raw))
			}
			return
		}
		body := raw[len(journalMagic):]
		want, end := salvageJournal(body)
		if len(out) != len(want) || rec.JournalRecords != len(want) {
			t.Fatalf("salvaged %d records (counted %d), the intact prefix holds %d", len(out), rec.JournalRecords, len(want))
		}
		for i := range want {
			if !reflect.DeepEqual(out[i], want[i]) {
				t.Fatalf("record %d:\n got %+v\nwant %+v", i, out[i], want[i])
			}
		}
		discarded := int64(len(body) - end)
		if discarded == 0 && rec.Corrupt != "" {
			t.Fatalf("an intact journal reported corrupt: %s", rec.Corrupt)
		}
		if discarded != 0 && (rec.Corrupt == "" || rec.DiscardedBytes != discarded) {
			t.Fatalf("corrupt %q, %d bytes discarded; the damaged suffix is %d bytes", rec.Corrupt, rec.DiscardedBytes, discarded)
		}
	})
}
