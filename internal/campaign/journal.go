package campaign

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"sync"
)

// journalVersion is bumped on incompatible format changes.
const journalVersion = 1

// Header is the first line of a checkpoint journal. It pins the journal to
// one campaign: Kind names the producing runner ("symbolic" or "concrete")
// and Fingerprint hashes the campaign spec, so a resume against a different
// program, input, predicate or injection list is rejected instead of
// silently merging unrelated results.
type Header struct {
	Version     int    `json:"symplfied_journal"`
	Kind        string `json:"kind"`
	Fingerprint string `json:"fingerprint"`
}

// entry is one journaled record: a campaign-unique key (the injection's
// canonical rendering) plus the runner-specific payload.
type entry struct {
	Key  string          `json:"key"`
	Data json.RawMessage `json:"data"`
}

// Journal is an append-only JSON-lines checkpoint file. Each completed
// injection is written as one line and flushed immediately, so a killed
// campaign loses at most the injections still in flight. Append is safe for
// concurrent use by campaign workers.
type Journal struct {
	mu   sync.Mutex
	f    *os.File
	path string
}

// OpenJournal opens (or creates) the journal at path for appending. A new
// file is stamped with the header; an existing file must carry a matching
// header or an error is returned.
func OpenJournal(path, kind, fingerprint string) (*Journal, error) {
	existing, err := readHeader(path)
	switch {
	case errors.Is(err, fs.ErrNotExist):
		f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, fmt.Errorf("campaign: create journal: %w", err)
		}
		hdr, err := json.Marshal(Header{Version: journalVersion, Kind: kind, Fingerprint: fingerprint})
		if err != nil {
			f.Close()
			return nil, err
		}
		if _, err := f.Write(append(hdr, '\n')); err != nil {
			f.Close()
			return nil, fmt.Errorf("campaign: write journal header: %w", err)
		}
		return &Journal{f: f, path: path}, nil
	case err != nil:
		return nil, err
	}
	if err := existing.check(kind, fingerprint); err != nil {
		return nil, fmt.Errorf("campaign: journal %s: %w", path, err)
	}
	if err := truncateTornTail(path); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("campaign: open journal: %w", err)
	}
	return &Journal{f: f, path: path}, nil
}

// truncateTornTail drops a torn final line (a kill mid-append) before the
// journal is reopened for appending, so new entries never concatenate onto
// the fragment and corrupt the file mid-line.
func truncateTornTail(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("campaign: read journal: %w", err)
	}
	if i := bytes.LastIndexByte(data, '\n'); i+1 < len(data) {
		if err := os.Truncate(path, int64(i+1)); err != nil {
			return fmt.Errorf("campaign: truncate torn journal tail: %w", err)
		}
	}
	return nil
}

// check validates a header against the expected campaign identity.
func (h Header) check(kind, fingerprint string) error {
	if h.Version != journalVersion {
		return fmt.Errorf("journal version %d, want %d", h.Version, journalVersion)
	}
	if h.Kind != kind {
		return fmt.Errorf("journal kind %q, want %q", h.Kind, kind)
	}
	if h.Fingerprint != fingerprint {
		return fmt.Errorf("campaign fingerprint mismatch: journal was written by a different campaign spec (journal %s, spec %s)", h.Fingerprint, fingerprint)
	}
	return nil
}

// readHeader reads and decodes the first line of the file at path.
func readHeader(path string) (Header, error) {
	f, err := os.Open(path)
	if err != nil {
		return Header{}, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), maxJournalLine)
	if !sc.Scan() {
		return Header{}, fmt.Errorf("campaign: journal %s: empty or unreadable header", path)
	}
	var h Header
	if err := json.Unmarshal(sc.Bytes(), &h); err != nil {
		return Header{}, fmt.Errorf("campaign: journal %s: bad header: %w", path, err)
	}
	return h, nil
}

// maxJournalLine bounds the header line only; entry lines are read without a
// cap (a distributed task's pooled result can run to gigabytes).
const maxJournalLine = 16 << 20

// Append journals one record under key and flushes it to the file. The write
// is a single Write syscall of one complete line, so concurrent appends from
// campaign workers never interleave partial lines.
func (j *Journal) Append(key string, payload any) error {
	data, err := json.Marshal(payload)
	if err != nil {
		return fmt.Errorf("campaign: marshal journal entry: %w", err)
	}
	line, err := json.Marshal(entry{Key: key, Data: data})
	if err != nil {
		return err
	}
	line = append(line, '\n')
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, err := j.f.Write(line); err != nil {
		return fmt.Errorf("campaign: append journal entry: %w", err)
	}
	return nil
}

// Close syncs and closes the journal file.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.f.Sync(); err != nil {
		j.f.Close()
		return err
	}
	return j.f.Close()
}

// LoadJournal reads the journal at path and returns its entries keyed by
// injection key (the last entry wins on duplicates). A missing file is not
// an error: it returns an empty map, so "resume" on a fresh campaign starts
// from nothing. A present file must match kind and fingerprint. A torn final
// line — the crash the journal exists to survive — is skipped.
func LoadJournal(path, kind, fingerprint string) (map[string]json.RawMessage, error) {
	f, err := os.Open(path)
	if errors.Is(err, fs.ErrNotExist) {
		return map[string]json.RawMessage{}, nil
	}
	if err != nil {
		return nil, fmt.Errorf("campaign: open journal: %w", err)
	}
	defer f.Close()

	// Entry lines are unbounded (a distributed task's pooled result can run
	// to gigabytes), so read with ReadBytes rather than a capped Scanner.
	r := bufio.NewReaderSize(f, 1<<16)
	hdrLine, rerr := r.ReadBytes('\n')
	if len(bytes.TrimSpace(hdrLine)) == 0 {
		if rerr != nil && !errors.Is(rerr, io.EOF) {
			return nil, fmt.Errorf("campaign: journal %s: %w", path, rerr)
		}
		return nil, fmt.Errorf("campaign: journal %s: empty or unreadable header", path)
	}
	var h Header
	if err := json.Unmarshal(hdrLine, &h); err != nil {
		return nil, fmt.Errorf("campaign: journal %s: bad header: %w", path, err)
	}
	if err := h.check(kind, fingerprint); err != nil {
		return nil, fmt.Errorf("campaign: journal %s: %w", path, err)
	}

	entries := make(map[string]json.RawMessage)
	for {
		line, rerr := r.ReadBytes('\n')
		atEOF := errors.Is(rerr, io.EOF)
		if rerr != nil && !atEOF {
			return nil, fmt.Errorf("campaign: journal %s: %w", path, rerr)
		}
		// Appends are whole '\n'-terminated lines, so an unterminated final
		// line is the expected torn tail of a killed run and is skipped, even
		// when it happens to decode: OpenJournal truncates it before the next
		// append. A terminated line that fails to decode is corruption.
		if trimmed := bytes.TrimSpace(line); len(trimmed) > 0 && !atEOF {
			var e entry
			if err := json.Unmarshal(trimmed, &e); err != nil {
				return nil, fmt.Errorf("campaign: journal %s: corrupt entry: %w", path, err)
			}
			entries[e.Key] = e.Data
		}
		if atEOF {
			break
		}
	}
	return entries, nil
}
