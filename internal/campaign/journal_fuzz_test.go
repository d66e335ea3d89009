package campaign

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// FuzzLoadJournal feeds LoadJournal a valid header followed by arbitrary
// bytes: whole entries, torn tails, corrupt lines, blank lines, stray
// carriage returns. LoadJournal must never panic. When it accepts the file,
// reopening it with OpenJournal (which truncates a torn tail) and appending
// one entry must keep every entry it loaded and add the new one.
func FuzzLoadJournal(f *testing.F) {
	const kind, fp = "symbolic", "fuzz-fingerprint"
	for _, seed := range []string{
		"",
		"{\"key\":\"a\",\"data\":{\"n\":1}}\n",
		"{\"key\":\"a\",\"data\":1}\n{\"key\":\"b\",\"data\":[2]}\n",
		"{\"key\":\"a\",\"data\":1}\n{\"key\":\"to",
		"{\"key\":\"a\",\"data\":1}\r\n\n  \n{\"key\":\"a\",\"data\":3}\n",
		"not json\n{\"key\":\"a\",\"data\":1}\n",
		"{\"key\":\"a\",\"data\":1}\n\xff\xfe",
		"{\"key\":7,\"data\":1}\n",
	} {
		f.Add([]byte(seed))
	}
	hdr, err := json.Marshal(Header{Version: journalVersion, Kind: kind, Fingerprint: fp})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, tail []byte) {
		path := filepath.Join(t.TempDir(), "journal.jsonl")
		if err := os.WriteFile(path, append(append(hdr, '\n'), tail...), 0o644); err != nil {
			t.Fatal(err)
		}
		before, loadErr := LoadJournal(path, kind, fp)

		j, err := OpenJournal(path, kind, fp)
		if err != nil {
			t.Fatalf("OpenJournal over a valid header: %v", err)
		}
		const key = "appended after reopen"
		if err := j.Append(key, map[string]int{"n": 42}); err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		if loadErr != nil {
			return // corruption before the tail stays corruption
		}
		after, err := LoadJournal(path, kind, fp)
		if err != nil {
			t.Fatalf("journal loaded before the append but not after: %v", err)
		}
		if got := string(after[key]); got != `{"n":42}` {
			t.Errorf("appended entry reads back as %q", got)
		}
		for k, v := range before {
			if k != key && !bytes.Equal(after[k], v) {
				t.Errorf("entry %q was %s before the append, %s after", k, v, after[k])
			}
		}
	})
}
