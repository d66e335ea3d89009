package dist

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"symplfied/internal/campaign"
)

// FuzzDiskStoreRecords feeds a restarting registry arbitrary campaign.json
// bytes plus a result journal made of a valid header, the first n settled
// tasks and a torn tail. NewRegistry over the directory must return an error
// or resume, never panic. A resumed campaign's report must equal the report
// of a clean in-memory replay of the same settled prefix.
func FuzzDiskStoreRecords(f *testing.F) {
	valid := func(mut func(*CampaignRecord)) []byte {
		doc := testDoc()
		fp, err := DocFingerprint(doc)
		if err != nil {
			f.Fatal(err)
		}
		rec := CampaignRecord{
			ID: "camp", Tenant: "t", State: StateOpen, Doc: doc,
			Fingerprint: fp, Kind: journalKind(false, doc.Tasks), Seq: 1,
		}
		if mut != nil {
			mut(&rec)
		}
		data, err := json.Marshal(rec)
		if err != nil {
			f.Fatal(err)
		}
		return data
	}
	torn := []byte(`{"key":"task:3","data":{"Repor`)
	f.Add(valid(nil), uint8(0), []byte(nil))
	f.Add(valid(nil), uint8(2), torn)
	f.Add(valid(nil), uint8(4), []byte("\xff"))
	f.Add(valid(func(r *CampaignRecord) { r.State = StateDone }), uint8(3), torn)
	f.Add(valid(func(r *CampaignRecord) { r.State = StateCancelled }), uint8(1), torn)
	f.Add(valid(func(r *CampaignRecord) { r.Doc.Tasks = 2 }), uint8(1), torn)
	f.Add(valid(func(r *CampaignRecord) { r.Kind = "dist-tasks-2" }), uint8(1), torn)
	f.Add(valid(func(r *CampaignRecord) { r.ID = "other" }), uint8(1), torn)
	f.Add(valid(func(r *CampaignRecord) { r.Doc.App = "nonesuch" }), uint8(0), []byte(nil))
	f.Add([]byte(`{"ID":"camp","Doc":{}}`), uint8(1), torn)
	f.Add([]byte("{"), uint8(0), []byte(nil))
	f.Add([]byte(nil), uint8(0), []byte(nil))

	f.Fuzz(func(t *testing.T, record []byte, n uint8, tail []byte) {
		var rec CampaignRecord
		decoded := json.Unmarshal(record, &rec) == nil
		// The record lives in the directory its own ID names when that is a
		// usable path component, so the well-formed case can resume.
		id := "camp"
		if decoded && validStoreID(rec.ID) == nil && len(rec.ID) <= 64 {
			id = rec.ID
		}
		dir := t.TempDir()
		if err := os.MkdirAll(filepath.Join(dir, id), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, id, "campaign.json"), record, 0o644); err != nil {
			t.Fatal(err)
		}

		// tasks.jsonl: a header bound to the record's identity, the first n
		// tasks settled, then a tail with no newline — always torn.
		path := filepath.Join(dir, id, "tasks.jsonl")
		j, err := campaign.OpenJournal(path, rec.Kind, rec.Fingerprint)
		if err != nil {
			t.Fatal(err)
		}
		settled := int(n % 8)
		for task := 0; task < settled; task++ {
			if err := j.Append(taskKey(task), syntheticResult(10*(task+1))); err != nil {
				t.Fatal(err)
			}
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		jf, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := jf.Write(bytes.ReplaceAll(tail, []byte("\n"), nil)); err != nil {
			t.Fatal(err)
		}
		jf.Close()

		store, err := NewDiskStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		reg, err := NewRegistry(RegistryConfig{Store: store})
		if err != nil {
			store.Close()
			return // refused: the documented outcome for a bad record
		}
		defer reg.Close()
		got, ok := reg.Get(id)
		if !ok {
			return // a cancelled record is listed, never resumed
		}

		ref := newTestRegistry(t, RegistryConfig{})
		want, err := ref.Create(rec.Doc, "", 0)
		if err != nil {
			t.Fatalf("record resumed from disk but its document does not lower: %v", err)
		}
		for task := 0; task < settled && task < len(want.tasks); task++ {
			if _, err := want.Complete("replay", task, syntheticResult(10*(task+1))); err != nil {
				t.Fatal(err)
			}
		}
		gotJSON, err := json.Marshal(got.Report())
		if err != nil {
			t.Fatal(err)
		}
		wantJSON, err := json.Marshal(want.Report())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotJSON, wantJSON) {
			t.Errorf("resumed report differs from a clean replay of %d settled tasks:\n got  %s\n want %s",
				settled, gotJSON, wantJSON)
		}
	})
}
