package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"symplfied/internal/cluster"
)

// refReportBytes computes the single-process reference for one campaign
// document: the exact JSON a complete coordinator report must equal.
func refReportBytes(t *testing.T, doc SpecDoc) []byte {
	t.Helper()
	spec, err := doc.Build()
	if err != nil {
		t.Fatal(err)
	}
	tasks := cluster.Split(spec.Injections, doc.Tasks)
	reports := cluster.Run(spec, tasks, cluster.Config{
		Workers:            2,
		TaskStateBudget:    doc.TaskStateBudget,
		MaxFindingsPerTask: doc.MaxFindingsPerTask,
	})
	want, err := json.Marshal(MergedReport{
		Complete: true,
		Tasks:    reports,
		Summary:  cluster.Summarize(reports),
	})
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// fetchReportBytes GETs a campaign report route raw, for byte comparison.
func fetchReportBytes(t *testing.T, base, path string) []byte {
	t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("GET %s: %s", path, resp.Status)
	}
	body := new(bytes.Buffer)
	if _, err := body.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return bytes.TrimSpace(body.Bytes())
}

// TestMultiTenantFleetE2E is the service's acceptance check, mirroring the
// single-campaign TestEndToEndDeterminism at fleet scale:
//
//  1. Two tenants submit two campaigns to one service backed by a DiskStore;
//     real workers drive campaign A to completion and campaign B partway.
//  2. The service is killed and restarted over the same store: A resumes
//     done, B resumes open with only its unsettled tasks claimable.
//  3. A fleet of unpinned workers finishes B through the fleet dispatcher.
//  4. Each campaign's merged report is byte-identical to a single-process
//     cluster.Run over the same document.
//  5. Re-submitting A's document settles entirely from the fleet result
//     cache — no worker lease — and yields the identical report again.
//
// When MULTITENANT_STATUS_DIR is set (the CI smoke job does), each
// campaign's final StatusResponse is written there as JSON for the artifact
// upload.
func TestMultiTenantFleetE2E(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	docA := testDoc() // 4 tasks, tenant alice
	docB := testDocB()
	docB.Tasks = 6 // wide enough that the phase-1 kill lands mid-campaign

	wantA := refReportBytes(t, docA)
	wantB := refReportBytes(t, docB)

	// ---- Phase 1: two campaigns, one fleet, then a kill. ----
	dir := t.TempDir()
	store1, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	reg1, err := NewRegistry(RegistryConfig{Store: store1, Lease: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	srv1 := httptest.NewServer(NewService(reg1).Handler())
	cl1 := NewClient(srv1.URL, srv1.Client())

	infoA, err := cl1.Create(ctx, CreateCampaignRequest{Tenant: "alice", Priority: 1, Doc: docA})
	if err != nil {
		t.Fatal(err)
	}
	infoB, err := cl1.Create(ctx, CreateCampaignRequest{Tenant: "bob", Priority: 0, Doc: docB})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	// Worker pinned to A: runs its campaign to completion and exits.
	var errA error
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, errA = RunWorker(ctx, WorkerConfig{
			Coordinator: srv1.URL, ID: "wa", Campaign: infoA.ID, Poll: 50 * time.Millisecond,
		})
	}()
	// Worker pinned to B: killed right after B's first task settles — the
	// event long-poll is the kill trigger, so the cut lands mid-campaign.
	ctxB, cancelB := context.WithCancel(ctx)
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := cl1.Events(ctx, infoB.ID, 0); err != nil {
			t.Errorf("event long-poll on B: %v", err)
		}
		cancelB()
	}()
	var errB error
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, errB = RunWorker(ctxB, WorkerConfig{
			Coordinator: srv1.URL, ID: "wb", Campaign: infoB.ID, Poll: 50 * time.Millisecond,
		})
	}()
	wg.Wait()
	cancelB()
	if errA != nil {
		t.Fatalf("worker wa: %v", errA)
	}
	if errB != nil && ctxB.Err() == nil {
		t.Fatalf("worker wb: %v", errB)
	}

	stA, err := cl1.Status(ctx, infoA.ID)
	if err != nil {
		t.Fatal(err)
	}
	if stA.State != StateDone {
		t.Fatalf("campaign A after phase 1: %+v, want done", stA)
	}
	stB, err := cl1.Status(ctx, infoB.ID)
	if err != nil {
		t.Fatal(err)
	}
	if stB.Done < 1 || stB.Done >= stB.Total {
		t.Fatalf("campaign B after the kill has %d/%d done, want a strict partial", stB.Done, stB.Total)
	}
	phase1DoneB := stB.Done

	// The kill: service and registry go away; only the store directory lives.
	srv1.Close()
	if err := reg1.Close(); err != nil {
		t.Fatal(err)
	}

	// ---- Phase 2: restart over the same store. ----
	store2, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	reg2, err := NewRegistry(RegistryConfig{Store: store2, Lease: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer reg2.Close()
	srv2 := httptest.NewServer(NewService(reg2).Handler())
	defer srv2.Close()
	cl2 := NewClient(srv2.URL, srv2.Client())

	list, err := cl2.Campaigns(ctx)
	if err != nil {
		t.Fatal(err)
	}
	states := map[string]CampaignInfo{}
	for _, info := range list.Campaigns {
		states[info.ID] = info
	}
	if got := states[infoA.ID]; got.State != StateDone || got.Done != got.Total {
		t.Fatalf("A resumed as %+v, want done in full", got)
	}
	if got := states[infoB.ID]; got.State != StateOpen || got.Done != phase1DoneB {
		t.Fatalf("B resumed as %+v, want open with the %d journaled tasks settled", got, phase1DoneB)
	}
	// The journaled settles replay as Restored events on the resumed stream.
	evsB, err := cl2.Events(ctx, infoB.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	restored := 0
	for _, ev := range evsB {
		if ev.Restored {
			restored++
		}
	}
	if restored != phase1DoneB {
		t.Errorf("%d Restored events on resumed B, want %d", restored, phase1DoneB)
	}

	// An unpinned fleet finishes the remaining work and exits on fleet-done.
	var fleetErrs [2]error
	for i := range fleetErrs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, fleetErrs[i] = RunWorker(ctx, WorkerConfig{
				Coordinator: srv2.URL, ID: fmt.Sprintf("fleet-%d", i), Poll: 50 * time.Millisecond,
			})
		}(i)
	}
	wg.Wait()
	for i, err := range fleetErrs {
		if err != nil {
			t.Fatalf("fleet worker %d: %v", i, err)
		}
	}

	// ---- Byte identity, per campaign, across the kill. ----
	gotA := fetchReportBytes(t, srv2.URL, V1CampaignPath(infoA.ID, "report"))
	if !bytes.Equal(gotA, wantA) {
		t.Errorf("campaign A report differs from single-process cluster.Run:\n got  %s\n want %s", gotA, wantA)
	}
	gotB := fetchReportBytes(t, srv2.URL, V1CampaignPath(infoB.ID, "report"))
	if !bytes.Equal(gotB, wantB) {
		t.Errorf("campaign B report differs from single-process cluster.Run:\n got  %s\n want %s", gotB, wantB)
	}

	// ---- Resubmission: answered from the fleet result cache. ----
	infoA2, err := cl2.Create(ctx, CreateCampaignRequest{Tenant: "carol", Doc: docA})
	if err != nil {
		t.Fatal(err)
	}
	claim, err := cl2.Claim(ctx, infoA2.ID, "probe")
	if err != nil {
		t.Fatal(err)
	}
	if !claim.Done {
		t.Fatalf("first claim on the resubmission %+v, want Done (settled from cache)", claim)
	}
	stA2, err := cl2.Status(ctx, infoA2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if frac := float64(stA2.Counters.TasksFromCache) / float64(stA2.Total); frac < 0.9 {
		t.Errorf("resubmission served %.0f%% from cache (%d/%d), want >= 90%%",
			100*frac, stA2.Counters.TasksFromCache, stA2.Total)
	}
	gotA2 := fetchReportBytes(t, srv2.URL, V1CampaignPath(infoA2.ID, "report"))
	if !bytes.Equal(gotA2, wantA) {
		t.Errorf("cache-settled resubmission report differs from single-process run:\n got  %s\n want %s", gotA2, wantA)
	}

	// ---- CI artifact: per-campaign final status JSON. ----
	if artDir := os.Getenv("MULTITENANT_STATUS_DIR"); artDir != "" {
		finalList, err := cl2.Campaigns(ctx)
		if err != nil {
			t.Fatal(err)
		}
		for _, info := range finalList.Campaigns {
			st, err := cl2.Status(ctx, info.ID)
			if err != nil {
				t.Fatal(err)
			}
			data, err := json.MarshalIndent(st, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(artDir, "status-"+info.ID+".json")
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
}
