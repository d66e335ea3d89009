package main

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"symplfied/internal/dist"
)

func TestArgErrors(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"no coordinator", nil},
		{"bad flag", []string{"-nonesuch"}},
		{"unreachable coordinator", []string{"-coordinator", "http://127.0.0.1:1", "-quiet"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			if err := run(ctx, tc.args); err == nil {
				t.Error("expected an error")
			}
		})
	}
}

// TestWorkerDrainsCampaign runs the real binary entry point against an
// in-process campaign service until its one campaign completes.
func TestWorkerDrainsCampaign(t *testing.T) {
	reg, err := dist.NewRegistry(dist.RegistryConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	coord, err := reg.Create(dist.SpecDoc{
		Name:               "factorial-register",
		App:                "factorial",
		Input:              []int64{5},
		Class:              "register",
		Goal:               "incorrect-output",
		Watchdog:           400,
		Tasks:              2,
		MaxFindingsPerTask: 10,
	}, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(dist.NewService(reg).Handler())
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := run(ctx, []string{"-coordinator", srv.URL + "/", "-id", "t", "-quiet"}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-coord.Done():
	default:
		t.Error("worker exited but the campaign is not done")
	}
}
